package harness

import (
	"fmt"
	"math"

	"cllm/internal/cloud"
	"cllm/internal/dtype"
	"cllm/internal/hw"
	"cllm/internal/mem"
	"cllm/internal/perf"
	"cllm/internal/scale"
	"cllm/internal/stats"
	"cllm/internal/tee"
	"cllm/internal/trace"
)

// Extension experiments: deployments the paper discusses (§III, §V-A,
// §V-D) but could not measure on its testbed, built from the same
// mechanisms and clearly labeled as projections, plus a mechanism ablation
// of the TDX overhead (runAblation) that goes beyond the paper.

func init() {
	register(Experiment{
		ID:    "sev",
		Title: "AMD SEV-SNP projection vs Intel TDX (single socket, Llama2-7B)",
		Paper: "§III: AMD's TEE stack relies on similar mechanisms to TDX, resulting in close benchmark overheads [Misono et al.]",
		Run:   runSEV,
	})
	register(Experiment{
		ID:    "b100",
		Title: "Projected B100 confidential GPU: HBM encryption + protected NVLink",
		Paper: "§V-A/§V-D.3: B100 closes H100's security gaps; the paper expects a non-negligible added overhead since memory encryption is a significant cost on CPUs",
		Run:   runB100,
	})
	register(Experiment{
		ID:    "scaleout",
		Title: "Multi-GPU scale-up/out: 70B on 2×H100 under NVLink vs confidential host routing vs IPsec",
		Paper: "§V-D.4: confidential instances lack RDMA/GPUdirect, capping inter-GPU traffic at ~3 GB/s vs 40 GB/s; IPsec adds up to 90%",
		Run:   runScaleout,
	})
	register(Experiment{
		ID:    "hybrid",
		Title: "Hybrid CPU-GPU offload: weight streaming over (encrypted) PCIe vs pure CPU TEE",
		Paper: "§V-D.1: when parts of the model offload to host memory, AMX CPUs outperform GPUs — more so under CC, where PCIe transfers pay the bounce buffer",
		Run:   runHybrid,
	})
	register(Experiment{
		ID:    "spr",
		Title: "Sapphire Rapids cost alternative (≈2x cheaper, up to 40% slower)",
		Paper: "§V-D.2: renting an almost 2x cheaper Sapphire Rapids performing up to 40% worse provides an even more affordable alternative",
		Run:   runSPR,
	})
	register(Experiment{
		ID:    "ablation",
		Title: "TDX overhead decomposition: one mechanism disabled at a time",
		Paper: "Beyond the paper (internal/tee mechanism bundles): attributes the TDX overhead to memory encryption, secure-EPT walks + 2M pages, broken NUMA bindings, virtualization tax and per-op costs",
		Run:   runAblation,
	})
}

func runSEV(o Options) (*Result, error) {
	res := &Result{ID: "sev", Title: "SEV-SNP projection vs TDX",
		Header: []string{"dtype", "metric", "baremetal", "TDX", "SEV-SNP (projected)"}}
	cfg := mustModel("llama2-7b")
	out := o.tokens(64)
	var tdxOvs, sevOvs []float64
	for _, kind := range []dtype.Kind{dtype.BF16, dtype.I8} {
		wl := trace.Workload{Model: cfg, Kind: kind, Batch: 6, Beam: 4, InputLen: 1024, OutputLen: out}
		rs, err := onCPU(o, hw.EMR1(), wl, 1, tee.Baremetal(), tee.TDX(), tee.SEVSNP())
		if err != nil {
			return nil, err
		}
		bm, tdx, sev := rs[0], rs[1], rs[2]
		ovT := stats.ThroughputOverheadPct(bm.DecodeThroughput(), tdx.DecodeThroughput())
		ovS := stats.ThroughputOverheadPct(bm.DecodeThroughput(), sev.DecodeThroughput())
		tdxOvs = append(tdxOvs, ovT)
		sevOvs = append(sevOvs, ovS)
		res.Rows = append(res.Rows, []string{kind.String(), "tput(tok/s)",
			fmt.Sprintf("%.1f", bm.DecodeThroughput()), pct(ovT), pct(ovS)})
	}
	diff := stats.Mean(tdxOvs) - stats.Mean(sevOvs)
	res.Checks = append(res.Checks,
		Check{Name: "SEV-SNP within 3 points of TDX",
			Pass:   math.Abs(diff) <= 3,
			Detail: fmt.Sprintf("TDX %.2f%% vs SEV %.2f%%", stats.Mean(tdxOvs), stats.Mean(sevOvs))},
		band("SEV-SNP overhead in the VM-TEE band", stats.Mean(sevOvs), 3, 11),
	)
	return res, nil
}

func runB100(o Options) (*Result, error) {
	res := &Result{ID: "b100", Title: "Projected B100 confidential GPU",
		Header: []string{"batch", "B100 tok/s", "cB100 tok/s", "overhead", "H100 cGPU overhead"}}
	cfg := mustModel("llama2-7b")
	out := o.tokens(32)
	var b100Ovs, h100Ovs []float64
	for _, bs := range []int{1, 16, 128} {
		wl := trace.Workload{Model: cfg, Kind: dtype.BF16, Batch: bs, Beam: 1, InputLen: 128, OutputLen: out}
		rs, err := onGPU(o, wl, tee.B100(), tee.B100CC(), tee.GPU(), tee.CGPU())
		if err != nil {
			return nil, err
		}
		open, cb, g, c := rs[0], rs[1], rs[2], rs[3]
		ovB := stats.ThroughputOverheadPct(open.DecodeThroughput(), cb.DecodeThroughput())
		ovH := stats.ThroughputOverheadPct(g.DecodeThroughput(), c.DecodeThroughput())
		b100Ovs = append(b100Ovs, ovB)
		h100Ovs = append(h100Ovs, ovH)
		res.Rows = append(res.Rows, []string{fmt.Sprintf("%d", bs),
			fmt.Sprintf("%.0f", open.DecodeThroughput()), fmt.Sprintf("%.0f", cb.DecodeThroughput()),
			pct(ovB), pct(ovH)})
	}
	res.Checks = append(res.Checks,
		Check{Name: "HBM encryption adds overhead at large batch (memory-bound)",
			Pass:   b100Ovs[2] > h100Ovs[2],
			Detail: fmt.Sprintf("bs128: cB100 %.2f%% vs H100 cGPU %.2f%%", b100Ovs[2], h100Ovs[2])},
		band("projected cB100 overhead stays single-digit", stats.Mean(b100Ovs), 1, 10),
	)
	res.Notes = append(res.Notes,
		"Projection: B100 encrypts HBM and protects NVLink; its decode path inherits a memory-encryption cost H100 avoids by leaving HBM plain.")
	return res, nil
}

func runScaleout(o Options) (*Result, error) {
	res := &Result{ID: "scaleout", Title: "70B on 2×H100: interconnect options",
		Header: []string{"deployment", "scheme", "tok/s", "vs NVLink"}}
	cfg := mustModel("llama2-70b")
	out := o.tokens(16)
	wl := trace.Workload{Model: cfg, Kind: dtype.BF16, Batch: 32, Beam: 1, InputLen: 512, OutputLen: out}
	type row struct {
		name   string
		c      scale.Cluster
		scheme scale.Parallelism
	}
	rows := []row{
		{"GPU (NVLink)", scale.Cluster{GPU: hw.H100NVL(), Platform: tee.GPU(), NGPUs: 2, Scheme: scale.TensorParallel}, scale.TensorParallel},
		{"cGPU (host-routed)", scale.Cluster{GPU: hw.H100NVL(), Platform: tee.CGPU(), NGPUs: 2, Scheme: scale.TensorParallel}, scale.TensorParallel},
		{"cGPU (pipeline)", scale.Cluster{GPU: hw.H100NVL(), Platform: tee.CGPU(), NGPUs: 2, Scheme: scale.PipelineParallel}, scale.PipelineParallel},
		{"cB100 (protected NVLink)", scale.Cluster{GPU: hw.H100NVL(), Platform: tee.B100CC(), NGPUs: 2, Scheme: scale.TensorParallel}, scale.TensorParallel},
		{"GPU cross-node (IPsec)", scale.Cluster{GPU: hw.H100NVL(), Platform: tee.GPU(), NGPUs: 2, Scheme: scale.TensorParallel, CrossNode: true}, scale.TensorParallel},
	}
	tputs, err := sweep(o, len(rows), func(i int) (float64, error) { return rows[i].c.DecodeThroughput(wl) })
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		res.Rows = append(res.Rows, []string{r.name, r.scheme.String(),
			fmt.Sprintf("%.1f", tputs[i]), pct(stats.ThroughputOverheadPct(tputs[0], tputs[i]))})
	}
	res.Checks = append(res.Checks,
		Check{Name: "host routing cripples confidential scale-up",
			Pass:   tputs[1] < tputs[0]*0.55,
			Detail: fmt.Sprintf("cGPU %.1f vs NVLink %.1f tok/s", tputs[1], tputs[0])},
		Check{Name: "pipeline parallelism recovers some of the loss",
			Pass:   tputs[2] > tputs[1],
			Detail: fmt.Sprintf("PP %.1f vs TP %.1f tok/s", tputs[2], tputs[1])},
		Check{Name: "protected NVLink (B100) restores scale-up",
			Pass:   tputs[3] > tputs[0]*0.75,
			Detail: fmt.Sprintf("cB100 %.1f vs NVLink %.1f tok/s", tputs[3], tputs[0])},
		Check{Name: "IPsec costs cross-node deployments",
			Pass:   tputs[4] < tputs[0],
			Detail: fmt.Sprintf("IPsec %.1f vs local %.1f tok/s", tputs[4], tputs[0])},
	)
	return res, nil
}

func runHybrid(o Options) (*Result, error) {
	res := &Result{ID: "hybrid", Title: "Weight-streaming offload over (encrypted) PCIe",
		Header: []string{"offload", "GPU tok/s", "cGPU tok/s", "TDX CPU tok/s"}}
	cfg := mustModel("llama2-13b")
	out := o.tokens(16)
	wl := trace.Workload{Model: cfg, Kind: dtype.BF16, Batch: 4, Beam: 1, InputLen: 256, OutputLen: out}
	cpuRes, err := onCPU(o, hw.EMR2(), wl, 1, tee.TDX())
	if err != nil {
		return nil, err
	}
	cpuTput := cpuRes[0].DecodeThroughput()
	fracs := []float64{0, 0.25, 0.5, 0.75}
	plats := []tee.Platform{tee.GPU(), tee.CGPU()}
	// Cells: (offload fraction × {GPU, cGPU}).
	offload, err := sweep(o, len(fracs)*len(plats), func(i int) (float64, error) {
		h := scale.HybridOffload{GPU: hw.H100NVL(), Platform: plats[i%len(plats)], OffloadFraction: fracs[i/len(plats)]}
		return h.DecodeThroughput(wl)
	})
	if err != nil {
		return nil, err
	}
	var confAtHalf, openAtHalf float64
	for fi, f := range fracs {
		to, tc := offload[2*fi], offload[2*fi+1]
		if f == 0.5 {
			confAtHalf, openAtHalf = tc, to
		}
		res.Rows = append(res.Rows, []string{fmt.Sprintf("%.0f%%", f*100),
			fmt.Sprintf("%.1f", to), fmt.Sprintf("%.1f", tc), fmt.Sprintf("%.1f", cpuTput)})
	}
	res.Checks = append(res.Checks,
		Check{Name: "CPU TEE beats the offloaded confidential GPU (§V-D.1)",
			Pass:   cpuTput > confAtHalf,
			Detail: fmt.Sprintf("TDX %.1f vs cGPU@50%% offload %.1f tok/s", cpuTput, confAtHalf)},
		Check{Name: "bounce buffer amplifies the offload penalty",
			Pass:   openAtHalf > 4*confAtHalf,
			Detail: fmt.Sprintf("open %.1f vs confidential %.1f tok/s at 50%% offload", openAtHalf, confAtHalf)},
	)
	return res, nil
}

func runSPR(o Options) (*Result, error) {
	res := &Result{ID: "spr", Title: "Sapphire Rapids as the budget confidential host",
		Header: []string{"system", "TDX tok/s", "slowdown vs EMR2", "$/hr (32 vCPU)", "$/Mtok"}}
	cfg := mustModel("llama2-7b")
	wl := trace.Workload{Model: cfg, Kind: dtype.BF16, Batch: 4, Beam: 1, InputLen: 128, OutputLen: 128}
	prices := cloud.DefaultPrices()

	cpus := []hw.CPU{hw.EMR2(), hw.SPR()}
	rs, err := sweep(o, len(cpus), func(i int) (*perf.Result, error) {
		return perf.RunCPU(perf.CPURun{CPU: cpus[i], Platform: tee.TDX(), Workload: wl,
			Sockets: 1, CoresPerSocket: 32, AMX: true, Seed: o.Seed})
	})
	if err != nil {
		return nil, err
	}
	emr, spr := rs[0], rs[1]
	emrHourly, err := prices.HourlyCost(cloud.CPUInstance{VCPUs: 32, MemGiB: 128})
	if err != nil {
		return nil, err
	}
	sprHourly := 32*prices.VCPUHour*prices.SapphireRapidsDiscount + 128*prices.MemGiBHour
	emrCost, err := cloud.CostPerMTokens(emrHourly, emr.Throughput())
	if err != nil {
		return nil, err
	}
	sprCost, err := cloud.CostPerMTokens(sprHourly, spr.Throughput())
	if err != nil {
		return nil, err
	}
	slow := stats.ThroughputOverheadPct(emr.Throughput(), spr.Throughput())
	res.Rows = append(res.Rows,
		[]string{"EMR2 (Emerald Rapids)", fmt.Sprintf("%.1f", emr.Throughput()), "0%",
			fmt.Sprintf("$%.3f", emrHourly), fmt.Sprintf("$%.2f", emrCost)},
		[]string{"SPR (Sapphire Rapids)", fmt.Sprintf("%.1f", spr.Throughput()), pct(slow),
			fmt.Sprintf("$%.3f", sprHourly), fmt.Sprintf("$%.2f", sprCost)},
	)
	res.Checks = append(res.Checks,
		band("SPR slowdown (paper: up to 40% worse)", slow, 5, 45),
		Check{Name: "SPR is the cheaper seat per token (§V-D.2)",
			Pass:   sprCost < emrCost,
			Detail: fmt.Sprintf("SPR $%.2f vs EMR $%.2f per Mtok", sprCost, emrCost)},
	)
	return res, nil
}

// runAblation runs TDX with one mechanism at a time reverted to its
// unprotected behaviour, attributing the total overhead to its sources.
func runAblation(o Options) (*Result, error) {
	res := &Result{ID: "ablation", Title: "TDX overhead source decomposition (two sockets, 7B bf16)",
		Header: []string{"configuration", "tok/s", "overhead", "recovered"}}
	cfg := mustModel("llama2-7b")
	out := o.tokens(48)
	wl := trace.Workload{Model: cfg, Kind: dtype.BF16, Batch: 6, Beam: 4, InputLen: 1024, OutputLen: out}
	full := tee.TDX()
	variants := []struct {
		name string
		mod  func(tee.Platform) tee.Platform
	}{
		{"- memory encryption", func(p tee.Platform) tee.Platform { p.MemBWFactor = 1; return p }},
		{"- secure-EPT walks & 2M pages", func(p tee.Platform) tee.Platform {
			p.PageWalkAmp = 1
			p.Pages = mem.PolicyFullHuge
			return p
		}},
		{"- broken NUMA bindings", func(p tee.Platform) tee.Platform { p.NUMA = mem.NUMABound; return p }},
		{"- UPI encryption", func(p tee.Platform) tee.Platform { p.UPIEncrypted = false; return p }},
		{"- virtualization tax", func(p tee.Platform) tee.Platform { p.ComputeTax = 0; return p }},
		{"- per-op TEE cost", func(p tee.Platform) tee.Platform { p.PerOpCostSec = 0; return p }},
	}
	plats := []tee.Platform{tee.Baremetal(), full}
	for _, v := range variants {
		plats = append(plats, v.mod(full))
	}
	rs, err := onCPU(o, hw.EMR2(), wl, 2, plats...)
	if err != nil {
		return nil, err
	}
	tputs := each(rs, (*perf.Result).DecodeThroughput)
	base, fullTput := tputs[0], tputs[1]
	fullOv := stats.ThroughputOverheadPct(base, fullTput)
	res.Rows = append(res.Rows, []string{"TDX (all mechanisms)", fmt.Sprintf("%.1f", fullTput), pct(fullOv), "-"})
	var recovered []float64
	for i, v := range variants {
		tput := tputs[i+2]
		ov := stats.ThroughputOverheadPct(base, tput)
		rec := fullOv - ov
		recovered = append(recovered, rec)
		res.Rows = append(res.Rows, []string{v.name, fmt.Sprintf("%.1f", tput), pct(ov),
			fmt.Sprintf("%.2f pts", rec)})
	}
	var sum float64
	memRelated := recovered[0] + recovered[1] + recovered[2] + recovered[3]
	for _, r := range recovered {
		sum += r
	}
	res.Checks = append(res.Checks,
		Check{Name: "memory-path mechanisms dominate the TDX overhead",
			Pass:   memRelated > recovered[4]+recovered[5],
			Detail: fmt.Sprintf("memory-related %.2f pts vs compute-related %.2f pts", memRelated, recovered[4]+recovered[5])},
		Check{Name: "single-mechanism recoveries roughly compose to the total",
			Pass:   sum > fullOv*0.6 && sum < fullOv*1.6,
			Detail: fmt.Sprintf("sum of recoveries %.2f pts vs total %.2f%%", sum, fullOv)},
	)
	res.Notes = append(res.Notes,
		"Each row disables exactly one mechanism; 'recovered' is the overhead attributable to it (interactions make the sum inexact).")
	return res, nil
}
