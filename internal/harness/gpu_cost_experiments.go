package harness

import (
	"fmt"

	"cllm/internal/cloud"
	"cllm/internal/dtype"
	"cllm/internal/hw"
	"cllm/internal/perf"
	"cllm/internal/stats"
	"cllm/internal/tee"
	"cllm/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "fig11",
		Title: "H100 GPU vs cGPU: batch scaling (in=128) and input scaling (batch=4)",
		Paper: "cGPU throughput penalties 4-8%, decreasing with batch and input size (Fig 11, Insight 10)",
		Run:   runFig11,
	})
	register(Experiment{
		ID:    "fig12",
		Title: "vCPU scaling and $/Mtok vs confidential H100 across batch sizes",
		Paper: "cGPU ≈100% more expensive at batch 1, advantage fading to parity near batch 128 (Fig 12, Insight 11)",
		Run:   runFig12,
	})
	register(Experiment{
		ID:    "fig13",
		Title: "vCPU scaling and $/Mtok vs confidential H100 across input sizes (batch 4)",
		Paper: "CPU cost advantage collapses with input size: +86% at 128 tokens to roughly -10% at 256 and far negative at 2048 (Fig 13)",
		Run:   runFig13,
	})
}

func runFig11(o Options) (*Result, error) {
	res := &Result{ID: "fig11", Title: "GPU vs cGPU scaling (Fig 11)",
		Header: []string{"sweep", "value", "GPU tok/s", "cGPU tok/s", "overhead", "paper"}}
	cfg := mustModel("llama2-7b")
	out := o.tokens(32)
	paperBatch := map[int]float64{1: 7.45, 2: 7.89, 4: 6.83, 8: 7.12, 16: 7.02, 32: 4.71,
		64: 4.91, 128: 4.87, 256: 5.59, 512: 4.36}
	var batchOv []float64
	for _, bs := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512} {
		wl := trace.Workload{Model: cfg, Kind: dtype.BF16, Batch: bs, Beam: 1, InputLen: 128, OutputLen: out}
		rs, err := onGPU(o, wl, tee.GPU(), tee.CGPU())
		if err != nil {
			return nil, err
		}
		g, c := rs[0], rs[1]
		ov := stats.ThroughputOverheadPct(g.DecodeThroughput(), c.DecodeThroughput())
		batchOv = append(batchOv, ov)
		res.Rows = append(res.Rows, []string{"batch", fmt.Sprintf("%d", bs),
			fmt.Sprintf("%.0f", g.DecodeThroughput()), fmt.Sprintf("%.0f", c.DecodeThroughput()),
			pct(ov), pct(paperBatch[bs])})
	}
	paperInput := map[int]float64{128: 6.83, 256: 6.48, 512: 6.53, 1024: 5.55, 2048: 5.15}
	var inputOv []float64
	for _, in := range []int{128, 256, 512, 1024, 2048} {
		wl := trace.Workload{Model: cfg, Kind: dtype.BF16, Batch: 4, Beam: 1, InputLen: in, OutputLen: out}
		rs, err := onGPU(o, wl, tee.GPU(), tee.CGPU())
		if err != nil {
			return nil, err
		}
		g, c := rs[0], rs[1]
		// Input scaling includes prefill (vLLM generation throughput).
		ov := stats.ThroughputOverheadPct(g.Throughput(), c.Throughput())
		inputOv = append(inputOv, ov)
		res.Rows = append(res.Rows, []string{"input", fmt.Sprintf("%d", in),
			fmt.Sprintf("%.0f", g.Throughput()), fmt.Sprintf("%.0f", c.Throughput()),
			pct(ov), pct(paperInput[in])})
	}
	res.Checks = append(res.Checks,
		band("cGPU overhead at batch 1 (paper 7.45%)", batchOv[0], 4, 10),
		band("cGPU overhead at batch 512 (paper 4.36%)", batchOv[len(batchOv)-1], 0.5, 7),
		Check{Name: "overhead decreases with batch (Insight 10)",
			Pass:   batchOv[len(batchOv)-1] < batchOv[0],
			Detail: fmt.Sprintf("bs1 %.2f%% → bs512 %.2f%%", batchOv[0], batchOv[len(batchOv)-1])},
		Check{Name: "overhead decreases with input size",
			Pass:   inputOv[len(inputOv)-1] < inputOv[0],
			Detail: fmt.Sprintf("in128 %.2f%% → in2048 %.2f%%", inputOv[0], inputOv[len(inputOv)-1])},
	)
	return res, nil
}

// costPoint runs the Fig 12/13 core at one workload shape: a TDX vCPU
// sweep and the cGPU, priced per token. It returns the table row (led by
// label, ending with the paper's value) and the TDX advantage: how much
// more a token costs on the cGPU than at TDX's cheapest vCPU count.
func costPoint(o Options, label string, batch, inputLen int, paper float64) (row []string, adv float64, err error) {
	prices := cloud.DefaultPrices()
	// Cost experiments always use the full 128-token generation: the paper
	// measures long generations, and shortening them would overweight
	// prefill and distort $/Mtok.
	wl := trace.Workload{Model: mustModel("llama2-7b"), Kind: dtype.BF16, Batch: batch, Beam: 1, InputLen: inputLen, OutputLen: 128}
	vcpus := []int{2, 4, 8, 16, 32, 48, 60}
	points, err := sweep(o, len(vcpus), func(i int) (cloud.CostPoint, error) {
		v := vcpus[i]
		r, err := perf.RunCPU(perf.CPURun{CPU: hw.EMR2(), Platform: tee.TDX(), Workload: wl,
			Sockets: 1, CoresPerSocket: v, AMX: true, Seed: o.Seed})
		if err != nil {
			return cloud.CostPoint{}, err
		}
		c, err := prices.CPUCostPerMTokens(v, r.Throughput())
		return cloud.CostPoint{VCPUs: v, TokensPerSec: r.Throughput(), USDPerMTok: c}, err
	})
	if err != nil {
		return nil, 0, err
	}
	best, err := cloud.Cheapest(points)
	if err != nil {
		return nil, 0, err
	}
	g, err := onGPU(o, wl, tee.CGPU())
	if err != nil {
		return nil, 0, err
	}
	cg, err := prices.CGPUCostPerMTokens(g[0].Throughput())
	if err != nil {
		return nil, 0, err
	}
	adv = cloud.AdvantagePct(best.USDPerMTok, cg)
	return []string{label, fmt.Sprintf("%d", best.VCPUs),
		fmt.Sprintf("%.1f", best.TokensPerSec), fmt.Sprintf("$%.2f", best.USDPerMTok),
		fmt.Sprintf("$%.2f", cg), pct(adv), pct(paper)}, adv, nil
}

func runFig12(o Options) (*Result, error) {
	res := &Result{ID: "fig12", Title: "vCPU scaling and cost vs cGPU across batch sizes (Fig 12)",
		Header: []string{"batch", "best vCPUs", "TDX tok/s", "TDX $/Mtok", "cGPU $/Mtok", "TDX advantage", "paper"}}
	paperAdv := map[int]float64{1: 100.32, 4: 86.04, 16: 61.75, 64: 27.87}
	var advs []float64
	for _, bs := range []int{1, 4, 16, 64} {
		row, adv, err := costPoint(o, fmt.Sprintf("%d", bs), bs, 128, paperAdv[bs])
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
		advs = append(advs, adv)
	}
	res.Checks = append(res.Checks,
		band("TDX advantage at batch 1 (paper ≈100%)", advs[0], 50, 170),
		ordering("advantage fades with batch", []string{"bs1", "bs4", "bs16", "bs64"}, advs),
		band("TDX advantage at batch 64 (paper ≈28%)", advs[3], 5, 55),
	)
	res.Notes = append(res.Notes,
		"Insight 11: for small LLMs at small batch/input sizes, CPU TEEs are the pragmatic, cheaper way to secure inference.")
	return res, nil
}

func runFig13(o Options) (*Result, error) {
	res := &Result{ID: "fig13", Title: "vCPU scaling and cost vs cGPU across input sizes (Fig 13)",
		Header: []string{"input", "best vCPUs", "TDX tok/s", "TDX $/Mtok", "cGPU $/Mtok", "TDX advantage", "paper"}}
	// Paper convention in Fig 13: negative = TDX more expensive.
	paperAdv := map[int]float64{256: -10.94, 512: -58.76, 1024: -82.25, 2048: -92.51}
	var advs []float64
	for _, in := range []int{256, 512, 1024, 2048} {
		row, adv, err := costPoint(o, fmt.Sprintf("%d", in), 4, in, paperAdv[in])
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
		advs = append(advs, adv)
	}
	res.Checks = append(res.Checks,
		ordering("CPU advantage collapses with input size",
			[]string{"in256", "in512", "in1024", "in2048"}, advs),
		Check{Name: "advantage collapses by ≥50 points from in256 to in2048",
			Pass:   advs[0]-advs[len(advs)-1] >= 50,
			Detail: fmt.Sprintf("in256 %.1f%% → in2048 %.1f%%", advs[0], advs[len(advs)-1])},
	)
	res.Notes = append(res.Notes,
		"Deviation: the paper reports the advantage turning negative already at input 256; "+
			"our mechanistic model reproduces the monotone collapse but not the sign flip "+
			"(see EXPERIMENTS.md for the analysis).")
	return res, nil
}
