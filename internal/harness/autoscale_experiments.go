package harness

// Elasticity experiments: heterogeneous TEE fleets and attestation-aware
// autoscaling. The paper prices confidentiality per served token at steady
// state; these ask what it costs to *track* a non-stationary arrival
// process — where dispatch must respect class capability and price, and
// every reactive scale-up of a confidential replica pays enclave/TD build
// plus the attestation round-trip before it can serve.

import (
	"fmt"
	"math"

	"cllm/internal/autoscale"
	"cllm/internal/dtype"
	"cllm/internal/hw"
	"cllm/internal/par"
	"cllm/internal/perf"
	"cllm/internal/serve"
	"cllm/internal/tee"
	"cllm/internal/trace"
	"cllm/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "hetero",
		Title: "Heterogeneous TDX+cGPU fleet: cost-aware vs uniform dispatch (7B)",
		Paper: "Extension: the paper prices each platform alone (Fig 12); a mixed fleet needs dispatch that weighs per-class capability — blind least-loaded overloads the slow cheap class and pays the same rent for less SLO-compliant output",
		Run:   runHetero,
	})
	register(Experiment{
		ID:    "autoscale",
		Title: "Attestation-aware autoscaling under bursty load: cold start vs free elasticity (7B, TDX)",
		Paper: "Extension: reactive scale-up of a confidential replica pays TD build + attestation before serving; holding an SLO under bursts therefore needs strictly more replica-hours than a zero-cold-start fleet — the elasticity tax of confidentiality",
		Run:   runAutoscale,
	})
}

// heteroChatMix is the shared request shape of both elasticity experiments:
// chat-length prompts, CI-sized generations.
func heteroChatMix(outLen int) workload.Mix {
	return workload.Mix{{Name: "chat", Weight: 1, InputLen: 128, OutputLen: outLen, LengthJitter: 0.2}}
}

// gpuServeBackend is the cGPU serving deployment.
func gpuServeBackend(p tee.Platform) serve.Backend {
	return serve.Backend{IsGPU: true, GPU: perf.GPURun{GPU: hw.H100NVL(), Platform: p}}
}

func runHetero(o Options) (*Result, error) {
	res := &Result{ID: "hetero", Title: "Heterogeneous fleet dispatch: cost-aware vs uniform (extension)",
		Header: []string{"dispatch", "SLO%", "goodput(tok/s)", "$/Mtok", "tdx share", "cgpu share", "TTFT p99(s)"}}

	scfg := serve.Config{
		Workload: trace.Workload{Model: mustModel("llama2-7b"), Kind: dtype.BF16},
		// The offered rate sits inside the fleet's capacity when routed
		// well (the cGPU serves ~9 req/s, the TDX replicas ~1 each) but
		// above what blind dispatch can manage: any sustained overrouting
		// to the slow class queues past the SLO there.
		Scenario: &workload.Scenario{
			Arrivals: workload.Poisson{Rate: 9},
			Mix:      heteroChatMix(o.tokens(32)),
		},
		Requests: 240,
		Seed:     o.Seed,
		// Shallow per-replica batches keep the TDX replicas' headroom
		// bounded so misrouted traffic actually queues there, and a tight
		// TTFT SLO makes queueing on an overloaded slow replica an
		// attainment miss rather than invisible slack.
		Knobs: serve.Knobs{MaxBatch: 4, TTFTSLOSec: 1.5},
	}
	if o.Quick {
		scfg.Requests = 160
	}
	// Probe once; autoscale.Run copies the class slice, so both policies
	// can share it. A fixed fleet (Min == Max): the experiment isolates
	// dispatch, so both policies rent the identical hardware all run. The
	// two probes are independent simulations — run them on the worker pool,
	// sharing each backend's costing table with the policy runs below.
	tdxBE := chunkedBackend(tee.TDX())
	cgpuBE := gpuServeBackend(tee.CGPU())
	bes := []*serve.Backend{&tdxBE, &cgpuBE}
	caps := make([]float64, len(bes))
	err := par.For(o.Workers, len(bes), func(i int) error {
		coster, err := serve.NewStepCoster(*bes[i], scfg)
		if err != nil {
			return err
		}
		bes[i].Coster = coster
		cap, err := autoscale.ProbeCapacity(*bes[i], scfg)
		if err != nil {
			return err
		}
		caps[i] = cap
		return nil
	})
	if err != nil {
		return nil, err
	}
	tdxHourly, err := tdxBE.HourlyUSD()
	if err != nil {
		return nil, err
	}
	cgpuHourly, err := cgpuBE.HourlyUSD()
	if err != nil {
		return nil, err
	}
	classes := []autoscale.Class{
		{Name: "tdx", Backend: tdxBE, HourlyUSD: tdxHourly, Min: 2, Max: 2, CapacityReqPerSec: caps[0]},
		{Name: "cgpu", Backend: cgpuBE, HourlyUSD: cgpuHourly, Min: 1, Max: 1, CapacityReqPerSec: caps[1]},
	}

	type outcome struct {
		att, goodput, usd, ttftP99 float64
		share                      [2]float64
	}
	// Both dispatch policies simulate the identical rented fleet on
	// independent engines: evaluate them concurrently, merge in policy
	// order.
	dispatches := []autoscale.Dispatch{autoscale.Uniform, autoscale.CostAware}
	outs := make([]outcome, len(dispatches))
	err = par.For(o.Workers, len(dispatches), func(i int) error {
		rep, err := autoscale.Run(classes, autoscale.Config{Serve: scfg, Dispatch: dispatches[i], IntervalSec: 10})
		if err != nil {
			return err
		}
		total := rep.Usage[0].Dispatched + rep.Usage[1].Dispatched
		out := outcome{
			att: rep.SLOAttainment(), goodput: rep.Aggregate.GoodputTokensPerSec,
			usd: rep.USDPerMTok, ttftP99: rep.Aggregate.TTFT.P99,
		}
		if total > 0 {
			out.share[0] = float64(rep.Usage[0].Dispatched) / float64(total)
			out.share[1] = float64(rep.Usage[1].Dispatched) / float64(total)
		}
		outs[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, d := range dispatches {
		out := outs[i]
		res.Rows = append(res.Rows, []string{
			d.String(),
			fmt.Sprintf("%.0f%%", out.att*100),
			fmt.Sprintf("%.1f", out.goodput),
			fmt.Sprintf("%.2f", out.usd),
			fmt.Sprintf("%.0f%%", out.share[0]*100),
			fmt.Sprintf("%.0f%%", out.share[1]*100),
			fmt.Sprintf("%.2f", out.ttftP99),
		})
	}
	uni, ca := outs[0], outs[1]

	res.Checks = append(res.Checks, Check{
		Name:   "cost-aware SLO attainment at least matches uniform",
		Pass:   ca.att >= uni.att,
		Detail: fmt.Sprintf("cost-aware %.1f%% vs uniform %.1f%%", ca.att*100, uni.att*100),
	}, Check{
		Name:   "cost-aware $/Mtok <= uniform at equal rented fleet",
		Pass:   ca.usd <= uni.usd && !math.IsInf(ca.usd, 1),
		Detail: fmt.Sprintf("cost-aware $%.2f vs uniform $%.2f per Mtok", ca.usd, uni.usd),
	}, Check{
		Name: "capacity weighting shifts traffic toward the fast class",
		Pass: ca.share[1] > uni.share[1],
		Detail: fmt.Sprintf("cGPU share %.0f%% cost-aware vs %.0f%% uniform",
			ca.share[1]*100, uni.share[1]*100),
	})
	res.Notes = append(res.Notes,
		"Both policies rent the identical fixed fleet (2×TDX + 1×cGPU); only routing differs, so the $/Mtok gap is pure goodput.",
		"Uniform least-outstanding treats a queued request on a ~1 req/s TDX replica like one on a ~9 req/s cGPU; cost-aware dispatch normalizes queue depth by probed class capacity.")
	return res, nil
}

// autoscaleSweep holds one scaler-policy operating point.
type autoscaleSweep struct {
	minFloor int
	util     float64
}

func runAutoscale(o Options) (*Result, error) {
	res := &Result{ID: "autoscale", Title: "Cold-start-aware scaling cost under bursty load (extension)",
		Header: []string{"coldstart(s)", "policy(min,util)", "SLO%", "replica-hrs", "cost($)", "coldstarts", "TTFT p99(s)"}}

	const sloTarget = 0.85
	tdxBE := chunkedBackend(tee.TDX())
	wl := trace.Workload{Model: mustModel("llama2-7b"), Kind: dtype.BF16}
	scfg := serve.Config{
		Workload: wl,
		Scenario: &workload.Scenario{
			Arrivals: workload.Poisson{Rate: 1}, // placeholder; set from the probe below
			Mix:      heteroChatMix(o.tokens(24)),
		},
		Requests: 320,
		Seed:     o.Seed,
		// A shallow batch keeps one replica's headroom bounded: deep
		// batching would quietly absorb any burst and no scaling (hence no
		// cold start) would ever be exercised. A 4 s TTFT SLO gives a warm
		// fleet's reaction lag (one control interval) room to pass while a
		// 13 s cold start still blows it.
		Knobs: serve.Knobs{MaxBatch: 4, TTFTSLOSec: 4},
	}
	if o.Quick {
		scfg.Requests = 224
	}
	hourly, err := tdxBE.HourlyUSD()
	if err != nil {
		return nil, err
	}
	// Share one costing table across the probe and the whole policy sweep:
	// every cell simulates the same backend and workload shape, so the
	// sweep's later cells run almost entirely on table hits. A hit takes no
	// lock and writes no shared memory, so the parallel cells do not
	// contend on the table.
	coster, err := serve.NewStepCoster(tdxBE, scfg)
	if err != nil {
		return nil, err
	}
	tdxBE.Coster = coster
	capacity, err := autoscale.ProbeCapacity(tdxBE, scfg)
	if err != nil {
		return nil, err
	}
	// The burst structure is defined relative to one replica's saturated
	// rate: lulls fit one replica at 80% utilization, bursts of ~20 s need
	// almost three — so holding the SLO requires scaling into each burst
	// (or standing capacity), and a cold start eats most of a burst.
	scfg.Scenario.Arrivals = workload.MMPP{
		LowRate: 0.8 * capacity, HighRate: 5 * capacity,
		LowHoldSec: 60, HighHoldSec: 20,
	}
	coldStart := autoscale.ColdStartSec(tdxBE, wl)

	const maxReplicas = 4
	sweeps := []autoscaleSweep{
		{1, 0.9}, {1, 0.6}, {1, 0.4}, {1, 0.3},
		{2, 0.6}, {2, 0.4}, {3, 0.6}, {maxReplicas, 0.6},
	}
	run := func(cold float64, sw autoscaleSweep) (*autoscale.Report, error) {
		return autoscale.Run([]autoscale.Class{{
			Name: "tdx", Backend: tdxBE, HourlyUSD: hourly,
			ColdStartSec: cold, Min: sw.minFloor, Max: maxReplicas,
			CapacityReqPerSec: capacity,
		}}, autoscale.Config{Serve: scfg, IntervalSec: 5, TargetUtil: sw.util})
	}

	// The (cold-start × policy) sweep cells are independent autoscaling
	// simulations: evaluate the whole grid on the worker pool, then fold
	// rows and winners in sweep order — identical output at any worker
	// count.
	colds := []float64{0, coldStart}
	reports := make([]*autoscale.Report, len(colds)*len(sweeps))
	err = par.For(o.Workers, len(reports), func(i int) error {
		rep, err := run(colds[i/len(sweeps)], sweeps[i%len(sweeps)])
		if err != nil {
			return err
		}
		reports[i] = rep
		return nil
	})
	if err != nil {
		return nil, err
	}

	// For each cold-start setting, the cheapest policy (fewest replica-
	// hours) that holds the SLO target. Equal-policy attainments are kept
	// for the degradation check.
	type best struct {
		hours, cost float64
		sw          autoscaleSweep
		found       bool
	}
	attainAt := map[bool]float64{} // equal-policy reference: {1, 0.6}
	bests := map[bool]best{}
	for ci, cold := range colds {
		isCold := cold > 0
		b := best{hours: math.Inf(1)}
		for si, sw := range sweeps {
			rep := reports[ci*len(sweeps)+si]
			att := rep.SLOAttainment()
			if sw.minFloor == 1 && sw.util == 0.6 {
				attainAt[isCold] = att
			}
			res.Rows = append(res.Rows, []string{
				fmt.Sprintf("%.1f", cold),
				fmt.Sprintf("(%d, %.1f)", sw.minFloor, sw.util),
				fmt.Sprintf("%.0f%%", att*100),
				fmt.Sprintf("%.4f", rep.ReplicaHours),
				fmt.Sprintf("%.4f", rep.CostUSD),
				fmt.Sprintf("%d", rep.ColdStarts),
				fmt.Sprintf("%.2f", rep.Aggregate.TTFT.P99),
			})
			if att >= sloTarget && rep.ReplicaHours < b.hours {
				b = best{hours: rep.ReplicaHours, cost: rep.CostUSD, sw: sw, found: true}
			}
		}
		bests[isCold] = b
	}

	warm, cold := bests[false], bests[true]
	res.Checks = append(res.Checks, Check{
		Name: "cold start cannot improve SLO attainment at equal policy",
		Pass: attainAt[false] >= attainAt[true],
		Detail: fmt.Sprintf("policy (1, 0.6): %.1f%% warm vs %.1f%% with %.1fs cold start",
			attainAt[false]*100, attainAt[true]*100, coldStart),
	}, Check{
		Name:   "both settings can hold the SLO somewhere in the policy sweep",
		Pass:   warm.found && cold.found,
		Detail: fmt.Sprintf("target %.0f%%: warm found=%v, cold found=%v", sloTarget*100, warm.found, cold.found),
	})
	if warm.found && cold.found {
		res.Checks = append(res.Checks, Check{
			Name: "attestation cold start strictly increases replica-hours needed to hold the SLO",
			Pass: cold.hours > warm.hours,
			Detail: fmt.Sprintf("cheapest SLO-holding policy: %.4f hrs (min=%d, util=%.1f) with cold start vs %.4f hrs (min=%d, util=%.1f) without",
				cold.hours, cold.sw.minFloor, cold.sw.util, warm.hours, warm.sw.minFloor, warm.sw.util),
		})
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("TDX cold start %.1fs = base boot + weight streaming + TD page acceptance over the %.1f GB image + attestation RTT (constants in internal/tee, internal/gramine).", coldStart, trace.WeightFootprint(wl)/1e9),
		"The sweep varies the standing floor (min replicas) and the utilization target; the zero-cold-start fleet holds the SLO reactively, the confidential fleet must overprovision — the difference is the elasticity tax of attestation.")
	return res, nil
}
