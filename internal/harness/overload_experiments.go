package harness

// Overload-and-failure experiments: the robustness face of confidential
// serving. The paper prices TEEs at steady state on a healthy replica;
// production fleets lose replicas (and their enclave-bound KV state) and
// see bursts past capacity. These experiments ask two questions the
// steady-state numbers cannot: (1) does deadline-aware admission control
// protect interactive goodput through a burst-plus-failure storm where
// FIFO queueing collapses everything, and (2) how differently do the TEE
// platforms price the *recovery* from the same failure — the full
// confidential cold start (reboot, weight re-provisioning, enclave/TD
// rebuild, re-attestation) a crash forces.

import (
	"fmt"

	"cllm/internal/dtype"
	"cllm/internal/serve"
	"cllm/internal/tee"
	"cllm/internal/trace"
	"cllm/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "overload",
		Title: "Fault-injected overload: deadline-aware shedding vs FIFO, and TEE-priced recovery (7B)",
		Paper: "Extension: the paper serves healthy replicas at steady state; under a 3x burst with a mid-run crash, FIFO queueing lets expired work starve interactive requests while EDF shedding with retry budgets holds their goodput, and the same crash costs cGPU > SGX > TDX in cold-start downtime",
		Run:   runOverload,
	})
}

// overloadMix crosses interactive chat traffic with background agent
// turns, so admission control has SLO tiers to discriminate between
// (serve.RequestClass is derived from the shape-name prefix).
func overloadMix(outLen int) workload.Mix {
	return workload.Mix{
		{Name: "chat-short", Weight: 3, InputLen: 128, OutputLen: outLen, LengthJitter: 0.2},
		{Name: "agent-turn", Weight: 1, InputLen: 384, OutputLen: outLen, LengthJitter: 0.2},
	}
}

func runOverload(o Options) (*Result, error) {
	res := &Result{ID: "overload", Title: "Failure and overload: admission control and recovery pricing (extension)",
		Header: []string{"run", "admission", "completed", "dropped", "shed", "retries", "crashes", "downtime(s)", "goodput(tok/s)", "inter-goodput(tok/s)", "SLO%"}}

	outLen := o.tokens(32)
	nReq := 240
	if o.Quick {
		nReq = 160
	}
	baseRate := 0.8
	// One crash mid-burst: both overload policies replay the identical
	// failure (and arrival) schedule, so the only degree of freedom between
	// them is what the queue does with infeasible work.
	crashPlan := []serve.FailPoint{{Replica: 0, TimeSec: 40}}
	mk := func(arr workload.Arrivals, admission serve.AdmissionPolicy, plan []serve.FailPoint, retryMax int) serve.Config {
		return serve.Config{
			Workload: trace.Workload{Model: mustModel("llama2-7b"), Kind: dtype.BF16},
			Scenario: &workload.Scenario{Arrivals: arr, Mix: overloadMix(outLen)},
			Requests: nReq,
			Seed:     o.Seed,
			// Shallow batches bound the replica's headroom so the burst is a
			// real overload, and a tight TTFT SLO makes queue time visible as
			// missed deadlines rather than invisible slack.
			Knobs: serve.Knobs{MaxBatch: 4, TTFTSLOSec: 2,
				Faults: serve.FaultConfig{Admission: admission, Plan: plan, RetryMax: retryMax}},
		}
	}

	type spec struct {
		name string
		be   serve.Backend
		cfg  serve.Config
	}
	tdxBE := emr1(tee.TDX())
	sgx, err := sgxPlatform()
	if err != nil {
		return nil, err
	}
	specs := []spec{
		// Un-overloaded healthy baseline: the goodput yardstick.
		{"baseline", tdxBE, mk(workload.Poisson{Rate: baseRate}, serve.AdmitFIFO, nil, 0)},
		// 3x MMPP burst plus a crash, FIFO: every arrival queues, deadlines
		// expire invisibly, interactive work starves behind the backlog.
		{"burst+crash fifo", tdxBE, mk(workload.Bursty(3*baseRate), serve.AdmitFIFO, crashPlan, 0)},
		// Same storm, EDF shedding with a retry budget: infeasible requests
		// are turned away early and the freed capacity serves work that can
		// still meet its deadline.
		{"burst+crash shed", tdxBE, mk(workload.Bursty(3*baseRate), serve.AdmitShed, crashPlan, 2)},
		// Recovery pricing: the identical scripted crash on each platform,
		// measured as the cold-start downtime the report bills for it.
		{"recovery tdx", tdxBE, mk(workload.Poisson{Rate: baseRate}, serve.AdmitFIFO, []serve.FailPoint{{TimeSec: 10}}, 0)},
		{"recovery sgx", emr1(sgx), mk(workload.Poisson{Rate: baseRate}, serve.AdmitFIFO, []serve.FailPoint{{TimeSec: 10}}, 0)},
		{"recovery cgpu", h100(tee.CGPU()), mk(workload.Poisson{Rate: baseRate}, serve.AdmitFIFO, []serve.FailPoint{{TimeSec: 10}}, 0)},
	}
	// Recovery runs only need the downtime of one crash, not a full sweep.
	for i := 3; i < len(specs); i++ {
		specs[i].cfg.Requests = 24
	}

	reps, err := sweep(o, len(specs), func(i int) (*serve.Report, error) {
		rep, err := serve.Run(specs[i].be, specs[i].cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", specs[i].name, err)
		}
		return rep, nil
	})
	if err != nil {
		return nil, err
	}

	interGoodput := func(rep *serve.Report) float64 {
		if rep.MakespanSec <= 0 {
			return 0
		}
		return float64(rep.GoodTokensByClass[serve.ClassInteractive]) / rep.MakespanSec
	}
	for i, sp := range specs {
		rep := reps[i]
		res.Rows = append(res.Rows, []string{
			sp.name,
			sp.cfg.Faults.Admission.String(),
			fmt.Sprintf("%d", rep.Completed),
			fmt.Sprintf("%d", rep.Dropped),
			fmt.Sprintf("%d", rep.Sheds),
			fmt.Sprintf("%d", rep.Retries),
			fmt.Sprintf("%d", rep.Crashes),
			fmt.Sprintf("%.2f", rep.DowntimeSec),
			fmt.Sprintf("%.1f", rep.GoodputTokensPerSec),
			fmt.Sprintf("%.1f", interGoodput(rep)),
			pct(rep.SLOAttainment() * 100),
		})
	}

	base, fifo, shed := interGoodput(reps[0]), interGoodput(reps[1]), interGoodput(reps[2])
	if base <= 0 {
		return nil, fmt.Errorf("overload: baseline served no interactive goodput")
	}
	// FIFO must actually collapse — otherwise the storm is too mild for the
	// shed comparison to mean anything — while shedding holds a bounded
	// fraction of the healthy goodput through the same storm.
	res.Checks = append(res.Checks,
		band("FIFO interactive goodput collapses under burst+crash (fraction of baseline)", fifo/base, 0, 0.5),
		band("shed holds interactive goodput through burst+crash (fraction of baseline)", shed/base, 0.6, 2),
		Check{
			Name:   "shedding beats FIFO on interactive goodput under the identical storm",
			Pass:   shed > fifo,
			Detail: fmt.Sprintf("shed %.1f tok/s vs fifo %.1f tok/s (baseline %.1f)", shed, fifo, base),
		},
		ordering("recovery tax (cold-start downtime per crash)",
			[]string{"cgpu", "sgx", "tdx"},
			[]float64{reps[5].DowntimeSec, reps[4].DowntimeSec, reps[3].DowntimeSec}),
	)
	res.Notes = append(res.Notes,
		fmt.Sprintf("interactive goodput: baseline %.1f, fifo %.1f, shed %.1f tok/s; identical bursty arrivals and crash schedule for both policies", base, fifo, shed),
		"recovery downtime is the platform's full confidential cold start: reboot + weight provisioning + enclave/TD rebuild + attestation (cGPU pays host-CVM accept plus dual attestation)")
	return res, nil
}
