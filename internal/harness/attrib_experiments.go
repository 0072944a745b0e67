package harness

// Latency-attribution experiment: the streaming phase decomposition plus
// the counterfactual clear-hardware costing must reproduce the paper's
// overhead shapes as a live output of ordinary serving runs. Three
// deployments pin down three different dominant costs: a swap-heavy
// confidential-GPU slice pays its TEE tax through the AES-GCM bounce
// buffer, a decode-heavy SGX enclave pays it through memory-bandwidth-
// bound decode, and a saturated TDX deployment hides everything behind
// queue wait — while every run conserves exactly (phases sum to latency)
// and the clear-hardware counterfactual of a protected run is the
// unprotected run, byte for byte.

import (
	"fmt"
	"reflect"

	"cllm/internal/dtype"
	"cllm/internal/gramine"
	"cllm/internal/obs"
	"cllm/internal/serve"
	"cllm/internal/tee"
	"cllm/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "attrib",
		Title: "Latency attribution: phase breakdowns and counterfactual TEE-tax accounting (7B)",
		Paper: "Fig. 5/6 shape: cGPU pays the TEE tax through bounce-buffer swap transfers, CPU TEEs through memory-bandwidth-bound decode; near saturation queue wait dominates every overhead",
		Run:   runAttribution,
	})
}

// attribScenario is one (backend, trace) deployment to attribute.
type attribScenario struct {
	name string
	be   serve.Backend
	cfg  serve.Config
}

// attribOutcome carries one scenario's attributed run.
type attribOutcome struct {
	rep  *serve.Report
	arep *obs.AttribReport
	csv  []byte
}

// runAttrib executes one scenario with an attribution engine and the
// clear-hardware counterfactual coster attached.
func runAttrib(sc attribScenario) (*attribOutcome, error) {
	a, err := obs.NewAttribution(0, true)
	if err != nil {
		return nil, err
	}
	cfg := sc.cfg
	cfg.Observer = a
	if cfg.ClearCoster, err = serve.NewClearStepCoster(sc.be, cfg); err != nil {
		return nil, err
	}
	rep, err := serve.Run(sc.be, cfg)
	if err != nil {
		return nil, err
	}
	arep := a.Report(rep.Platform)
	return &attribOutcome{rep: rep, arep: arep, csv: arep.PhaseCSV()}, nil
}

// phaseByName indexes a report's stat rows by phase name.
func phaseByName(stats []obs.PhaseStat) map[string]obs.PhaseStat {
	m := make(map[string]obs.PhaseStat, len(stats))
	for _, p := range stats {
		m[p.Phase] = p
	}
	return m
}

// dominant returns the stat row with the largest TotalSec.
func dominant(stats []obs.PhaseStat) obs.PhaseStat {
	best := stats[0]
	for _, p := range stats[1:] {
		if p.TotalSec > best.TotalSec {
			best = p
		}
	}
	return best
}

func runAttribution(o Options) (*Result, error) {
	res := &Result{
		ID:     "attrib",
		Title:  "Phase attribution and counterfactual TEE-tax accounting (extension)",
		Header: []string{"scenario", "done", "lat p50(s)", "queue", "prefill", "decode", "stall", "swap", "tax p50", "dominant tax"},
	}

	m := mustModel("llama2-7b")
	wl := trace.Workload{Model: m, Kind: dtype.BF16}
	weights := int64(trace.WeightFootprint(wl))
	perToken := m.KVCacheBytesPerToken(2)

	// cGPU swap-heavy: a MIG-style confidential-GPU slice (weights plus
	// ~800 KV tokens) under a short-request burst, forced onto the swap
	// path — every preemption round-trips KV through the AES-GCM bounce
	// buffer at ~12% of PCIe, so the swap-transfer tax towers over the
	// few-percent compute overheads.
	cgpuSwap := attribScenario{
		name: "cGPU/swap-heavy",
		be:   h100(tee.CGPU()),
		cfg: serve.Config{
			Workload: wl, Trace: evenTrace(16, 0.05, 384, 32), Seed: o.Seed,
			Knobs: serve.Knobs{MaxBatch: 4, PreemptPolicy: serve.PreemptSwap},
		},
	}
	cgpuSwap.be.GPU.GPU.HBMBytes = weights + 800*perToken

	// CPU-TEE equivalent of the same pressure: an SGX enclave whose KV
	// pool preempts constantly, but whose swaps ride the inline memory
	// encryption engine at near-native memcpy speed — the tax share of
	// end-to-end latency stays far below the cGPU slice's.
	sgx, err := tee.SGX(gramine.DefaultManifest("/models/llama2.bin", weights+6144*perToken, 64))
	if err != nil {
		return nil, err
	}
	sgxSwap := attribScenario{
		name: "SGX/swap-heavy",
		be:   emr1(sgx),
		cfg: serve.Config{
			Workload: wl, Trace: evenTrace(24, 0.05, 1024, 256), Seed: o.Seed,
			Knobs: serve.Knobs{MaxBatch: 8, PreemptPolicy: serve.PreemptSwap},
		},
	}

	// SGX decode-heavy: short prompts, long generations, no KV pressure —
	// nearly all attributed time is memory-bandwidth-bound decode, and the
	// enclave's MemBWFactor makes decode the dominant tax component.
	sgxDecode := attribScenario{
		name: "SGX/decode-heavy",
		be:   sgxSwap.be,
		cfg:  serve.Config{Workload: wl, Trace: evenTrace(8, 0.1, 32, o.tokens(512)), Seed: o.Seed, Knobs: serve.Knobs{MaxBatch: 8}},
	}

	// TDX near saturation: arrivals outpace a batch-limited server, so
	// queue wait swamps every other phase — including the TEE tax.
	tdxSat := attribScenario{
		name: "TDX/saturated",
		be:   emr1(tee.TDX()),
		cfg:  serve.Config{Workload: wl, Trace: evenTrace(32, 0.01, 256, 64), Seed: o.Seed, Knobs: serve.Knobs{MaxBatch: 2}},
	}

	// The cGPU scenario runs twice: attribution artifacts must be
	// deterministic — byte-identical phase CSVs from repeated runs.
	scenarios := []attribScenario{cgpuSwap, sgxSwap, sgxDecode, tdxSat, cgpuSwap}
	outs, err := sweep(o, len(scenarios), func(i int) (*attribOutcome, error) { return runAttrib(scenarios[i]) })
	if err != nil {
		return nil, err
	}
	cgpuOut, sgxOut, decOut, satOut, cgpuRepeat := outs[0], outs[1], outs[2], outs[3], outs[4]

	for i, out := range outs[:4] {
		row := []string{scenarios[i].name,
			fmt.Sprintf("%d", out.arep.Completed),
			fmt.Sprintf("%.3f", out.arep.LatencyP50Sec)}
		// In phase order, less handoff: these unified fleets never hand off.
		for _, p := range out.arep.Phases[:obs.PhaseHandoff] {
			row = append(row, fmt.Sprintf("%.1f%%", p.Share*100))
		}
		row = append(row,
			fmt.Sprintf("%.1f%%", out.arep.TaxShareP50*100),
			dominant(out.arep.Tax).Phase)
		res.Rows = append(res.Rows, row)
	}

	// Conservation: every scenario's phases sum to measured latency for
	// every request, exactly — the engine records violations otherwise.
	violations := ""
	for i, out := range outs {
		if len(out.arep.Violations) > 0 {
			violations += fmt.Sprintf(" %s: %s;", scenarios[i].name, out.arep.Violations[0])
		}
	}
	res.Checks = append(res.Checks, Check{
		Name:   "phase conservation holds exactly in every scenario",
		Pass:   violations == "",
		Detail: fmt.Sprintf("violations:%s", orNone(violations)),
	})

	// Both swap-heavy deployments must actually swap.
	res.Checks = append(res.Checks, Check{
		Name: "swap-heavy scenarios exercise the swap path",
		Pass: cgpuOut.rep.SwapOuts > 0 && sgxOut.rep.SwapOuts > 0,
		Detail: fmt.Sprintf("cGPU %d swap-outs, SGX %d swap-outs",
			cgpuOut.rep.SwapOuts, sgxOut.rep.SwapOuts),
	})

	// Headline shape 1: the TEE-tax share of p50 latency is strictly
	// larger on the cGPU swap-heavy run than on the CPU-TEE equivalent —
	// the bounce buffer is the expensive path, the inline encryption
	// engine nearly free.
	res.Checks = append(res.Checks, Check{
		Name: "TEE-tax share of p50 latency: cGPU swap-heavy > CPU-TEE swap-heavy",
		Pass: cgpuOut.arep.TaxShareP50 > sgxOut.arep.TaxShareP50,
		Detail: fmt.Sprintf("cGPU %.1f%% vs SGX %.1f%%",
			cgpuOut.arep.TaxShareP50*100, sgxOut.arep.TaxShareP50*100),
	})

	// Headline shape 2: on the cGPU slice the bounce-buffer transfer tax
	// dominates — it exceeds the whole compute delta (prefill + decode
	// tax combined), and the transfer phase itself is mostly tax: at ~12%
	// of PCIe, over half of every encrypted KV round-trip is TEE detour.
	cgpuTax := phaseByName(cgpuOut.arep.Tax)
	cgpuPh := phaseByName(cgpuOut.arep.Phases)
	res.Checks = append(res.Checks, Check{
		Name: "cGPU swap-heavy: bounce-buffer transfer tax dominates the compute delta; transfers are mostly tax",
		Pass: dominant(cgpuOut.arep.Tax).Phase == "swap-transfer" &&
			cgpuTax["swap-transfer"].TotalSec > cgpuTax["prefill"].TotalSec+cgpuTax["decode"].TotalSec &&
			cgpuTax["swap-transfer"].TotalSec > 0.5*cgpuPh["swap-transfer"].TotalSec,
		Detail: fmt.Sprintf("swap tax %.3fs vs decode tax %.3fs + prefill tax %.3fs; swap phase %.3fs (tax %.0f%% of it)",
			cgpuTax["swap-transfer"].TotalSec, cgpuTax["decode"].TotalSec,
			cgpuTax["prefill"].TotalSec, cgpuPh["swap-transfer"].TotalSec,
			100*cgpuTax["swap-transfer"].TotalSec/cgpuPh["swap-transfer"].TotalSec),
	})

	// Headline shape 3: decode-heavy SGX pays its tax through
	// memory-bandwidth-bound decode.
	decTax := phaseByName(decOut.arep.Tax)
	res.Checks = append(res.Checks, Check{
		Name: "SGX decode-heavy: memory-bandwidth decode tax dominates the compute delta",
		Pass: dominant(decOut.arep.Tax).Phase == "decode" &&
			decTax["decode"].TotalSec > decTax["prefill"].TotalSec,
		Detail: fmt.Sprintf("decode tax %.3fs vs prefill tax %.3fs, swap tax %.3fs",
			decTax["decode"].TotalSec, decTax["prefill"].TotalSec, decTax["swap-transfer"].TotalSec),
	})

	// Headline shape 4: near saturation, queue wait dominates every other
	// phase — and dwarfs the entire TEE tax.
	satPh := phaseByName(satOut.arep.Phases)
	res.Checks = append(res.Checks, Check{
		Name: "near saturation: queue wait dominates every phase and the whole TEE tax",
		Pass: dominant(satOut.arep.Phases).Phase == "queue" &&
			satPh["queue"].TotalSec > satOut.arep.TaxTotalSec,
		Detail: fmt.Sprintf("queue %.3fs (%.1f%% share) vs decode %.3fs, total tax %.3fs",
			satPh["queue"].TotalSec, satPh["queue"].Share*100,
			satPh["decode"].TotalSec, satOut.arep.TaxTotalSec),
	})

	// The counterfactual is honest: running the protected config on its
	// clear-hardware twin reproduces the unprotected run byte for byte
	// (only the platform label differs).
	twins := []tee.Platform{tee.CGPU().Clear(), tee.GPU()}
	twinReps, err := sweep(o, len(twins), func(i int) (*serve.Report, error) {
		be := cgpuSwap.be
		be.GPU.Platform = twins[i]
		return serve.Run(be, cgpuSwap.cfg)
	})
	if err != nil {
		return nil, err
	}
	clearRep, bareRep := twinReps[0], twinReps[1]
	norm := *clearRep
	norm.Platform = bareRep.Platform
	res.Checks = append(res.Checks, Check{
		Name:   "clear-hardware twin run is identical to the unprotected run",
		Pass:   reflect.DeepEqual(&norm, bareRep),
		Detail: fmt.Sprintf("%s vs %s: reports deep-equal after label normalization", clearRep.Platform, bareRep.Platform),
	})

	// Determinism: repeated attributed runs export byte-identical CSVs.
	res.Checks = append(res.Checks, Check{
		Name:   "attribution artifacts are deterministic across repeated runs",
		Pass:   string(cgpuOut.csv) == string(cgpuRepeat.csv),
		Detail: fmt.Sprintf("phase CSV %dB, byte-identical on re-run", len(cgpuOut.csv)),
	})

	res.Notes = append(res.Notes,
		"Tax is the per-round clamp max(0, confidential − clear) of each costed component, so platform noise tails are never booked as TEE overhead; unprotected platforms price to exactly zero tax.",
		"Phase vectors are exact in int64 nanoseconds (queue + prefill + decode + preempt-stall + swap-transfer == finish − arrival, bit-exact per request); aggregates fold into DDSketches, so 10⁸-request epoch-sharded runs stay bounded-memory.",
		"The clear-hardware coster neutralizes tee.Platform factors (bounce-buffer bandwidth, MemBWFactor, paging, kernel-launch and VM-exit overheads) while keeping hardware-architectural ones, and is memoized per session like the confidential coster.")
	return res, nil
}
