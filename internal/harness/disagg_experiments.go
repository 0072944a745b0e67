package harness

// Disaggregated prefill/decode serving across the TEE boundary: the
// tentpole question of the topology API. A cGPU prefills long prompts two
// orders of magnitude faster than a CPU TEE but rents for ~13x the price;
// decode is memory-bound, where a TDX host's $/(GB/s) is competitive.
// Splitting the stages — cGPU prefill, TDX decode, an explicitly priced
// KV handoff over the NIC between them — should therefore win exactly
// when prompts are long (prefill compute dominates, and the handoff
// amortizes over thousands of prefilled tokens) and lose when prompts are
// short (the handoff drain + NIC transfer costs more than the prefill it
// saves, and a homogeneous fleet skips it entirely).

import (
	"fmt"

	"cllm/internal/dtype"
	"cllm/internal/par"
	"cllm/internal/serve"
	"cllm/internal/tee"
	"cllm/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "disagg",
		Title: "Disaggregated prefill/decode across the TEE boundary: $/Mtok vs homogeneous fleets (7B)",
		Paper: "Extension: the paper prices whole platforms against each other; a role-aware topology lets each serving stage rent the TEE it is efficient on — cGPU prefill + TDX decode beats every homogeneous fleet on long-prompt RAG $/Mtok at equal SLOs, and loses on short contexts where the KV-handoff tax dominates",
		Run:   runDisaggregated,
	})
}

// disaggCandidate is one fleet shape priced for a regime: a topology plus
// its total hourly rent (mixed fleets mix rental rates, so the fleet is
// priced as a whole).
type disaggCandidate struct {
	name      string
	topo      serve.Topology
	hourlyUSD float64
	mixed     bool // the disaggregated candidate under test
}

// disaggOutcome is one candidate's simulated result.
type disaggOutcome struct {
	cand    disaggCandidate
	rep     *serve.FleetReport
	sloMet  bool
	usdMTok float64
}

// unifiedN is an N-replica homogeneous fleet of the backend.
func unifiedN(be serve.Backend, n int) serve.Topology {
	return serve.Unified(be, serve.FleetConfig{Replicas: n, Policy: serve.RoundRobin})
}

// prefillDecode is the mixed topology: nPre cGPU prefill replicas feeding
// nDec TDX decode replicas over the priced KV-handoff edge.
func prefillDecode(nPre, nDec int) serve.Topology {
	return serve.Topology{Groups: []serve.RoleGroup{
		{Role: serve.RolePrefill, Backend: gpuServeBackend(tee.CGPU()), Replicas: nPre},
		{Role: serve.RoleDecode, Backend: chunkedBackend(tee.TDX()), Replicas: nDec},
	}}
}

// runDisaggCandidates simulates every candidate fleet against one offered
// load (in parallel under -workers; each run is independently seeded, so
// the merge order is deterministic).
func runDisaggCandidates(o Options, cands []disaggCandidate, cfg serve.Config) ([]disaggOutcome, error) {
	outs := make([]disaggOutcome, len(cands))
	err := par.For(o.Workers, len(cands), func(i int) error {
		fleet, err := serve.NewFleet(cands[i].topo)
		if err != nil {
			return err
		}
		rep, err := fleet.Run(cfg)
		if err != nil {
			return err
		}
		outs[i] = disaggOutcome{cand: cands[i], rep: rep, sloMet: rep.SLOAttainment() >= 1}
		if usd, err := rep.CostPerMTok(cands[i].hourlyUSD); err == nil {
			outs[i].usdMTok = usd
		}
		return nil
	})
	return outs, err
}

func runDisaggregated(o Options) (*Result, error) {
	res := &Result{ID: "disagg", Title: "Disaggregated prefill/decode vs homogeneous fleets (extension)",
		Header: []string{"regime", "fleet", "$/h", "SLO%", "TTFT p99(s)", "TPOT p99(s)", "goodput(tok/s)", "handoffs", "$/Mtok"}}

	model := mustModel("llama2-7b")
	// The run must be long enough that (a) the saturated single-cGPU
	// fleet's queue actually grows past the TTFT SLO and (b) the decode
	// tail after the last arrival amortizes, or makespan-based goodput
	// would punish the slow-decoding mixed fleet for the final batch. The
	// whole experiment is discrete-event and runs in well under a second,
	// so Quick mode gets the same fidelity.
	const requests = 768
	mkCfg := func(rate float64, inLen, outLen int) serve.Config {
		return serve.Config{
			Workload: trace.Workload{Model: model, Kind: dtype.BF16, InputLen: inLen, OutputLen: outLen},
			Rate:     rate,
			Requests: requests,
			Seed:     o.Seed,
			Knobs:    serve.Knobs{MaxBatch: 32, TTFTSLOSec: 1.0, TPOTSLOSec: 0.25},
		}
	}
	mkCands := func(specs []struct {
		name  string
		topo  serve.Topology
		mixed bool
	}) ([]disaggCandidate, error) {
		cands := make([]disaggCandidate, len(specs))
		for i, s := range specs {
			hourly, err := s.topo.HourlyUSD()
			if err != nil {
				return nil, err
			}
			cands[i] = disaggCandidate{name: s.name, topo: s.topo, hourlyUSD: hourly, mixed: s.mixed}
		}
		return cands, nil
	}

	type regime struct {
		name  string
		cfg   serve.Config
		cands []disaggCandidate
	}
	longCands, err := mkCands([]struct {
		name  string
		topo  serve.Topology
		mixed bool
	}{
		{"cgpu:1=prefill,tdx:16=decode", prefillDecode(1, 16), true},
		{"cgpu:1", unifiedN(gpuServeBackend(tee.CGPU()), 1), false},
		{"cgpu:2", unifiedN(gpuServeBackend(tee.CGPU()), 2), false},
		{"cgpu:3", unifiedN(gpuServeBackend(tee.CGPU()), 3), false},
		{"tdx:12", unifiedN(chunkedBackend(tee.TDX()), 12), false},
	})
	if err != nil {
		return nil, err
	}
	shortCands, err := mkCands([]struct {
		name  string
		topo  serve.Topology
		mixed bool
	}{
		{"cgpu:1=prefill,tdx:1=decode", prefillDecode(1, 1), true},
		{"tdx:2", unifiedN(chunkedBackend(tee.TDX()), 2), false},
	})
	if err != nil {
		return nil, err
	}
	regimes := []regime{
		// Long-prompt RAG: 3072-token documents, answer-length decode. A
		// single cGPU saturates on prefill compute at this rate; a CPU TEE
		// cannot prefill a document inside the TTFT SLO at any fleet size.
		{"long-rag", mkCfg(9, 3072, 128), longCands},
		// Short context: chat-like turns. Prefill is trivial everywhere,
		// so the mixed fleet's handoff drain + NIC transfer is pure tax.
		{"short-chat", mkCfg(8, 64, 32), shortCands},
	}

	outcomes := make(map[string][]disaggOutcome, len(regimes))
	for _, rg := range regimes {
		outs, err := runDisaggCandidates(o, rg.cands, rg.cfg)
		if err != nil {
			return nil, err
		}
		outcomes[rg.name] = outs
		for _, out := range outs {
			a := out.rep.Aggregate
			usd := "-"
			if out.sloMet {
				usd = fmt.Sprintf("%.2f", out.usdMTok)
			}
			res.Rows = append(res.Rows, []string{
				rg.name, out.cand.name,
				fmt.Sprintf("%.2f", out.cand.hourlyUSD),
				fmt.Sprintf("%.0f%%", out.rep.SLOAttainment()*100),
				fmt.Sprintf("%.3f", a.TTFT.P99),
				fmt.Sprintf("%.3f", a.TPOT.P99),
				fmt.Sprintf("%.1f", a.GoodputTokensPerSec),
				fmt.Sprintf("%d", a.HandoffsOut),
				usd,
			})
		}
	}

	long := outcomes["long-rag"]
	short := outcomes["short-chat"]
	mixedLong, mixedShort := long[0], short[0]

	// Long-prompt regime: the mixed fleet meets both SLOs and undercuts
	// every homogeneous fleet that also meets them; the CPU-only fleet
	// misses the TTFT SLO outright (document prefill is slower than the
	// deadline at any size), and a single cGPU saturates.
	cheapestHomog := ""
	worst := 0.0
	homogBeaten := true
	for _, out := range long[1:] {
		if !out.sloMet {
			continue
		}
		if cheapestHomog == "" || out.usdMTok < worst {
			cheapestHomog, worst = out.cand.name, out.usdMTok
		}
		if out.usdMTok <= mixedLong.usdMTok {
			homogBeaten = false
		}
	}
	res.Checks = append(res.Checks, Check{
		Name: "long-prompt RAG: mixed cGPU-prefill + TDX-decode meets both SLOs",
		Pass: mixedLong.sloMet,
		Detail: fmt.Sprintf("SLO attainment %.0f%%, TTFT p99 %.3fs, TPOT p99 %.3fs",
			mixedLong.rep.SLOAttainment()*100, mixedLong.rep.Aggregate.TTFT.P99, mixedLong.rep.Aggregate.TPOT.P99),
	}, Check{
		Name: "long-prompt RAG: mixed beats every SLO-compliant homogeneous fleet on $/Mtok",
		Pass: mixedLong.sloMet && cheapestHomog != "" && homogBeaten,
		Detail: fmt.Sprintf("mixed %.2f $/Mtok vs cheapest compliant homogeneous %s at %.2f",
			mixedLong.usdMTok, cheapestHomog, worst),
	})
	for _, out := range long[1:] {
		switch out.cand.name {
		case "cgpu:1":
			res.Checks = append(res.Checks, Check{
				Name:   "long-prompt RAG: a single cGPU saturates on prefill compute",
				Pass:   !out.sloMet,
				Detail: fmt.Sprintf("cgpu:1 SLO attainment %.0f%%", out.rep.SLOAttainment()*100),
			})
		case "tdx:12":
			res.Checks = append(res.Checks, Check{
				Name: "long-prompt RAG: CPU-only fleets miss the TTFT SLO at any size (document prefill outlasts the deadline)",
				Pass: !out.sloMet,
				Detail: fmt.Sprintf("tdx:12 TTFT p99 %.2fs against a %.0fs SLO",
					out.rep.Aggregate.TTFT.P99, 1.0),
			})
		}
	}

	// Short-context regime: the homogeneous CPU fleet wins — the handoff
	// (source drain through the cGPU's encrypted bounce buffer, the NIC
	// transfer, decode-side ingest) costs more than the trivial prefill it
	// offloads, and the mixed fleet still rents the cGPU.
	tdxShort := short[1]
	res.Checks = append(res.Checks, Check{
		Name: "short-context: homogeneous TDX beats the mixed fleet on $/Mtok (handoff tax dominates)",
		Pass: tdxShort.sloMet && mixedShort.sloMet && tdxShort.usdMTok < mixedShort.usdMTok,
		Detail: fmt.Sprintf("tdx:2 %.2f $/Mtok vs mixed %.2f at equal SLOs",
			tdxShort.usdMTok, mixedShort.usdMTok),
	})
	// The handoff ledger must conserve across both regimes: every launched
	// transfer is ingested (no staging-pool fallbacks at these sizes), one
	// per completed request.
	ledgerOK := true
	detail := ""
	for _, rg := range regimes {
		a := outcomes[rg.name][0].rep.Aggregate
		if a.HandoffsOut != a.Completed || a.HandoffsIn != a.HandoffsOut || a.HandoffFallbacks != 0 {
			ledgerOK = false
		}
		detail += fmt.Sprintf("%s: %d handoffs / %d ingested / %d fallbacks / %d completed; ",
			rg.name, a.HandoffsOut, a.HandoffsIn, a.HandoffFallbacks, a.Completed)
	}
	res.Checks = append(res.Checks, Check{
		Name:   "KV-handoff ledger conserves: launched == ingested == completed, no fallbacks",
		Pass:   ledgerOK,
		Detail: detail,
	})

	res.Notes = append(res.Notes,
		"Handoff pricing per request: drain the prefilled KV at the source's swap bandwidth (the cGPU pays its encrypted PCIe bounce buffer), then a NIC transfer (setup + bytes at the calibrated NIC rate), then decode-side ingest from the staging pool.",
		"Fleets are simulated (not extrapolated) and priced as a whole: mixed fleets sum per-platform rental rates, and only SLO-compliant tokens count toward $/Mtok.",
		fmt.Sprintf("SLOs: TTFT ≤ 1s, TPOT ≤ 0.25s/token; %d requests per fleet.", requests))
	return res, nil
}
