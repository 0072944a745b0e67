package harness

// Serving-extension experiments: chunked prefill, prefix-cache sharing and
// load-balanced fleets. These go beyond the paper's single-request
// measurements, but each one asks the paper's question — where does the
// TEE overhead land — under a production serving technique that shifts
// work across the compute-bound prefill / memory-bound decode boundary.

import (
	"fmt"

	"cllm/internal/dtype"
	"cllm/internal/gramine"
	"cllm/internal/hw"
	"cllm/internal/perf"
	"cllm/internal/serve"
	"cllm/internal/tee"
	"cllm/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "chunked",
		Title: "Chunked prefill: TPOT tail vs TTFT at equal load (7B, TDX)",
		Paper: "Extension: monolithic prefills stall in-flight decodes (tail TPOT); chunking bounds the stall at the cost of TTFT — the tradeoff lands on the paper's compute/memory overhead split",
		Run:   runChunkedPrefill,
	})
	register(Experiment{
		ID:    "prefix",
		Title: "Prefix-cache sharing on a RAG burst: goodput gain per platform (7B)",
		Paper: "Extension: shared-prefix reuse saves compute everywhere but memory only where it is scarce — the gain is largest on an EPC-bounded SGX enclave",
		Run:   runPrefixCache,
	})
	register(Experiment{
		ID:    "fleet",
		Title: "Load-balanced fleets: prefix-affinity vs round-robin vs least-loaded (7B, TDX ×4)",
		Paper: "Extension: simulated (not extrapolated) fleet serving — cache-aware dispatch concentrates prefix reuse, cutting median TTFT at equal goodput",
		Run:   runFleet,
	})
}

// chunkedBackend is the CPU deployment the chunked/fleet experiments use.
func chunkedBackend(p tee.Platform) serve.Backend {
	return serve.Backend{CPU: perf.CPURun{CPU: hw.EMR1(), Platform: p, Sockets: 1, AMX: true}}
}

func runChunkedPrefill(o Options) (*Result, error) {
	res := &Result{ID: "chunked", Title: "Chunked prefill vs monolithic at equal load (extension)",
		Header: []string{"chunk(tok)", "TPOT p99(s)", "TPOT mean(s)", "TTFT p50(s)", "TTFT p99(s)", "SLO%", "completed"}}

	outLen := o.tokens(32)
	chunkSizes := []int{0, 128, 256}
	var tpotP99, ttftP50 []float64
	for _, chunk := range chunkSizes {
		rep, err := serve.Run(chunkedBackend(tee.TDX()), serve.Config{
			Workload: trace.Workload{Model: mustModel("llama2-7b"), Kind: dtype.BF16, InputLen: 1024, OutputLen: outLen},
			Rate:     0.35,
			Requests: 24,
			Seed:     o.Seed,
			Knobs:    serve.Knobs{MaxBatch: 16, ChunkTokens: chunk},
		})
		if err != nil {
			return nil, err
		}
		tpotP99 = append(tpotP99, rep.TPOT.P99)
		ttftP50 = append(ttftP50, rep.TTFT.P50)
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", chunk),
			fmt.Sprintf("%.4f", rep.TPOT.P99), fmt.Sprintf("%.4f", rep.TPOT.Mean),
			fmt.Sprintf("%.3f", rep.TTFT.P50), fmt.Sprintf("%.3f", rep.TTFT.P99),
			fmt.Sprintf("%.0f%%", rep.SLOAttainment()*100),
			fmt.Sprintf("%d", rep.Completed),
		})
	}

	// The headline tradeoff: a bounded chunk interleaves decode steps with
	// prefill, so the decode cadence never stalls behind a 1024-token
	// prompt pass — tail TPOT drops; spreading the prompt over several
	// hybrid iterations raises TTFT.
	res.Checks = append(res.Checks, Check{
		Name: "chunked prefill cuts p99 TPOT vs monolithic at equal load",
		Pass: tpotP99[1] < tpotP99[0],
		Detail: fmt.Sprintf("chunk %d: %.4fs vs monolithic %.4fs",
			chunkSizes[1], tpotP99[1], tpotP99[0]),
	}, Check{
		Name: "chunked prefill pays with higher median TTFT",
		Pass: ttftP50[1] > ttftP50[0],
		Detail: fmt.Sprintf("chunk %d: %.3fs vs monolithic %.3fs",
			chunkSizes[1], ttftP50[1], ttftP50[0]),
	})
	res.Notes = append(res.Notes,
		"Monolithic prefills run as dedicated iterations (decodes stall behind them); chunked iterations are hybrid: one chunk-budget of prompt tokens plus one decode step per round.",
		"Chunk costing uses trace.PrefillChunkStep: attention grows with the cached history while projections scale with the chunk, so late chunks are more memory-bound than early ones.")
	return res, nil
}

// ragBurstTrace is the shared-prefix workload of the prefix experiment: a
// fan-out burst where every request carries one of two 832-token document
// prefixes ahead of a distinct question, then generates a long answer
// (decode-heavy, so KV residency — not prefill — is the scarce resource).
func ragBurstTrace(n, outLen int) []serve.Request {
	tr := make([]serve.Request, n)
	for i := range tr {
		tr[i] = serve.Request{
			ID: i, ArrivalSec: float64(i) * 0.05,
			InputLen: 1024, OutputLen: outLen,
			PrefixID: i%2 + 1, PrefixLen: 832,
		}
	}
	return tr
}

func runPrefixCache(o Options) (*Result, error) {
	res := &Result{ID: "prefix", Title: "Prefix-cache sharing gain per platform on a RAG burst (extension)",
		Header: []string{"platform", "share", "goodput(tok/s)", "tput(tok/s)", "SLO%", "preempt", "hit(tok)", "TTFT p99(s)"}}

	// The SGX deployment is deliberately enclave-bounded: weights (~13.5 GB
	// at bf16) plus a ~2.5 GB KV budget. Sharing then decides whether the
	// batch fits the enclave; on TDX/baremetal (256 GB DRAM) it only saves
	// prefill compute. Output length stays decode-heavy regardless of
	// -quick: the workload shape is the experiment, and simulated decode
	// steps are cheap.
	sgx, err := tee.SGX(gramine.DefaultManifest("/models/llama2.bin", 16<<30, 64))
	if err != nil {
		return nil, err
	}
	plats := []tee.Platform{tee.Baremetal(), tee.TDX(), sgx}
	outLen := 256
	tr := ragBurstTrace(24, outLen)

	gains := make([]float64, len(plats))
	var sgxNoSharePreempt, sgxSharePreempt int
	for pi, p := range plats {
		var goodput [2]float64
		for si, share := range []bool{false, true} {
			rep, err := serve.Run(chunkedBackend(p), serve.Config{
				Workload: trace.Workload{Model: mustModel("llama2-7b"), Kind: dtype.BF16},
				Trace:    tr,
				Seed:     o.Seed,
				Knobs:    serve.Knobs{MaxBatch: 8, PrefixSharing: share, TTFTSLOSec: 60, TPOTSLOSec: 1.0},
			})
			if err != nil {
				return nil, err
			}
			goodput[si] = rep.GoodputTokensPerSec
			if p.Name == "SGX" {
				if share {
					sgxSharePreempt = rep.Preemptions
				} else {
					sgxNoSharePreempt = rep.Preemptions
				}
			}
			res.Rows = append(res.Rows, []string{
				p.Name, fmt.Sprintf("%v", share),
				fmt.Sprintf("%.1f", rep.GoodputTokensPerSec), fmt.Sprintf("%.1f", rep.TokensPerSec),
				fmt.Sprintf("%.0f%%", rep.SLOAttainment()*100),
				fmt.Sprintf("%d", rep.Preemptions),
				fmt.Sprintf("%d", rep.PrefixCacheHitTokens),
				fmt.Sprintf("%.1f", rep.TTFT.P99),
			})
		}
		if goodput[0] > 0 {
			gains[pi] = goodput[1] / goodput[0]
		}
	}

	const bm, tdx, sgxI = 0, 1, 2
	for pi, p := range plats {
		res.Checks = append(res.Checks, Check{
			Name:   "prefix sharing raises goodput (" + p.Name + ")",
			Pass:   gains[pi] > 1.2,
			Detail: fmt.Sprintf("share/no-share goodput ratio %.2f", gains[pi]),
		})
	}
	res.Checks = append(res.Checks, Check{
		Name: "sharing gain largest on memory-starved SGX",
		Pass: gains[sgxI] > gains[tdx] && gains[sgxI] > gains[bm],
		Detail: fmt.Sprintf("SGX %.2f vs TDX %.2f vs baremetal %.2f",
			gains[sgxI], gains[tdx], gains[bm]),
	}, Check{
		Name: "sharing relieves SGX KV pressure (fewer preemptions)",
		Pass: sgxSharePreempt < sgxNoSharePreempt || (sgxSharePreempt == 0 && sgxNoSharePreempt == 0),
		Detail: fmt.Sprintf("SGX preemptions %d without sharing, %d with",
			sgxNoSharePreempt, sgxSharePreempt),
	})
	res.Notes = append(res.Notes,
		"Sharing deduplicates both KV residency (fewer blocks) and the TLB/EPC working set (shared pages are mapped once however many rows stream them), so the enclave-bounded SGX deployment regains full batch depth.",
		"On TDX and baremetal the pool is never the binding constraint; the gain is the skipped prefix prefill only.")
	return res, nil
}

func runFleet(o Options) (*Result, error) {
	res := &Result{ID: "fleet", Title: "Fleet dispatch policies with prefix sharing (extension)",
		Header: []string{"policy", "goodput(tok/s)", "SLO%", "TTFT p50(s)", "TTFT p99(s)", "hit(tok)", "dispatch"}}

	cfg := serve.Config{
		Workload: trace.Workload{Model: mustModel("llama2-7b"), Kind: dtype.BF16, InputLen: 1024, OutputLen: o.tokens(32)},
		Rate:     3,
		Requests: 48,
		Seed:     o.Seed,
		Knobs: serve.Knobs{
			MaxBatch: 16, ChunkTokens: 256,
			PrefixSharing: true, PrefixGroups: 16, PrefixFrac: 0.75,
			TTFTSLOSec: 4, TPOTSLOSec: 0.5,
		},
	}
	policies := []serve.LBPolicy{serve.RoundRobin, serve.LeastLoaded, serve.PrefixAffinity}
	// The policy runs are independent simulations over one backend:
	// evaluate them on the worker pool sharing one costing table, merge in
	// policy order.
	be := chunkedBackend(tee.TDX())
	coster, err := serve.NewStepCoster(be, cfg)
	if err != nil {
		return nil, err
	}
	be.Coster = coster
	frs := make([]*serve.FleetReport, len(policies))
	err = parallelFor(o.workers(), len(policies), func(i int) error {
		fr, err := serve.RunFleet(be, cfg, serve.FleetConfig{Replicas: 4, Policy: policies[i]})
		if err != nil {
			return err
		}
		frs[i] = fr
		return nil
	})
	if err != nil {
		return nil, err
	}
	goodputs := make([]float64, len(policies))
	hits := make([]int, len(policies))
	ttftP50 := make([]float64, len(policies))
	for i, pol := range policies {
		fr := frs[i]
		agg := fr.Aggregate
		goodputs[i] = agg.GoodputTokensPerSec
		hits[i] = agg.PrefixCacheHitTokens
		ttftP50[i] = agg.TTFT.P50
		res.Rows = append(res.Rows, []string{
			pol.String(),
			fmt.Sprintf("%.1f", agg.GoodputTokensPerSec),
			fmt.Sprintf("%.0f%%", fr.SLOAttainment()*100),
			fmt.Sprintf("%.2f", agg.TTFT.P50), fmt.Sprintf("%.2f", agg.TTFT.P99),
			fmt.Sprintf("%d", agg.PrefixCacheHitTokens),
			fmt.Sprintf("%v", fr.Dispatch),
		})
	}

	const rr, ll, pa = 0, 1, 2
	_ = ll
	res.Checks = append(res.Checks, Check{
		Name:   "prefix-affinity concentrates cache hits vs round-robin",
		Pass:   float64(hits[pa]) > 1.5*float64(hits[rr]),
		Detail: fmt.Sprintf("affinity %d hit tokens vs round-robin %d", hits[pa], hits[rr]),
	}, Check{
		Name:   "prefix-affinity cuts median TTFT vs round-robin",
		Pass:   ttftP50[pa] < ttftP50[rr],
		Detail: fmt.Sprintf("affinity %.2fs vs round-robin %.2fs", ttftP50[pa], ttftP50[rr]),
	}, Check{
		Name:   "prefix-affinity goodput at least matches round-robin",
		Pass:   goodputs[pa] >= 0.97*goodputs[rr],
		Detail: fmt.Sprintf("affinity %.1f tok/s vs round-robin %.1f", goodputs[pa], goodputs[rr]),
	})

	// Fleet sizing by simulation: a fleet whose simulated attainment reaches
	// 95% at the offered rate, replica interference included (the search
	// assumes attainment monotone in size; see SizeFleetForSLO).
	n, sized, err := serve.SizeFleetForSLO(be, cfg, serve.PrefixAffinity, 0.95, 8)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, []string{
		fmt.Sprintf("sized@95%%: %d replicas", n),
		fmt.Sprintf("%.1f", sized.Aggregate.GoodputTokensPerSec),
		fmt.Sprintf("%.0f%%", sized.SLOAttainment()*100),
		fmt.Sprintf("%.2f", sized.Aggregate.TTFT.P50), fmt.Sprintf("%.2f", sized.Aggregate.TTFT.P99),
		fmt.Sprintf("%d", sized.Aggregate.PrefixCacheHitTokens),
		fmt.Sprintf("%v", sized.Dispatch),
	})
	res.Checks = append(res.Checks, Check{
		Name:   "simulated fleet sizing reaches the attainment target",
		Pass:   n >= 1 && n <= 8 && sized.SLOAttainment() >= 0.95,
		Detail: fmt.Sprintf("%d replicas reach %.0f%% attainment at %.1f req/s", n, sized.SLOAttainment()*100, cfg.Rate),
	})
	res.Notes = append(res.Notes,
		"All replicas share one simulated clock; the balancer dispatches each arrival at arrival time (round-robin, least-loaded, or prefix-affinity with a load guard against hash skew).",
		"Fleet sizing is simulated end to end — compare cloud.ReplicasForRate, which extrapolates from a single replica's SLO-compliant rate.")
	return res, nil
}
