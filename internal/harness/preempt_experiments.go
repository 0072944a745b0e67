package harness

// Preemption-policy experiment: swap-to-host versus vLLM-style recompute,
// priced per TEE backend. The paper's characterization decides the winner:
// CPU TEEs swap at near-native memcpy speed (the inline encryption engine
// costs a few percent) but re-prefill slowly, so parking a long context is
// far cheaper than recomputing it; cGPU recomputes on fast tensor cores but
// swaps through the AES-GCM bounce buffer at ~12% of PCIe, so short
// contexts are cheaper to recompute than to round-trip over the host link.

import (
	"fmt"

	"cllm/internal/dtype"
	"cllm/internal/gramine"
	"cllm/internal/serve"
	"cllm/internal/tee"
	"cllm/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "preempt",
		Title: "Preemption policy: swap-to-host vs recompute per TEE backend (7B)",
		Paper: "Extension: swap wins on CPU TEEs and long contexts (memcpy beats slow prefill), recompute wins on cGPU short contexts (bounce-buffer bandwidth dominates); auto picks per preemption",
		Run:   runPreemptPolicies,
	})
}

// preemptPolicies is the sweep order; indexes are shared by both backends.
var preemptPolicies = []serve.PreemptPolicy{serve.PreemptRecompute, serve.PreemptSwap, serve.PreemptAuto}

func runPreemptPolicies(o Options) (*Result, error) {
	res := &Result{ID: "preempt", Title: "Swap-to-host vs recompute preemption per TEE backend (extension)",
		Header: []string{"platform", "policy", "TTFT p50(s)", "TTFT p99(s)", "TPOT p99(s)", "goodput(tok/s)", "preempt", "swaps(out/in)", "tokens"}}

	m := mustModel("llama2-7b")
	wl := trace.Workload{Model: m, Kind: dtype.BF16}
	weights := int64(trace.WeightFootprint(wl))
	perToken := m.KVCacheBytesPerToken(2)

	// CPU-TEE side: an enclave-bounded SGX deployment serving long-context
	// RAG-style requests — the KV pool holds ~6k tokens, so a batch of
	// 1024-token prompts with long answers preempts constantly, and every
	// recompute re-prefills a >1k context on slow CPU prefill.
	sgx, err := tee.SGX(gramine.DefaultManifest("/models/llama2.bin", weights+6144*perToken, 64))
	if err != nil {
		return nil, err
	}
	sgxCfg := serve.Config{
		Workload: wl, Trace: evenTrace(24, 0.05, 1024, 256), Seed: o.Seed,
		Knobs: serve.Knobs{MaxBatch: 8, TTFTSLOSec: 120, TPOTSLOSec: 2},
	}

	// cGPU side: a memory-constrained confidential-GPU partition (MIG-style
	// slice: weights plus ~240 tokens of KV) serving short chat requests —
	// preemptions are frequent but each victim's context is ~130 tokens,
	// recomputed in milliseconds on tensor cores while a swap round-trips
	// the encrypted bounce buffer.
	cgpuBE := h100(tee.CGPU())
	cgpuBE.GPU.GPU.HBMBytes = weights + 240*perToken
	cgpuCfg := serve.Config{
		Workload: wl, Trace: evenTrace(24, 0.01, 96, 32), Seed: o.Seed,
		Knobs: serve.Knobs{MaxBatch: 8, TTFTSLOSec: 30, TPOTSLOSec: 2},
	}

	type side struct {
		name string
		be   serve.Backend
		cfg  serve.Config
	}
	sides := []side{{"SGX", emr1(sgx), sgxCfg}, {"cGPU", cgpuBE, cgpuCfg}}
	// Share one costing table per backend across its three policy runs.
	for i := range sides {
		if sides[i].be, err = costed(sides[i].be, sides[i].cfg); err != nil {
			return nil, err
		}
	}
	cells, err := sweep(o, len(sides)*len(preemptPolicies), func(i int) (*serve.Report, error) {
		sd := sides[i/len(preemptPolicies)]
		sd.cfg.PreemptPolicy = preemptPolicies[i%len(preemptPolicies)]
		return serve.Run(sd.be, sd.cfg)
	})
	if err != nil {
		return nil, err
	}
	// reports[side][policy]
	reports := [][]*serve.Report{cells[:len(preemptPolicies)], cells[len(preemptPolicies):]}

	for si, sd := range sides {
		for pi, pol := range preemptPolicies {
			rep := reports[si][pi]
			res.Rows = append(res.Rows, []string{
				sd.name, pol.String(),
				fmt.Sprintf("%.3f", rep.TTFT.P50), fmt.Sprintf("%.3f", rep.TTFT.P99),
				fmt.Sprintf("%.4f", rep.TPOT.P99),
				fmt.Sprintf("%.1f", rep.GoodputTokensPerSec),
				fmt.Sprintf("%d", rep.Preemptions),
				fmt.Sprintf("%d/%d", rep.SwapOuts, rep.SwapIns),
				fmt.Sprintf("%d", rep.TotalTokens),
			})
		}
	}

	const rec, swp, auto = 0, 1, 2
	sgxR, cgpuR := reports[0], reports[1]

	// Both sides must actually exercise the mechanism under test.
	res.Checks = append(res.Checks, Check{
		Name: "both backends preempt under KV pressure",
		Pass: sgxR[rec].Preemptions > 0 && cgpuR[rec].Preemptions > 0 &&
			sgxR[swp].SwapOuts > 0 && cgpuR[swp].SwapOuts > 0,
		Detail: fmt.Sprintf("SGX %d preemptions (%d swaps), cGPU %d preemptions (%d swaps)",
			sgxR[rec].Preemptions, sgxR[swp].SwapOuts, cgpuR[rec].Preemptions, cgpuR[swp].SwapOuts),
	})

	// Headline shape 1: on the CPU TEE with long contexts, swap strictly
	// beats recompute on p99 TTFT at equal load.
	res.Checks = append(res.Checks, Check{
		Name: "swap beats recompute on CPU-TEE long contexts (p99 TTFT)",
		Pass: sgxR[swp].TTFT.P99 < sgxR[rec].TTFT.P99,
		Detail: fmt.Sprintf("SGX swap %.3fs vs recompute %.3fs",
			sgxR[swp].TTFT.P99, sgxR[rec].TTFT.P99),
	})

	// Headline shape 2: on cGPU short contexts, recompute is no worse than
	// swap — the bounce buffer makes the KV round-trip the expensive path.
	res.Checks = append(res.Checks, Check{
		Name: "recompute no worse than swap on cGPU short contexts (p99 TTFT)",
		Pass: cgpuR[rec].TTFT.P99 <= cgpuR[swp].TTFT.P99,
		Detail: fmt.Sprintf("cGPU recompute %.3fs vs swap %.3fs",
			cgpuR[rec].TTFT.P99, cgpuR[swp].TTFT.P99),
	})

	// Auto lands on the right side of the trade on both backends: it swaps
	// on the CPU TEE and keeps pace with the better policy everywhere.
	res.Checks = append(res.Checks, Check{
		Name: "auto swaps on the CPU TEE and recomputes on cGPU",
		Pass: sgxR[auto].SwapOuts > 0 && cgpuR[auto].SwapOuts == 0,
		Detail: fmt.Sprintf("SGX auto %d swap-outs, cGPU auto %d",
			sgxR[auto].SwapOuts, cgpuR[auto].SwapOuts),
	}, Check{
		Name: "auto p99 TTFT within 5% of the better fixed policy on both backends",
		Pass: sgxR[auto].TTFT.P99 <= min(sgxR[rec].TTFT.P99, sgxR[swp].TTFT.P99)*1.05 &&
			cgpuR[auto].TTFT.P99 <= min(cgpuR[rec].TTFT.P99, cgpuR[swp].TTFT.P99)*1.05,
		Detail: fmt.Sprintf("SGX auto %.3fs (best %.3fs), cGPU auto %.3fs (best %.3fs)",
			sgxR[auto].TTFT.P99, min(sgxR[rec].TTFT.P99, sgxR[swp].TTFT.P99),
			cgpuR[auto].TTFT.P99, min(cgpuR[rec].TTFT.P99, cgpuR[swp].TTFT.P99)),
	})

	// The policy changes when tokens arrive, never what is produced.
	tokensEqual := true
	for _, side := range reports {
		if side[swp].TotalTokens != side[rec].TotalTokens || side[auto].TotalTokens != side[rec].TotalTokens {
			tokensEqual = false
		}
	}
	res.Checks = append(res.Checks, Check{
		Name: "all policies serve the identical token totals at equal load",
		Pass: tokensEqual,
		Detail: fmt.Sprintf("SGX %d/%d/%d, cGPU %d/%d/%d tokens (recompute/swap/auto)",
			sgxR[rec].TotalTokens, sgxR[swp].TotalTokens, sgxR[auto].TotalTokens,
			cgpuR[rec].TotalTokens, cgpuR[swp].TotalTokens, cgpuR[auto].TotalTokens),
	})

	res.Notes = append(res.Notes,
		"Swap transfers are priced mechanistically: cGPU rounds KV through the AES-GCM bounce buffer (PCIe × 0.12), CPU TEEs memcpy behind the inline encryption engine (hw.HostSwapBytesPerSec × MemBWFactor); recompute re-prefills the victim's whole context through the roofline.",
		"The cGPU deployment is a MIG-style memory slice (weights + ~240 KV tokens) so short-context preemption pressure exists at all; the SGX enclave caps the pool at ~6k tokens against 1024-token prompts.",
		"auto decides per preemption from the shared memoized coster: 2×transfer(computed tokens) vs re-prefill(context) — bit-identical across runs and worker counts.")
	return res, nil
}
