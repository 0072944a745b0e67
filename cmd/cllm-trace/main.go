// cllm-trace prints the operator-level workload trace of an inference
// configuration: per-layer FLOPs, weight/activation/KV traffic and
// arithmetic intensity — the quantities the performance model consumes and
// the paper's Fig 7 visualizes.
//
// Usage:
//
//	cllm-trace -model llama2-7b -dtype bf16 -batch 4 -input 128 -phase decode
package main

import (
	"flag"
	"fmt"
	"os"

	"cllm/internal/dtype"
	"cllm/internal/model"
	"cllm/internal/trace"
)

func main() {
	modelName := flag.String("model", "llama2-7b", "model name")
	dtypeName := flag.String("dtype", "bf16", "bf16|int8|f32")
	batch := flag.Int("batch", 1, "batch size")
	beam := flag.Int("beam", 1, "beam width")
	input := flag.Int("input", 1024, "input length (tokens)")
	output := flag.Int("output", 128, "output length (tokens)")
	phase := flag.String("phase", "decode", "decode|prefill")
	flag.Parse()

	cfg, err := model.Lookup(*modelName)
	if err != nil {
		fail(err)
	}
	kind, err := dtype.Parse(*dtypeName)
	if err != nil {
		fail(err)
	}
	wl := trace.Workload{Model: cfg, Kind: kind, Batch: *batch, Beam: *beam, InputLen: *input, OutputLen: *output}

	var st trace.StepTrace
	if *phase == "prefill" {
		st, err = trace.PrefillStep(wl)
	} else {
		st, err = trace.DecodeStep(wl, *input)
	}
	if err != nil {
		fail(err)
	}

	fmt.Printf("%s %s %s: batch=%d beam=%d ctx=%d (%d new tokens)\n",
		cfg.Name, kind, st.Phase, *batch, *beam, *input, st.NewTokens)
	fmt.Printf("weights: %.2f GB resident | KV/token: %.2f MB/seq | params: %.2fB\n\n",
		trace.WeightFootprint(wl)/1e9,
		float64(cfg.KVCacheBytesPerToken(kind.Size()))/1e6,
		float64(cfg.ParamCount())/1e9)

	// Aggregate per operator kind (one decoder block) plus embedding/head.
	type agg struct {
		flops, weights, act, kv float64
		n                       int
	}
	sums := map[trace.OpKind]*agg{}
	order := []trace.OpKind{
		trace.OpEmbedding, trace.OpInputNorm, trace.OpSelfAttn, trace.OpMHALinearAdd,
		trace.OpPostNorm, trace.OpLinearSiluMul, trace.OpMLPLinearAdd, trace.OpFinalNormHead,
	}
	for _, op := range st.Ops() {
		a, ok := sums[op.Kind]
		if !ok {
			a = &agg{}
			sums[op.Kind] = a
		}
		a.flops += op.FLOPs
		a.weights += op.WeightBytes
		a.act += op.ActBytes
		a.kv += op.KVBytes
		a.n++
	}
	fmt.Printf("%-26s %6s %12s %12s %12s %12s %8s\n",
		"operator", "count", "GFLOPs", "weights(MB)", "acts(MB)", "KV(MB)", "AI")
	for _, k := range order {
		a, ok := sums[k]
		if !ok {
			continue
		}
		bytes := a.weights + a.act + a.kv
		ai := 0.0
		if bytes > 0 {
			ai = a.flops / bytes
		}
		fmt.Printf("%-26s %6d %12.2f %12.1f %12.1f %12.1f %8.1f\n",
			k, a.n, a.flops/1e9, a.weights/1e6, a.act/1e6, a.kv/1e6, ai)
	}
	fmt.Printf("\nstep totals: %.2f GFLOPs, %.2f GB moved, AI %.1f flops/byte\n",
		st.TotalFLOPs()/1e9, st.TotalBytes()/1e9, st.TotalFLOPs()/st.TotalBytes())
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "cllm-trace:", err)
	os.Exit(1)
}
