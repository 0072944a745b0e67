package cllm

import (
	"fmt"

	"cllm/internal/backend"
	"cllm/internal/cloud"
	"cllm/internal/model"
	"cllm/internal/perf"
	"cllm/internal/stats"
	"cllm/internal/trace"
)

// Workload describes an inference configuration to measure, mirroring the
// paper's experiment axes.
type Workload struct {
	// Model is a zoo name, e.g. "llama2-7b".
	Model string
	// DType is "bf16" (default), "int8" or "f32".
	DType string
	// Batch is the number of concurrent sequences (default 1).
	Batch int
	// Beam is the beam width (default 1).
	Beam int
	// InputLen and OutputLen are prompt/generation lengths in tokens
	// (defaults 1024 / 128).
	InputLen, OutputLen int
}

func (w Workload) normalize() Workload {
	if w.Model == "" {
		w.Model = "llama2-7b"
	}
	if w.Batch <= 0 {
		w.Batch = 1
	}
	if w.Beam <= 0 {
		w.Beam = 1
	}
	if w.InputLen <= 0 {
		w.InputLen = 1024
	}
	if w.OutputLen <= 0 {
		w.OutputLen = 128
	}
	return w
}

// MeasureOptions tunes the measured deployment.
type MeasureOptions struct {
	// Sockets used (CPU platforms; default 1).
	Sockets int
	// Cores per socket (0 = all).
	Cores int
	// DisableAMX turns the tile units off (Fig 8's ablation).
	DisableAMX bool
	// Backend is the framework profile: IPEX (default), vLLM, HF, Llama.cpp.
	// A GPU session checks it but does not model it.
	Backend string
}

// Measurement reports modeled performance, following the paper's metrics.
type Measurement struct {
	// TokensPerSec is generation throughput including first-token latency.
	TokensPerSec float64
	// DecodeTokensPerSec is steady-state decode throughput.
	DecodeTokensPerSec float64
	// MeanTokenLatency is the Z>3-filtered mean next-token latency (s).
	MeanTokenLatency float64
	// P50TokenLatency is the median next-token latency (s).
	P50TokenLatency float64
	// PrefillSeconds is the prompt-processing (first token) time.
	PrefillSeconds float64
	// OutliersRemoved is the count of Z>3 samples excluded from the mean.
	OutliersRemoved int
}

// LatencyDistribution is the per-token latency distribution of a run — the
// data behind the paper's violin plots, with the Z>3 outliers reported
// separately as the paper does (§III-D).
type LatencyDistribution struct {
	// Samples are all per-token latencies in seconds, in generation order.
	Samples []float64
	// Mean/P25/P50/P75 are computed on the outlier-filtered samples.
	Mean, P25, P50, P75 float64
	// Outliers are the Z>3 samples excluded from the summary statistics.
	Outliers []float64
}

// run executes one generation of the workload on the session's platform —
// the single path behind Measure and MeasureDistribution. On a CPU the
// Backend option picks the framework's efficiency and AMX use; the GPU
// model has no framework axis.
func (s *Session) run(w Workload, opts MeasureOptions) (*perf.Result, error) {
	w = w.normalize()
	kind, err := parseDType(w.DType)
	if err != nil {
		return nil, err
	}
	cfg, err := model.Lookup(w.Model)
	if err != nil {
		return nil, err
	}
	wl := trace.Workload{Model: cfg, Kind: kind, Batch: w.Batch, Beam: w.Beam, InputLen: w.InputLen, OutputLen: w.OutputLen}
	eff := 1.0
	amx := !opts.DisableAMX
	if opts.Backend != "" {
		b, err := backend.Lookup(opts.Backend)
		if err != nil {
			return nil, err
		}
		if !b.Supports(kind) {
			return nil, fmt.Errorf("cllm: backend %s does not support %s", b.Name, kind)
		}
		eff = b.Efficiency
		amx = amx && b.UsesAMX
	}
	if s.isGPU {
		// The backend is checked on every platform, but the GPU model has
		// no framework-efficiency or AMX term to apply it to.
		return perf.RunGPU(perf.GPURun{GPU: s.gpu, Platform: s.platform, Workload: wl, Seed: s.cfg.Seed})
	}
	return perf.RunCPU(perf.CPURun{
		CPU: s.cpu, Platform: s.platform, Workload: wl,
		Sockets: opts.Sockets, CoresPerSocket: opts.Cores,
		AMX: amx, BackendEfficiency: eff, Seed: s.cfg.Seed,
	})
}

// MeasureDistribution runs the workload and returns the full latency
// distribution instead of summary scalars.
func (s *Session) MeasureDistribution(w Workload, opts MeasureOptions) (*LatencyDistribution, error) {
	res, err := s.run(w, opts)
	if err != nil {
		return nil, err
	}
	kept, _ := stats.FilterZScore(res.TokenLatencies, 3)
	dist := &LatencyDistribution{
		Samples: res.TokenLatencies,
		Mean:    stats.Mean(kept),
		P25:     stats.Percentile(kept, 25),
		P50:     stats.Percentile(kept, 50),
		P75:     stats.Percentile(kept, 75),
	}
	// kept is the samples' in-order subsequence, and equal values share a
	// Z-score, so no outlier equals a kept value: the samples that do not
	// match the next kept one are exactly the outliers.
	next := 0
	for _, v := range res.TokenLatencies {
		if next < len(kept) && v == kept[next] {
			next++
			continue
		}
		dist.Outliers = append(dist.Outliers, v)
	}
	return dist, nil
}

// Measure runs the mechanistic performance model for the workload on the
// session's platform.
func (s *Session) Measure(w Workload, opts MeasureOptions) (*Measurement, error) {
	res, err := s.run(w, opts)
	if err != nil {
		return nil, err
	}
	kept, removed := stats.FilterZScore(res.TokenLatencies, 3)
	return &Measurement{
		TokensPerSec:       res.Throughput(),
		DecodeTokensPerSec: res.DecodeThroughput(),
		MeanTokenLatency:   stats.Mean(kept),
		P50TokenLatency:    stats.Percentile(res.TokenLatencies, 50),
		PrefillSeconds:     res.PrefillSec,
		OutliersRemoved:    removed,
	}, nil
}

// CostEstimate prices a measured workload.
type CostEstimate struct {
	// HourlyUSD is the instance rental price.
	HourlyUSD float64
	// USDPerMTok is dollars per million generated tokens.
	USDPerMTok float64
}

// EstimateCost prices the workload on this session's platform: CPU sessions
// rent vcpus + 128 GiB at GCP-style spot prices; GPU sessions rent the
// confidential H100 instance (Figs 12-13).
func (s *Session) EstimateCost(w Workload, opts MeasureOptions, vcpus int) (*CostEstimate, error) {
	m, err := s.Measure(w, MeasureOptions{Sockets: opts.Sockets, Cores: vcpus, DisableAMX: opts.DisableAMX, Backend: opts.Backend})
	if err != nil {
		return nil, err
	}
	prices := cloud.DefaultPrices()
	if s.isGPU {
		c, err := prices.CGPUCostPerMTokens(m.TokensPerSec)
		if err != nil {
			return nil, err
		}
		return &CostEstimate{HourlyUSD: prices.CGPUHour, USDPerMTok: c}, nil
	}
	if vcpus <= 0 {
		vcpus = s.cpu.CoresPerSocket
	}
	hourly, err := prices.HourlyCost(cloud.CPUInstance{VCPUs: vcpus, MemGiB: 128})
	if err != nil {
		return nil, err
	}
	c, err := prices.CPUCostPerMTokens(vcpus, m.TokensPerSec)
	if err != nil {
		return nil, err
	}
	return &CostEstimate{HourlyUSD: hourly, USDPerMTok: c}, nil
}
