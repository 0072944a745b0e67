package rag

import (
	"fmt"

	"cllm/internal/dtype"
	"cllm/internal/hw"
	"cllm/internal/mem"
	"cllm/internal/perf"
	"cllm/internal/tee"
)

// Timing models the per-query latency of the RAG systems on a CPU platform,
// using the same mechanisms as LLM inference: a roofline for encoder
// compute, index-scan memory traffic with TLB effects, and a service-path
// factor for the Elasticsearch request cycle (syscalls, virtio, LUKS under
// TDX) that TEEs inflate.
type Timing struct {
	CPU      hw.CPU
	Platform tee.Platform
	// Cores used for query processing (Elasticsearch + model runtime).
	Cores int
	// Seed for the noise model.
	Seed int64
}

// Work constants: calibrated to Fig 14's absolute scales (BM25 ≈ 8 ms,
// reranked BM25 ≈ 1.5-2 s over 50 candidates, sbert ≈ 3-4 ms per query).
const (
	// ESRequestFixedSec is the Elasticsearch request/response cycle
	// (HTTP parse, coordination, fetch phase).
	ESRequestFixedSec = 5.5e-3
	// PostingBytes is the index traffic per scanned posting (docID delta,
	// frequency, skip data, norms).
	PostingBytes = 96
	// CrossEncoderFlopsPerPair is one MiniLM-class rerank forward pass
	// (22M params × 2 FLOPs × ~256 tokens).
	CrossEncoderFlopsPerPair = 11.3e9
	// CrossEncoderBytesPerPair streams the encoder weights once per pair
	// batch-1 inference (22M params × 2 bytes, partially cached).
	CrossEncoderBytesPerPair = 30e6
	// SBERTQueryFlops is one sentence-encoder pass over a short query.
	SBERTQueryFlops = 1.4e9
	// SBERTFixedSec is the embedding-service request cycle.
	SBERTFixedSec = 2.2e-3
	// DenseCompareBytes is the per-document vector scan cost (384 × f32).
	DenseCompareBytes = 1536
	// RerankThreadFraction derates the cross-encoder to the few cores the
	// reranking service actually uses.
	RerankThreadFraction = 0.012
)

// QueryTime returns the modeled latency of one query with the given work.
func (t Timing) QueryTime(m Method, stats QueryStats) (float64, error) {
	cores := t.Cores
	if cores <= 0 || cores > t.CPU.CoresPerSocket {
		cores = t.CPU.CoresPerSocket
	}
	flopsRate := t.CPU.SocketFlops(dtype.BF16, true, cores)
	bw := t.CPU.MemBWPerSocket * t.Platform.MemBWFactor
	if cap := float64(cores) * 8e9; cap < bw {
		bw = cap
	}

	var fixed, flops, bytes float64
	switch m {
	case MethodBM25:
		fixed = ESRequestFixedSec
		bytes = float64(stats.PostingsScanned) * PostingBytes
		flops = float64(stats.PostingsScanned) * 12 // scoring arithmetic
	case MethodBM25Reranked:
		fixed = ESRequestFixedSec + 2e-3 // extra fetch round for candidates
		bytes = float64(stats.PostingsScanned)*PostingBytes +
			float64(stats.DocsReranked)*CrossEncoderBytesPerPair
		flops = float64(stats.DocsReranked) * CrossEncoderFlopsPerPair / RerankThreadFraction
	case MethodSBERT:
		fixed = SBERTFixedSec
		bytes = float64(stats.DenseCompared) * DenseCompareBytes
		flops = SBERTQueryFlops
	default:
		return 0, fmt.Errorf("rag: unknown method %v", m)
	}

	// TLB pressure on the scanned index / streamed weights.
	ws := bytes
	tlb := mem.TLBPenalty(ws, t.Platform.Pages, t.CPU.DTLBEntries, t.Platform.PageWalkAmp)
	memT := bytes / bw * (1 + tlb)
	compT := flops / flopsRate
	total := fixed + memT + compT

	// Service-path inflation: request handling crosses the syscall/virtio/
	// LUKS stack, which virtualization taxes and memory encryption slow.
	ioFactor := 1 + t.Platform.ComputeTax*0.7 + (1-t.Platform.MemBWFactor)*1.5
	total *= ioFactor
	// Enclave exits dominate SGX's service path instead.
	total += t.Platform.ExitCostSec * t.Platform.ExitsPerToken * 20
	return total, nil
}

// MeanQueryTime evaluates the pipeline over the corpus and returns the mean
// modeled per-query latency with noise, plus the achieved nDCG@10.
func (t Timing) MeanQueryTime(p *Pipeline, c *Corpus, m Method) (meanSec, ndcg float64, err error) {
	ndcg, agg, err := p.Evaluate(c, m)
	if err != nil {
		return 0, 0, err
	}
	n := len(c.Queries)
	per := QueryStats{
		PostingsScanned: agg.PostingsScanned / n,
		DocsReranked:    agg.DocsReranked / n,
		DenseCompared:   agg.DenseCompared / n,
	}
	base, err := t.QueryTime(m, per)
	if err != nil {
		return 0, 0, err
	}
	noise := perf.NewNoise(false, t.Seed)
	var sum float64
	for i := 0; i < n; i++ {
		sum += noise.Sample(base, t.Platform.Protected)
	}
	return sum / float64(n), ndcg, nil
}
