// Package model implements a Llama-family dense transformer: configuration
// zoo with the real architectural dimensions of the models the paper
// evaluates, deterministic synthetic weights, a forward pass with KV cache
// and grouped-query attention, and greedy/beam-search decoding.
//
// Models are instantiated at reduced hidden sizes for functional tests and
// examples; the full-size configurations feed the analytical workload trace
// (internal/trace) used by the performance model.
package model

import (
	"fmt"
	"maps"
	"sort"
)

// Config describes a dense decoder-only transformer architecture.
type Config struct {
	// Name is the model identifier, e.g. "llama2-7b".
	Name string
	// HiddenDim is the model (embedding) dimension.
	HiddenDim int
	// Layers is the number of decoder blocks.
	Layers int
	// Heads is the number of attention (query) heads.
	Heads int
	// KVHeads is the number of key/value heads; Heads for MHA, fewer for GQA.
	KVHeads int
	// FFDim is the MLP intermediate dimension.
	FFDim int
	// VocabSize is the tokenizer vocabulary size.
	VocabSize int
	// ContextLen is the maximum supported sequence length.
	ContextLen int
	// NormEps is the RMSNorm epsilon.
	NormEps float32
	// RopeTheta is the rotary embedding base frequency.
	RopeTheta float64
}

// HeadDim returns the per-head dimension.
func (c Config) HeadDim() int { return c.HiddenDim / c.Heads }

// KVDim returns the total key/value projection width.
func (c Config) KVDim() int { return c.KVHeads * c.HeadDim() }

// Validate reports configuration inconsistencies.
func (c Config) Validate() error {
	switch {
	case c.HiddenDim <= 0 || c.Layers <= 0 || c.Heads <= 0 || c.KVHeads <= 0:
		return fmt.Errorf("model %s: non-positive dimension", c.Name)
	case c.HiddenDim%c.Heads != 0:
		return fmt.Errorf("model %s: hidden %d not divisible by %d heads", c.Name, c.HiddenDim, c.Heads)
	case c.Heads%c.KVHeads != 0:
		return fmt.Errorf("model %s: %d heads not divisible by %d KV heads", c.Name, c.Heads, c.KVHeads)
	case c.HeadDim()%2 != 0:
		return fmt.Errorf("model %s: head dim %d must be even for RoPE", c.Name, c.HeadDim())
	case c.FFDim <= 0 || c.VocabSize <= 0 || c.ContextLen <= 0:
		return fmt.Errorf("model %s: non-positive FF/vocab/context", c.Name)
	}
	return nil
}

// ParamCount returns the total number of weights (embeddings + blocks + head).
func (c Config) ParamCount() int64 {
	h, f, v := int64(c.HiddenDim), int64(c.FFDim), int64(c.VocabSize)
	kv := int64(c.KVDim())
	perLayer := h*h + // Wq
		2*h*kv + // Wk, Wv
		h*h + // Wo
		3*h*f + // W1 (gate), W3 (up), W2 (down)
		2*h // two RMSNorm gains
	return v*h + // token embeddings
		int64(c.Layers)*perLayer +
		h + // final norm
		h*v // LM head
}

// WeightBytes returns the resident size of the weights at the given element
// size (e.g. 2 for bf16, 1 for int8).
func (c Config) WeightBytes(elemSize int) int64 {
	return c.ParamCount() * int64(elemSize)
}

// KVCacheBytesPerToken returns the KV cache growth per generated token per
// sequence: 2 (K and V) × layers × KV width × element size.
func (c Config) KVCacheBytesPerToken(elemSize int) int64 {
	return 2 * int64(c.Layers) * int64(c.KVDim()) * int64(elemSize)
}

// zoo holds the paper's model configurations, keyed by name. It is built
// once; Zoo hands out copies so callers cannot mutate the shared table.
var zoo = map[string]Config{
	"llama2-7b": {
		Name: "llama2-7b", HiddenDim: 4096, Layers: 32, Heads: 32, KVHeads: 32,
		FFDim: 11008, VocabSize: 32000, ContextLen: 4096, NormEps: 1e-5, RopeTheta: 10000,
	},
	"llama2-13b": {
		Name: "llama2-13b", HiddenDim: 5120, Layers: 40, Heads: 40, KVHeads: 40,
		FFDim: 13824, VocabSize: 32000, ContextLen: 4096, NormEps: 1e-5, RopeTheta: 10000,
	},
	"llama2-70b": {
		Name: "llama2-70b", HiddenDim: 8192, Layers: 80, Heads: 64, KVHeads: 8,
		FFDim: 28672, VocabSize: 32000, ContextLen: 4096, NormEps: 1e-5, RopeTheta: 10000,
	},
	"llama3-8b": {
		Name: "llama3-8b", HiddenDim: 4096, Layers: 32, Heads: 32, KVHeads: 8,
		FFDim: 14336, VocabSize: 128256, ContextLen: 8192, NormEps: 1e-5, RopeTheta: 500000,
	},
	// GPT-J and Falcon use un-gated 4h MLPs; we express them as gated
	// MLPs with a matched parameter count (FFDim = 8h/3) so the shared
	// decoder keeps their compute and memory footprints faithful.
	"gptj-6b": {
		Name: "gptj-6b", HiddenDim: 4096, Layers: 28, Heads: 16, KVHeads: 16,
		FFDim: 10912, VocabSize: 50400, ContextLen: 2048, NormEps: 1e-5, RopeTheta: 10000,
	},
	"falcon-7b": { // Falcon-7B uses multi-query attention (one KV head).
		Name: "falcon-7b", HiddenDim: 4544, Layers: 32, Heads: 71, KVHeads: 1,
		FFDim: 12112, VocabSize: 65024, ContextLen: 2048, NormEps: 1e-5, RopeTheta: 10000,
	},
	"baichuan2-7b": {
		Name: "baichuan2-7b", HiddenDim: 4096, Layers: 32, Heads: 32, KVHeads: 32,
		FFDim: 11008, VocabSize: 125696, ContextLen: 4096, NormEps: 1e-6, RopeTheta: 10000,
	},
	"qwen-7b": {
		Name: "qwen-7b", HiddenDim: 4096, Layers: 32, Heads: 32, KVHeads: 32,
		FFDim: 11008, VocabSize: 151936, ContextLen: 8192, NormEps: 1e-6, RopeTheta: 10000,
	},
	"sbert-mini": { // SBERT-class encoder used by the RAG pipeline (Fig 14).
		Name: "sbert-mini", HiddenDim: 384, Layers: 6, Heads: 12, KVHeads: 12,
		FFDim: 1536, VocabSize: 30522, ContextLen: 512, NormEps: 1e-6, RopeTheta: 10000,
	},
}

// Zoo returns a copy of the paper's model configurations, keyed by name.
// Dimensions follow the published architectures.
func Zoo() map[string]Config { return maps.Clone(zoo) }

// Lookup returns the named config from the zoo.
func Lookup(name string) (Config, error) {
	cfg, ok := zoo[name]
	if !ok {
		names := make([]string, 0, len(zoo))
		for n := range zoo {
			names = append(names, n)
		}
		sort.Strings(names)
		return Config{}, fmt.Errorf("model: unknown model %q (have %v)", name, names)
	}
	return cfg, nil
}

// Scaled returns a copy of the config shrunk by factor for functional runs:
// hidden, FF and vocab dimensions divide by factor while the layer count and
// head structure (and therefore the operator graph) are preserved as much as
// possible. Used by tests and examples that perform real arithmetic.
func (c Config) Scaled(factor int) Config {
	if factor <= 1 {
		return c
	}
	s := c
	s.Name = fmt.Sprintf("%s/x%d", c.Name, factor)
	s.HiddenDim = maxInt(c.HiddenDim/factor, 2*c.Heads)
	// Keep head structure; shrink head dim with hidden dim.
	for s.HiddenDim%s.Heads != 0 || (s.HiddenDim/s.Heads)%2 != 0 {
		s.HiddenDim++
	}
	s.FFDim = maxInt(c.FFDim/factor, 8)
	s.VocabSize = maxInt(c.VocabSize/factor, 64)
	s.Layers = maxInt(c.Layers/factor, 2)
	s.ContextLen = minInt(c.ContextLen, 512)
	return s
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
