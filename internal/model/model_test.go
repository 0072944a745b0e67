package model

import (
	"testing"
	"testing/quick"

	"cllm/internal/dtype"
)

func tinyConfig() Config {
	return Config{
		Name: "tiny", HiddenDim: 32, Layers: 2, Heads: 4, KVHeads: 2,
		FFDim: 64, VocabSize: 97, ContextLen: 64, NormEps: 1e-5, RopeTheta: 10000,
	}
}

func TestZooValidates(t *testing.T) {
	for name, cfg := range Zoo() {
		if err := cfg.Validate(); err != nil {
			t.Errorf("zoo model %s invalid: %v", name, err)
		}
	}
}

func TestZooParamCounts(t *testing.T) {
	// The configs must land near their advertised parameter counts.
	cases := map[string]struct{ lo, hi float64 }{
		"llama2-7b":  {6.5e9, 7.5e9},
		"llama2-13b": {12.0e9, 14.0e9},
		"llama2-70b": {64e9, 72e9},
		"llama3-8b":  {7.0e9, 9.0e9},
		"gptj-6b":    {5.0e9, 7.0e9},
		"falcon-7b":  {6.0e9, 9.0e9},
	}
	for name, want := range cases {
		cfg, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		p := float64(cfg.ParamCount())
		if p < want.lo || p > want.hi {
			t.Errorf("%s: ParamCount = %.2fB, want in [%.1fB, %.1fB]", name, p/1e9, want.lo/1e9, want.hi/1e9)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("gpt5"); err == nil {
		t.Error("Lookup(gpt5) succeeded")
	}
}

// TestZooReturnsCopy: Zoo hands out a copy, so a caller editing or
// deleting entries cannot change what Lookup or a later Zoo call sees.
func TestZooReturnsCopy(t *testing.T) {
	z := Zoo()
	want := z["llama2-7b"]
	z["llama2-7b"] = Config{Name: "mutated"}
	delete(z, "llama2-13b")
	if got, err := Lookup("llama2-7b"); err != nil || got != want {
		t.Fatalf("Lookup after mutating Zoo() = %+v, %v; want %+v", got, err, want)
	}
	if _, ok := Zoo()["llama2-13b"]; !ok {
		t.Fatal("deleting from one Zoo() copy removed the entry from the table")
	}
	if len(Zoo()) != 9 {
		t.Fatalf("zoo has %d entries, want 9", len(Zoo()))
	}
}

func TestKVCacheBytesFormula(t *testing.T) {
	cfg, _ := Lookup("llama2-7b")
	// 2 * 32 layers * 4096 kv width * 2 bytes (bf16) = 1 MiB per token.
	want := int64(2 * 32 * 4096 * 2)
	if got := cfg.KVCacheBytesPerToken(2); got != want {
		t.Errorf("KVCacheBytesPerToken = %d, want %d", got, want)
	}
	// GQA model must have a much smaller KV footprint.
	cfg70, _ := Lookup("llama2-70b")
	perLayer7 := cfg.KVCacheBytesPerToken(2) / int64(cfg.Layers)
	perLayer70 := cfg70.KVCacheBytesPerToken(2) / int64(cfg70.Layers)
	if perLayer70 >= perLayer7 {
		t.Errorf("GQA per-layer KV %d >= MHA %d", perLayer70, perLayer7)
	}
}

func TestScaledPreservesValidity(t *testing.T) {
	for name, cfg := range Zoo() {
		for _, f := range []int{2, 8, 64} {
			s := cfg.Scaled(f)
			if err := s.Validate(); err != nil {
				t.Errorf("%s scaled by %d invalid: %v", name, f, err)
			}
			if s.ParamCount() >= cfg.ParamCount() {
				t.Errorf("%s scaled by %d did not shrink", name, f)
			}
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{Name: "b1", HiddenDim: 0, Layers: 1, Heads: 1, KVHeads: 1, FFDim: 1, VocabSize: 1, ContextLen: 1},
		{Name: "b2", HiddenDim: 30, Layers: 1, Heads: 4, KVHeads: 4, FFDim: 1, VocabSize: 1, ContextLen: 1},
		{Name: "b3", HiddenDim: 32, Layers: 1, Heads: 4, KVHeads: 3, FFDim: 1, VocabSize: 1, ContextLen: 1},
		{Name: "b4", HiddenDim: 12, Layers: 1, Heads: 4, KVHeads: 4, FFDim: 1, VocabSize: 1, ContextLen: 1}, // head dim 3, odd
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %s validated but should not", cfg.Name)
		}
	}
}

func TestForwardShapesAndDeterminism(t *testing.T) {
	for _, kind := range []dtype.Kind{dtype.F32, dtype.BF16, dtype.I8} {
		m, err := Build(tinyConfig(), kind, 42)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		cache := NewKVCache(m.Config)
		logits, err := m.Forward([]int{5, 6, 7}, cache)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if len(logits) != m.Config.VocabSize {
			t.Fatalf("%v: logits length %d, want %d", kind, len(logits), m.Config.VocabSize)
		}
		if cache.Len() != 3 {
			t.Fatalf("%v: cache length %d, want 3", kind, cache.Len())
		}
		// Same model, same input → identical logits.
		m2, err := Build(tinyConfig(), kind, 42)
		if err != nil {
			t.Fatal(err)
		}
		logits2, err := m2.Forward([]int{5, 6, 7}, NewKVCache(m2.Config))
		if err != nil {
			t.Fatal(err)
		}
		for i := range logits {
			if logits[i] != logits2[i] {
				t.Fatalf("%v: non-deterministic logits at %d", kind, i)
			}
		}
	}
}

func TestIncrementalForwardMatchesPrefill(t *testing.T) {
	// Feeding tokens one at a time through the KV cache must produce the
	// same final logits as one prefill pass — the cache-correctness
	// invariant the whole decode phase rests on.
	m, err := Build(tinyConfig(), dtype.F32, 7)
	if err != nil {
		t.Fatal(err)
	}
	tokens := []int{3, 14, 15, 92, 65}

	full := NewKVCache(m.Config)
	wantLogits, err := m.Forward(tokens, full)
	if err != nil {
		t.Fatal(err)
	}

	inc := NewKVCache(m.Config)
	var gotLogits []float32
	for _, tok := range tokens {
		gotLogits, err = m.Forward([]int{tok}, inc)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := range wantLogits {
		d := wantLogits[i] - gotLogits[i]
		if d > 1e-4 || d < -1e-4 {
			t.Fatalf("incremental logits[%d] = %g, prefill = %g", i, gotLogits[i], wantLogits[i])
		}
	}
}

func TestForwardErrors(t *testing.T) {
	m, err := Build(tinyConfig(), dtype.F32, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Forward(nil, NewKVCache(m.Config)); err == nil {
		t.Error("Forward(nil) succeeded")
	}
	if _, err := m.Forward([]int{4000}, NewKVCache(m.Config)); err == nil {
		t.Error("Forward with out-of-vocab token succeeded")
	}
	// Cache overflow.
	cache := NewKVCache(m.Config)
	big := make([]int, m.Config.ContextLen+1)
	if _, err := m.Forward(big, cache); err == nil {
		t.Error("Forward beyond context length succeeded")
	}
}

func TestGenerateGreedy(t *testing.T) {
	m, err := Build(tinyConfig(), dtype.F32, 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Generate([]int{5, 6}, GenOptions{MaxNewTokens: 8, StopToken: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tokens) != 8 {
		t.Fatalf("generated %d tokens, want 8", len(res.Tokens))
	}
	if res.PrefillTokens != 2 {
		t.Errorf("PrefillTokens = %d", res.PrefillTokens)
	}
	for _, tok := range res.Tokens {
		if tok < 0 || tok >= m.Config.VocabSize {
			t.Errorf("token %d out of vocab", tok)
		}
	}
}

func TestGenerateDeterministicAcrossDatatypeRebuild(t *testing.T) {
	m1, _ := Build(tinyConfig(), dtype.BF16, 5)
	m2, _ := Build(tinyConfig(), dtype.BF16, 5)
	r1, err := m1.Generate([]int{9, 8, 7}, GenOptions{MaxNewTokens: 6, StopToken: -1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m2.Generate([]int{9, 8, 7}, GenOptions{MaxNewTokens: 6, StopToken: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Tokens {
		if r1.Tokens[i] != r2.Tokens[i] {
			t.Fatalf("generation not deterministic at %d", i)
		}
	}
}

func TestGenerateBeam(t *testing.T) {
	m, err := Build(tinyConfig(), dtype.F32, 13)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Generate([]int{5, 6}, GenOptions{MaxNewTokens: 5, BeamSize: 4, StopToken: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tokens) != 5 {
		t.Fatalf("beam generated %d tokens, want 5", len(res.Tokens))
	}
	// Beam search must never be worse than greedy in sequence log-prob; as a
	// cheap proxy we check it returns a valid, deterministic sequence.
	res2, err := m.Generate([]int{5, 6}, GenOptions{MaxNewTokens: 5, BeamSize: 4, StopToken: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Tokens {
		if res.Tokens[i] != res2.Tokens[i] {
			t.Fatal("beam search not deterministic")
		}
	}
}

func TestGenerateOptionErrors(t *testing.T) {
	m, _ := Build(tinyConfig(), dtype.F32, 1)
	if _, err := m.Generate(nil, GenOptions{MaxNewTokens: 1}); err == nil {
		t.Error("Generate with empty prompt succeeded")
	}
	if _, err := m.Generate([]int{1}, GenOptions{MaxNewTokens: 0}); err == nil {
		t.Error("Generate with zero MaxNewTokens succeeded")
	}
}

func TestInt8CloseToF32(t *testing.T) {
	// Per-channel int8 quantization should track the f32 model's argmax for
	// a clear-margin input most of the time. We check the generated token
	// streams agree on a majority of steps.
	cfgTiny := tinyConfig()
	mF, _ := Build(cfgTiny, dtype.F32, 21)
	mQ, _ := Build(cfgTiny, dtype.I8, 21)
	rF, err := mF.Generate([]int{10, 20, 30}, GenOptions{MaxNewTokens: 8, StopToken: -1})
	if err != nil {
		t.Fatal(err)
	}
	rQ, err := mQ.Generate([]int{10, 20, 30}, GenOptions{MaxNewTokens: 8, StopToken: -1})
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for i := range rF.Tokens {
		if i < len(rQ.Tokens) && rF.Tokens[i] == rQ.Tokens[i] {
			agree++
		}
	}
	if agree < len(rF.Tokens)/2 {
		t.Errorf("int8 agrees with f32 on only %d/%d tokens", agree, len(rF.Tokens))
	}
}

func TestTokenizerDeterministicInVocab(t *testing.T) {
	tok := NewTokenizer(1000)
	a := tok.Encode("Hello, confidential world!")
	b := tok.Encode("Hello, confidential world!")
	if len(a) != len(b) {
		t.Fatal("encode not deterministic in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("encode not deterministic")
		}
		if a[i] < 0 || a[i] >= 1000 {
			t.Fatalf("token %d out of vocab", a[i])
		}
	}
	if a[0] != TokenBOS {
		t.Errorf("first token = %d, want BOS", a[0])
	}
}

func TestTokenizerPunctuationSplit(t *testing.T) {
	tok := NewTokenizer(1000)
	// "a,b" → BOS + "a" + "," + "b" = 4 tokens.
	if got := len(tok.Encode("a,b")); got != 4 {
		t.Errorf("Encode(a,b) = %d tokens, want 4", got)
	}
}

// encodeN returns exactly n tokens: text tokens truncated or padded with a
// deterministic filler derived from the position, matching the paper's
// fixed-input-length methodology (e.g. 1024-token prompts).
func encodeN(t *Tokenizer, text string, n int) []int {
	toks := t.Encode(text)
	if len(toks) >= n {
		return toks[:n]
	}
	for i := len(toks); i < n; i++ {
		toks = append(toks, t.tokenID("pad"+string(rune('a'+i%26))))
	}
	return toks
}

func TestEncodeNExactLength(t *testing.T) {
	tok := NewTokenizer(500)
	if err := quick.Check(func(n uint8) bool {
		want := int(n%200) + 1
		got := encodeN(tok, "some text to tokenize", want)
		return len(got) == want
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestKVCacheBytes(t *testing.T) {
	cfg := tinyConfig()
	c := NewKVCache(cfg)
	if c.Bytes(2) != 0 {
		t.Errorf("empty cache bytes = %d", c.Bytes(2))
	}
	m, _ := Build(cfg, dtype.F32, 2)
	if _, err := m.Forward([]int{1, 2, 3, 4}, c); err != nil {
		t.Fatal(err)
	}
	want := 2 * int64(cfg.Layers) * 4 * int64(cfg.KVDim()) * 2
	if got := c.Bytes(2); got != want {
		t.Errorf("cache bytes = %d, want %d", got, want)
	}
}

func BenchmarkTinyPrefill(b *testing.B) {
	m, err := Build(tinyConfig(), dtype.BF16, 3)
	if err != nil {
		b.Fatal(err)
	}
	tokens := make([]int, 16)
	for i := range tokens {
		tokens[i] = i + 1
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Forward(tokens, NewKVCache(m.Config)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTinyDecodeToken(b *testing.B) {
	m, err := Build(tinyConfig(), dtype.BF16, 3)
	if err != nil {
		b.Fatal(err)
	}
	cache := NewKVCache(m.Config)
	if _, err := m.Forward([]int{1, 2, 3, 4}, cache); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		snapshot := cloneCache(cache)
		if _, err := m.Forward([]int{5}, snapshot); err != nil {
			b.Fatal(err)
		}
	}
}
