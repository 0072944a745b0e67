package cllm

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestOpenPlatforms(t *testing.T) {
	protected := map[string]bool{"tdx": true, "sgx": true, "cgpu": true, "sev-snp": true, "sevsnp": true, "cb100": true}
	// Every name the validators accept must open.
	for _, p := range append([]string{"", "sevsnp"}, platformNames...) {
		if err := checkPlatform(p); err != nil {
			t.Fatalf("checkPlatform(%q): %v", p, err)
		}
		s, err := Open(Config{Platform: p, Seed: 1})
		if err != nil {
			t.Fatalf("Open(%q): %v", p, err)
		}
		if protected[p] != s.Protected() {
			t.Errorf("Open(%q).Protected() = %v", p, s.Protected())
		}
		if s.Protected() && !s.Attested() {
			t.Errorf("Open(%q) protected but not attested", p)
		}
	}
	if _, err := Open(Config{Platform: "sev"}); err == nil || checkPlatform("sev") == nil || err.Error() != checkPlatform("sev").Error() {
		t.Errorf("unknown platform: Open returns %v, checkPlatform %v", err, checkPlatform("sev"))
	}
	if _, err := Open(Config{Platform: "tdx", System: "XYZ"}); err == nil {
		t.Error("unknown system opened")
	}
}

func TestSkipAttestation(t *testing.T) {
	s, err := Open(Config{Platform: "tdx", SkipAttestation: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Attested() {
		t.Error("attested despite SkipAttestation")
	}
}

func TestLoadAndGenerate(t *testing.T) {
	s, err := Open(Config{Platform: "sgx", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.LoadModel("llama2-7b", "bf16", 128)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(m.ConfigName(), "llama2-7b/") {
		t.Errorf("ConfigName = %q", m.ConfigName())
	}
	gen, err := m.Generate("patient presents with chest pain and arrhythmia", GenerateOptions{MaxNewTokens: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(gen.Tokens) == 0 || gen.Text == "" || gen.PromptTokens == 0 {
		t.Fatalf("empty generation: %+v", gen)
	}
	if _, err := m.Generate("   ", GenerateOptions{}); err == nil {
		t.Error("empty prompt accepted")
	}
	emb, err := m.Embed("confidential inference")
	if err != nil || len(emb) == 0 {
		t.Errorf("Embed: %v (%d dims)", err, len(emb))
	}
}

func TestGenerationIdenticalAcrossPlatforms(t *testing.T) {
	// The paper's TEEs protect execution without changing results: the same
	// model and prompt must generate identical tokens on every platform.
	var tokens [][]int
	for _, p := range []string{"baremetal", "tdx", "sgx"} {
		s, err := Open(Config{Platform: p, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		m, err := s.LoadModel("llama2-7b", "bf16", 256)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := m.Generate("the quick brown fox", GenerateOptions{MaxNewTokens: 6})
		if err != nil {
			t.Fatal(err)
		}
		tokens = append(tokens, gen.Tokens)
	}
	for i := 1; i < len(tokens); i++ {
		if len(tokens[i]) != len(tokens[0]) {
			t.Fatal("platforms generated different lengths")
		}
		for j := range tokens[i] {
			if tokens[i][j] != tokens[0][j] {
				t.Fatalf("platform %d diverged at token %d", i, j)
			}
		}
	}
}

func TestLoadModelErrors(t *testing.T) {
	s, _ := Open(Config{Platform: "baremetal", Seed: 1})
	if _, err := s.LoadModel("gpt5", "bf16", 64); err == nil {
		t.Error("unknown model loaded")
	}
	if _, err := s.LoadModel("llama2-7b", "fp64", 64); err == nil {
		t.Error("unknown dtype loaded")
	}
	g, _ := Open(Config{Platform: "gpu", Seed: 1})
	if _, err := g.LoadModel("llama2-7b", "bf16", 64); err == nil {
		t.Error("GPU functional inference should be unsupported")
	}
}

func TestMeasureCPUAndGPU(t *testing.T) {
	cpu, err := Open(Config{Platform: "tdx", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	m, err := cpu.Measure(Workload{Model: "llama2-7b", DType: "bf16", OutputLen: 16}, MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.TokensPerSec <= 0 || m.MeanTokenLatency <= 0 || m.PrefillSeconds <= 0 {
		t.Fatalf("bad measurement: %+v", m)
	}
	if m.DecodeTokensPerSec <= m.TokensPerSec {
		t.Error("decode throughput should exceed generation throughput")
	}

	gpu, err := Open(Config{Platform: "cgpu", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	g, err := gpu.Measure(Workload{Model: "llama2-7b", OutputLen: 16, InputLen: 128}, MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.TokensPerSec <= m.TokensPerSec {
		t.Error("H100 should beat a CPU socket on raw throughput")
	}
}

func TestMeasureBackends(t *testing.T) {
	s, _ := Open(Config{Platform: "baremetal", Seed: 6})
	ipex, err := s.Measure(Workload{OutputLen: 16}, MeasureOptions{Backend: "IPEX"})
	if err != nil {
		t.Fatal(err)
	}
	hf, err := s.Measure(Workload{OutputLen: 16}, MeasureOptions{Backend: "HF"})
	if err != nil {
		t.Fatal(err)
	}
	if hf.TokensPerSec >= ipex.TokensPerSec {
		t.Error("HF should be slower than IPEX")
	}
	// A GPU session checks the backend just as a CPU session does.
	g, _ := Open(Config{Platform: "cgpu", Seed: 6})
	for name, sess := range map[string]*Session{"baremetal": s, "cgpu": g} {
		if _, err := sess.Measure(Workload{OutputLen: 8}, MeasureOptions{Backend: "TensorRT"}); err == nil {
			t.Errorf("%s: unknown backend accepted", name)
		}
		if _, err := sess.Measure(Workload{DType: "int8", OutputLen: 8}, MeasureOptions{Backend: "vLLM"}); err == nil {
			t.Errorf("%s: vLLM int8 should be rejected", name)
		}
	}
	// Without a backend the GPU measurement is unchanged, bit for bit.
	got, err := g.Measure(Workload{OutputLen: 16}, MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := Measurement{
		TokensPerSec: 78.29448857562194, DecodeTokensPerSec: 89.02460841227618,
		MeanTokenLatency: 0.011232849184452054, P50TokenLatency: 0.011227441186442352,
		PrefillSeconds: 0.024631070727757574,
	}
	if *got != want {
		t.Errorf("cgpu measurement %+v, want %+v", *got, want)
	}
}

func TestEstimateCost(t *testing.T) {
	s, _ := Open(Config{Platform: "tdx", System: "EMR2", Seed: 7})
	c, err := s.EstimateCost(Workload{OutputLen: 32, InputLen: 128}, MeasureOptions{}, 32)
	if err != nil {
		t.Fatal(err)
	}
	if c.HourlyUSD <= 0 || c.USDPerMTok <= 0 {
		t.Fatalf("bad cost: %+v", c)
	}
	g, _ := Open(Config{Platform: "cgpu", Seed: 7})
	gc, err := g.EstimateCost(Workload{OutputLen: 32, InputLen: 128}, MeasureOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if gc.HourlyUSD <= c.HourlyUSD {
		t.Error("H100 instance should cost more per hour than a CPU VM")
	}
}

func TestRAGFacade(t *testing.T) {
	s, err := Open(Config{Platform: "tdx", System: "EMR2", Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.NewRAG(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() == 0 {
		t.Fatal("benchmark corpus empty")
	}
	hits, lat, err := r.Query("bm25", "heart rhythm pressure", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || lat <= 0 {
		t.Fatalf("bad query result: %d hits, %gs", len(hits), lat)
	}
	nd, mean, err := r.Benchmark("sbert")
	if err != nil {
		t.Fatal(err)
	}
	if nd < 0 || nd > 1 || mean <= 0 {
		t.Fatalf("bad benchmark: ndcg %g mean %g", nd, mean)
	}
	if _, _, err := r.Query("vector", "q", 5); err == nil {
		t.Error("unknown method accepted")
	}
	// Custom documents work too.
	custom, err := s.NewRAG([]RAGDocument{
		{ID: "a", Title: "insulin dosing", Body: "insulin dosing schedule for diabetes patients"},
		{ID: "b", Title: "hedge funds", Body: "quarterly returns of hedge funds"},
	})
	if err != nil {
		t.Fatal(err)
	}
	hits, _, err = custom.Query("bm25", "insulin diabetes", 1)
	if err != nil {
		t.Fatal(err)
	}
	if hits[0].ID != "a" {
		t.Errorf("custom RAG top hit = %s", hits[0].ID)
	}
	if _, _, err := custom.Benchmark("bm25"); err == nil {
		t.Error("benchmark without queries accepted")
	}
	// RAG is CPU-only, as in the paper.
	gpu, _ := Open(Config{Platform: "cgpu", Seed: 8})
	if _, err := gpu.NewRAG(nil); err == nil {
		t.Error("GPU RAG accepted")
	}
}

func TestExperimentsAPI(t *testing.T) {
	infos := Experiments()
	if len(infos) < 16 {
		t.Fatalf("only %d experiments registered", len(infos))
	}
	rep, err := RunExperiment("fig1", true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed || len(rep.FailedChecks) != 0 {
		t.Errorf("fig1 failed checks: %v", rep.FailedChecks)
	}
	if !strings.Contains(rep.Table, "fig1") {
		t.Error("report table missing ID")
	}
	if _, err := RunExperiment("fig99", true, 1); err == nil {
		t.Error("unknown experiment ran")
	}
}

func TestModelNames(t *testing.T) {
	names := ModelNames()
	found := false
	for _, n := range names {
		if n == "llama2-70b" {
			found = true
		}
	}
	if !found {
		t.Error("llama2-70b missing from ModelNames")
	}
}

func TestMeasureDistribution(t *testing.T) {
	s, err := Open(Config{Platform: "tdx", Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.MeasureDistribution(Workload{Model: "llama2-7b", OutputLen: 200, InputLen: 128}, MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Samples) != 200 {
		t.Fatalf("samples = %d, want 200", len(d.Samples))
	}
	if !(d.P25 <= d.P50 && d.P50 <= d.P75) {
		t.Errorf("quartiles out of order: %g %g %g", d.P25, d.P50, d.P75)
	}
	if d.Mean <= 0 {
		t.Error("non-positive mean")
	}
	// Every reported outlier must exceed the filtered P75 (they are the
	// heavy upper tail of TEE memory-encryption stalls).
	for _, o := range d.Outliers {
		if o <= d.P75 {
			t.Errorf("outlier %g not in the upper tail (P75 %g)", o, d.P75)
		}
	}
	// Sample count conservation.
	if len(d.Outliers) > len(d.Samples) {
		t.Error("more outliers than samples")
	}
	// The GPU path works too and is quieter (no outlier injection).
	g, err := Open(Config{Platform: "cgpu", Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	gd, err := g.MeasureDistribution(Workload{Model: "llama2-7b", OutputLen: 100, InputLen: 128}, MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(gd.Outliers) > len(d.Outliers) {
		t.Error("GPU shows more outliers than the CPU TEE")
	}
	// The distribution and the summary come from the same run: the mean
	// matches bit for bit and the outliers are the ones Measure removed,
	// for every backend; a backend Measure rejects is rejected alike.
	for _, c := range []struct {
		w    Workload
		opts MeasureOptions
	}{
		{Workload{Model: "llama2-7b", OutputLen: 200, InputLen: 128}, MeasureOptions{}},
		{Workload{Model: "llama2-7b", OutputLen: 16}, MeasureOptions{Backend: "HF"}},
		{Workload{Model: "llama2-7b", OutputLen: 200, InputLen: 128}, MeasureOptions{Backend: "HF"}},
		{Workload{Model: "llama2-7b", OutputLen: 16}, MeasureOptions{Backend: "TensorRT"}},
		{Workload{Model: "llama2-7b", OutputLen: 16, DType: "int8"}, MeasureOptions{Backend: "vLLM"}},
	} {
		m, merr := s.Measure(c.w, c.opts)
		d, derr := s.MeasureDistribution(c.w, c.opts)
		if merr != nil || derr != nil {
			if merr == nil || derr == nil || merr.Error() != derr.Error() {
				t.Errorf("%+v %+v: Measure error %v, MeasureDistribution error %v", c.w, c.opts, merr, derr)
			}
			continue
		}
		if d.Mean != m.MeanTokenLatency || len(d.Outliers) != m.OutliersRemoved {
			t.Errorf("%+v %+v: distribution mean %v with %d outliers, Measure %v with %d removed",
				c.w, c.opts, d.Mean, len(d.Outliers), m.MeanTokenLatency, m.OutliersRemoved)
		}
	}
}

func TestParseClasses(t *testing.T) {
	cs, err := ParseClasses("tdx:4,cgpu:2:1")
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 || cs[0] != (AutoscaleClass{Platform: "tdx", Min: 1, Max: 4}) ||
		cs[1] != (AutoscaleClass{Platform: "cgpu", Min: 1, Max: 2}) {
		t.Fatalf("ParseClasses = %+v", cs)
	}
	for _, bad := range []string{"", ":2", "tdx:x", "tdx:2:3", "tdx:1:1:1", "tdx:-1:-2", "tdx:0:0", "tdx:2:-1"} {
		if _, err := ParseClasses(bad); err == nil {
			t.Errorf("ParseClasses(%q) accepted", bad)
		}
	}
}

func TestAutoscalePublicAPI(t *testing.T) {
	base := AutoscaleConfig{
		ServeConfig: ServeConfig{Scenario: "bursty", RatePerSec: 2, Requests: 48, Knobs: Knobs{MaxBatch: 8}},
		Classes:     []AutoscaleClass{{Platform: "tdx", Min: 1, Max: 2}},
		Seed:        1,
	}
	rep, err := Autoscale(base)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Completed + rep.Dropped + rep.Unfinished; got != 48 {
		t.Fatalf("conservation: %d of 48 accounted", got)
	}
	if len(rep.Classes) != 1 || rep.Classes[0].Name != "tdx" {
		t.Fatalf("classes = %+v", rep.Classes)
	}
	if rep.Classes[0].ColdStartSec <= 0 {
		t.Error("TDX class has no cold start")
	}
	if rep.Classes[0].CapacityReqPerSec <= 0 {
		t.Error("class capacity not probed")
	}
	if rep.ReplicaHours <= 0 || rep.CostUSD <= 0 {
		t.Errorf("billing empty: %+v", rep)
	}
	if len(rep.Windows) == 0 {
		t.Error("no control windows")
	}
	if _, err := Autoscale(AutoscaleConfig{}); err == nil {
		t.Error("missing classes accepted")
	}
	if _, err := Autoscale(AutoscaleConfig{
		Classes: []AutoscaleClass{{Platform: "nope", Min: 1, Max: 1}},
	}); err == nil {
		t.Error("unknown platform accepted")
	}
	// The embedded ServeConfig knobs an elastic fleet cannot honour are
	// rejected, and the error names the field.
	for field, set := range map[string]func(*ServeConfig){
		"Replicas":         func(c *ServeConfig) { c.Replicas = 2 },
		"LBPolicy":         func(c *ServeConfig) { c.LBPolicy = PrefixAffinity },
		"Topology":         func(c *ServeConfig) { c.Topology = "cgpu:1=prefill,tdx:1=decode" },
		"Faults.Plan":      func(c *ServeConfig) { c.Faults.Plan = []FailPoint{{TimeSec: 30}} },
		"Faults.Admission": func(c *ServeConfig) { c.Faults.Admission = AdmitShed },
		"Attribution":      func(c *ServeConfig) { c.Attribution = true },
	} {
		cfg := base
		set(&cfg.ServeConfig)
		_, err := Autoscale(cfg)
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("Autoscale with %s set: err = %v, want a rejection naming the field", field, err)
		}
	}
	// The default values of the same knobs are accepted.
	cfg := base
	cfg.Replicas, cfg.LBPolicy = 1, RoundRobin
	cfg.Faults.Policy, cfg.Faults.Admission = FailRequeue, AdmitFIFO
	if _, err := Autoscale(cfg); err != nil {
		t.Errorf("default fleet and fault values rejected: %v", err)
	}
}

// TestValidateNamesRejectedField: a negative count, length or duration, a
// non-finite float knob, and the cross-field fault rules, fail
// Session.Serve with a *ConfigError naming the ServeConfig field — the
// same error Validate returns without running anything — and Autoscale
// rejects an out-of-range or non-finite control-loop knob the same way.
func TestValidateNamesRejectedField(t *testing.T) {
	sess, err := Open(Config{Platform: "tdx", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for field, set := range map[string]func(*ServeConfig){
		"MaxBatch":               func(c *ServeConfig) { c.MaxBatch = -1 },
		"ChunkTokens":            func(c *ServeConfig) { c.ChunkTokens = -512 },
		"Requests":               func(c *ServeConfig) { c.Requests = -3 },
		"InputLen":               func(c *ServeConfig) { c.InputLen = -1 },
		"Sockets":                func(c *ServeConfig) { c.Sockets = -1 },
		"Replicas":               func(c *ServeConfig) { c.Replicas = -2 },
		"TTFTSLOSec":             func(c *ServeConfig) { c.TTFTSLOSec = -1 },
		"ObserveWindowSec":       func(c *ServeConfig) { c.ObserveWindowSec = -1 },
		"RatePerSec":             func(c *ServeConfig) { c.RatePerSec = math.NaN() },
		"TPOTSLOSec":             func(c *ServeConfig) { c.TPOTSLOSec = math.Inf(1) },
		"PrefixFrac":             func(c *ServeConfig) { c.PrefixGroups, c.PrefixFrac = 2, math.NaN() },
		"SketchAlpha":            func(c *ServeConfig) { c.QuantileMode, c.SketchAlpha = QuantileSketch, math.NaN() },
		"Faults.MTBFSec":         func(c *ServeConfig) { c.Faults = FaultConfig{MTBFSec: 60, Plan: []FailPoint{{TimeSec: 30}}} },
		"Faults.RetryBackoffSec": func(c *ServeConfig) { c.Faults.RetryBackoffSec = 2 },
		"Faults.Admission": func(c *ServeConfig) {
			c.Topology, c.Faults.Admission = "cgpu:1=prefill,tdx:1=decode", AdmitShed
		},
	} {
		cfg := ServeConfig{RatePerSec: 4, Requests: 8}
		set(&cfg)
		_, err := sess.Serve(cfg)
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != field {
			t.Errorf("%s out of range: Serve err = %v, want a *ConfigError naming it", field, err)
			continue
		}
		if verr := cfg.Validate(); verr == nil || verr.Error() != err.Error() {
			t.Errorf("%s: Validate = %v, Serve = %v", field, verr, err)
		}
	}
	for _, c := range []struct {
		field string
		cfg   AutoscaleConfig
	}{
		{"IntervalSec", AutoscaleConfig{Classes: []AutoscaleClass{{Platform: "tdx", Max: 1}}, IntervalSec: -5}},
		{"IntervalSec", AutoscaleConfig{Classes: []AutoscaleClass{{Platform: "tdx", Max: 1}}, IntervalSec: math.NaN()}},
		{"TargetUtil", AutoscaleConfig{Classes: []AutoscaleClass{{Platform: "tdx", Max: 1}}, TargetUtil: math.NaN()}},
		{"DemandAlpha", AutoscaleConfig{Classes: []AutoscaleClass{{Platform: "tdx", Max: 1}}, DemandAlpha: math.NaN()}},
		{"Classes", AutoscaleConfig{Classes: []AutoscaleClass{{Platform: "tdx", Min: 3, Max: 2}}}},
		{"Classes", AutoscaleConfig{Classes: []AutoscaleClass{{Max: 1}}}},
	} {
		_, err := Autoscale(c.cfg)
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != c.field || c.cfg.Validate().Error() != err.Error() {
			t.Errorf("%s out of range: Autoscale err = %v, Validate = %v", c.field, err, c.cfg.Validate())
		}
	}
}

// TestServeRejectsOutOfRangeKnobs passes each typed policy knob a value
// outside its declared constants, and float knobs a NaN or infinity, and
// expects Serve to refuse it by name rather than fall back to some policy
// or run on a meaningless value.
func TestServeRejectsOutOfRangeKnobs(t *testing.T) {
	sess, err := Open(Config{Platform: "tdx", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, set := range map[string]func(*ServeConfig){
		"load-balancing policy": func(c *ServeConfig) { c.LBPolicy = 7 },
		"preemption policy":     func(c *ServeConfig) { c.PreemptPolicy = 7 },
		"quantile mode":         func(c *ServeConfig) { c.QuantileMode = 7 },
		"failure policy":        func(c *ServeConfig) { c.Faults.Policy = 7 },
		"admission policy":      func(c *ServeConfig) { c.Faults.Admission = 7 },
		"arrival rate":          func(c *ServeConfig) { c.RatePerSec = math.Inf(1) },
		"observation window":    func(c *ServeConfig) { c.ObserveWindowSec = math.NaN() },
		"failure MTBF":          func(c *ServeConfig) { c.Faults.MTBFSec = math.Inf(1) },
		"retry backoff base":    func(c *ServeConfig) { c.Faults.RetryMax, c.Faults.RetryBackoffSec = 1, math.NaN() },
	} {
		for _, replicas := range []int{1, 2} {
			cfg := ServeConfig{RatePerSec: 4, Requests: 8, Replicas: replicas}
			set(&cfg)
			if _, err := sess.Serve(cfg); err == nil || !strings.Contains(err.Error(), name) {
				t.Errorf("%s out of range with %d replica(s): err = %v, want a rejection naming it", name, replicas, err)
			}
		}
	}
}

func TestServeScenarioPublicAPI(t *testing.T) {
	sess, err := Open(Config{Platform: "tdx", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Serve(ServeConfig{
		Scenario:   "bursty+rag",
		RatePerSec: 1,
		Requests:   12,
		Knobs: Knobs{
			MaxBatch: 8,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed+rep.Dropped+rep.Unfinished != 12 {
		t.Fatalf("conservation failed: %+v", rep)
	}
	if _, err := sess.Serve(ServeConfig{Scenario: "nope", RatePerSec: 1}); err == nil {
		t.Error("unknown scenario accepted")
	}
}
