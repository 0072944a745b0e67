// Benchmark harness: one testing.B target per paper table/figure, each
// regenerating the artifact via the experiment registry and reporting the
// headline quantity as a custom metric, plus micro-benchmarks of the public
// API paths. Run with:
//
//	go test -bench=. -benchmem
package cllm

import "testing"

// benchExperiment runs one registered experiment per iteration and fails
// the benchmark if the paper's shape checks do not hold.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := RunExperiment(id, true, 1)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Passed {
			b.Fatalf("%s failed shape checks: %v", id, rep.FailedChecks)
		}
	}
}

func BenchmarkFig01Summary(b *testing.B)      { benchExperiment(b, "fig1") }
func BenchmarkFig03Frameworks(b *testing.B)   { benchExperiment(b, "fig3") }
func BenchmarkFig04SingleSocket(b *testing.B) { benchExperiment(b, "fig4") }
func BenchmarkFig05NUMA70B(b *testing.B)      { benchExperiment(b, "fig5") }
func BenchmarkFig06Hugepages(b *testing.B)    { benchExperiment(b, "fig6") }
func BenchmarkFig07PerBlock(b *testing.B)     { benchExperiment(b, "fig7") }
func BenchmarkFig08AMX(b *testing.B)          { benchExperiment(b, "fig8") }
func BenchmarkFig09BatchScaling(b *testing.B) { benchExperiment(b, "fig9") }
func BenchmarkFig10InputScaling(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFig11GPU(b *testing.B)          { benchExperiment(b, "fig11") }
func BenchmarkFig12VCPUCost(b *testing.B)     { benchExperiment(b, "fig12") }
func BenchmarkFig13InputCost(b *testing.B)    { benchExperiment(b, "fig13") }
func BenchmarkFig14RAG(b *testing.B)          { benchExperiment(b, "fig14") }
func BenchmarkTable01Summary(b *testing.B)    { benchExperiment(b, "table1") }
func BenchmarkOtherModels(b *testing.B)       { benchExperiment(b, "othermodels") }
func BenchmarkSNCAblation(b *testing.B)       { benchExperiment(b, "snc") }

// Extension projections and the mechanism ablation (see
// internal/harness/extension_experiments.go).
func BenchmarkSEVSNPProjection(b *testing.B) { benchExperiment(b, "sev") }
func BenchmarkB100Projection(b *testing.B)   { benchExperiment(b, "b100") }
func BenchmarkScaleOut(b *testing.B)         { benchExperiment(b, "scaleout") }
func BenchmarkHybridOffload(b *testing.B)    { benchExperiment(b, "hybrid") }
func BenchmarkSapphireRapids(b *testing.B)   { benchExperiment(b, "spr") }
func BenchmarkTDXAblation(b *testing.B)      { benchExperiment(b, "ablation") }
func BenchmarkServingCurves(b *testing.B)    { benchExperiment(b, "serving") }
func BenchmarkChunkedPrefill(b *testing.B)   { benchExperiment(b, "chunked") }
func BenchmarkPrefixCache(b *testing.B)      { benchExperiment(b, "prefix") }
func BenchmarkFleetPolicies(b *testing.B)    { benchExperiment(b, "fleet") }
func BenchmarkHeteroDispatch(b *testing.B)   { benchExperiment(b, "hetero") }
func BenchmarkAutoscaling(b *testing.B)      { benchExperiment(b, "autoscale") }
func BenchmarkPreemptPolicies(b *testing.B)  { benchExperiment(b, "preempt") }
func BenchmarkObservability(b *testing.B)    { benchExperiment(b, "obs") }
func BenchmarkAttribution(b *testing.B)      { benchExperiment(b, "attrib") }
func BenchmarkOverload(b *testing.B)         { benchExperiment(b, "overload") }
func BenchmarkDisaggregated(b *testing.B)    { benchExperiment(b, "disagg") }

// schedulerRequests is schedulerConfig's request count.
const schedulerRequests = 32

// schedulerConfig is the scheduler hot-loop run: a lone TDX replica under
// Poisson traffic, observed or not.
func schedulerConfig(observe bool) ServeConfig {
	return ServeConfig{RatePerSec: 8, Requests: schedulerRequests, OutputLen: 16, Observe: observe}
}

// serveScheduler runs schedulerConfig once and checks that every request
// is accounted for and, when observed, that the run was recorded; it then
// releases the recording, as a caller does after its last write.
func serveScheduler(tb testing.TB, s *Session, observe bool) *ServeReport {
	tb.Helper()
	rep, err := s.Serve(schedulerConfig(observe))
	if err != nil {
		tb.Fatal(err)
	}
	if rep.Completed+rep.Dropped+rep.Unfinished != schedulerRequests {
		tb.Fatalf("lost requests: %+v", rep)
	}
	if observe {
		if rep.Observation == nil || rep.Observation.Events == 0 {
			tb.Fatalf("observation missing: %+v", rep)
		}
		rep.Observation.Release()
	}
	return rep
}

// benchScheduler measures the serving simulator itself on schedulerConfig:
// simulated requests completed per wall-clock second of scheduler
// execution.
func benchScheduler(b *testing.B, observe bool) {
	s, err := Open(Config{Platform: "tdx", Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveScheduler(b, s, observe)
	}
	b.ReportMetric(float64(schedulerRequests)*float64(b.N)/b.Elapsed().Seconds(), "simreq/s")
}

// BenchmarkServeScheduler is the scheduler hot loop with observation off.
func BenchmarkServeScheduler(b *testing.B) { benchScheduler(b, false) }

// fleetPrefixRequests is fleetPrefixConfig's request count.
const fleetPrefixRequests = 256

// fleetPrefixConfig is the shared-prefix serving run: an 8-replica
// prefix-affinity fleet under diurnal RAG traffic with prefix sharing and
// 512-token prefill chunks, where every decode round folds the batch's
// pinned prefix chains.
var fleetPrefixConfig = ServeConfig{
	Scenario: "diurnal+rag", RatePerSec: 2, Requests: fleetPrefixRequests,
	Replicas: 8, LBPolicy: PrefixAffinity, Knobs: Knobs{PrefixSharing: true, ChunkTokens: 512},
}

// serveFleetPrefix runs fleetPrefixConfig once and checks that every
// request is accounted for and the prefix cache served hits.
func serveFleetPrefix(tb testing.TB, s *Session) {
	tb.Helper()
	rep, err := s.Serve(fleetPrefixConfig)
	if err != nil {
		tb.Fatal(err)
	}
	if rep.Completed+rep.Dropped+rep.Unfinished != fleetPrefixRequests {
		tb.Fatalf("lost requests: %+v", rep)
	}
	if rep.PrefixCacheHitTokens == 0 {
		tb.Fatal("no prefix-cache hits: the shared-prefix path did not run")
	}
}

// BenchmarkServeFleetPrefix measures the shared-prefix serving path
// (fleetPrefixConfig).
func BenchmarkServeFleetPrefix(b *testing.B) {
	s, err := Open(Config{Platform: "tdx", Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveFleetPrefix(b, s)
	}
	b.ReportMetric(float64(fleetPrefixRequests)*float64(b.N)/b.Elapsed().Seconds(), "simreq/s")
}

// TestServeFleetPrefixAllocs is the cross-toolchain ceiling on
// BenchmarkServeFleetPrefix's whole-run allocations: loose enough for the
// map implementations of every Go version CI runs, tight enough to fail a
// prefix cache that allocates per block (about 2300). TestWorkCounts's
// rag-fleet config pins the same shape, in sketch mode, exactly.
func TestServeFleetPrefixAllocs(t *testing.T) {
	s, err := Open(Config{Platform: "tdx", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const bound = 1000
	if allocs := testing.AllocsPerRun(3, func() { serveFleetPrefix(t, s) }); allocs > bound {
		t.Fatalf("one fleet-prefix run made %v allocations, want at most %d", allocs, bound)
	}
}

// BenchmarkServeSchedulerObserved is the same run with the lifecycle
// observer attached and all three exporters rendered — the observation tax
// relative to BenchmarkServeScheduler's zero-cost disabled path.
func BenchmarkServeSchedulerObserved(b *testing.B) { benchScheduler(b, true) }

// BenchmarkMeasureTDX exercises the core measurement path and reports the
// modeled TDX overhead as a custom metric.
func BenchmarkMeasureTDX(b *testing.B) {
	base, err := Open(Config{Platform: "baremetal", Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	tdx, err := Open(Config{Platform: "tdx", Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	wl := Workload{Model: "llama2-7b", DType: "bf16", InputLen: 1024, OutputLen: 32}
	var overhead float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mb, err := base.Measure(wl, MeasureOptions{})
		if err != nil {
			b.Fatal(err)
		}
		mt, err := tdx.Measure(wl, MeasureOptions{})
		if err != nil {
			b.Fatal(err)
		}
		overhead = (mt.MeanTokenLatency - mb.MeanTokenLatency) / mb.MeanTokenLatency * 100
	}
	b.ReportMetric(overhead, "tdx-overhead-%")
}

// BenchmarkFunctionalDecode benchmarks the real (scaled) transformer's
// token decode path — the arithmetic the TEEs protect.
func BenchmarkFunctionalDecode(b *testing.B) {
	s, err := Open(Config{Platform: "baremetal", Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	m, err := s.LoadModel("llama2-7b", "bf16", 256)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Generate("benchmark prompt for decode", GenerateOptions{MaxNewTokens: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRAGQuery benchmarks the retrieval path per method.
func BenchmarkRAGQuery(b *testing.B) {
	s, err := Open(Config{Platform: "tdx", System: "EMR2", Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	r, err := s.NewRAG(nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, method := range []string{"bm25", "reranked", "sbert"} {
		b.Run(method, func(b *testing.B) {
			b.ReportAllocs()
			var lat float64
			for i := 0; i < b.N; i++ {
				_, l, err := r.Query(method, "enclave attestation latency overhead", 10)
				if err != nil {
					b.Fatal(err)
				}
				lat = l
			}
			b.ReportMetric(lat*1e3, "modeled-ms/query")
		})
	}
}

// BenchmarkCostSweep benchmarks the Fig 12 pricing sweep.
func BenchmarkCostSweep(b *testing.B) {
	s, err := Open(Config{Platform: "tdx", System: "EMR2", Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	wl := Workload{Model: "llama2-7b", Batch: 4, InputLen: 128, OutputLen: 64}
	b.ReportAllocs()
	var best float64
	for i := 0; i < b.N; i++ {
		best = 0
		for _, v := range []int{8, 16, 32, 60} {
			est, err := s.EstimateCost(wl, MeasureOptions{}, v)
			if err != nil {
				b.Fatal(err)
			}
			if best == 0 || est.USDPerMTok < best {
				best = est.USDPerMTok
			}
		}
	}
	b.ReportMetric(best, "usd-per-mtok")
}

// Ensure every registered experiment has a benchmark above — a compile-time
// style guard executed as a cheap test.
func TestBenchmarkCoverage(t *testing.T) {
	covered := map[string]bool{
		"fig1": true, "fig3": true, "fig4": true, "fig5": true, "fig6": true,
		"fig7": true, "fig8": true, "fig9": true, "fig10": true, "fig11": true,
		"fig12": true, "fig13": true, "fig14": true, "table1": true,
		"othermodels": true, "snc": true,
		"sev": true, "b100": true, "scaleout": true, "hybrid": true,
		"spr": true, "ablation": true, "serving": true,
		"chunked": true, "prefix": true, "fleet": true,
		"hetero": true, "autoscale": true, "preempt": true, "obs": true,
		"attrib": true, "overload": true, "disagg": true,
	}
	for _, e := range Experiments() {
		if !covered[e.ID] {
			t.Errorf("experiment %s has no benchmark target", e.ID)
		}
	}
	if len(Experiments()) != len(covered) {
		t.Errorf("experiment count %d != benchmark count %d", len(Experiments()), len(covered))
	}
}
