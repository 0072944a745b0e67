// TestWorkCounts is the repo's perf gate: it runs a fixed set of small
// deterministic serving configs and pins the work each layer does — the
// scheduler's events by kind, KV evictions and prefix-cache tokens, sketch
// adds, autoscaler windows, step-coster misses, and Go allocations and
// bytes per run — in testdata/workcount.json. Counts are exact, so a change
// that does more work anywhere fails and names the config and the layer;
// wall-clock claims come from the benchmark (bash bench/run.sh). Refresh the
// pins after an intended change with
//
//	go test -run TestWorkCounts -update .
package cllm

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"cllm/internal/autoscale"
	"cllm/internal/cloud"
	"cllm/internal/dtype"
	"cllm/internal/gramine"
	"cllm/internal/hw"
	"cllm/internal/model"
	"cllm/internal/obs"
	"cllm/internal/perf"
	"cllm/internal/serve"
	"cllm/internal/stats"
	"cllm/internal/tee"
	"cllm/internal/trace"
	"cllm/internal/workload"
)

var updateWorkCounts = flag.Bool("update", false, "rewrite testdata/workcount.json from this run")

const workCountFile = "testdata/workcount.json"

// allocSamples is how many warmed runs allocsPerRun takes the fewest
// allocations of.
const allocSamples = 16

// workPins is the layout of testdata/workcount.json.
type workPins struct {
	About string `json:"about"`
	// Go is the toolchain minor the go.* legs were measured on; other
	// toolchains skip those legs (their runtimes and maps allocate
	// differently).
	Go string `json:"go"`
	// Configs maps each config to its pinned count per layer.
	Configs map[string]map[string]int64 `json:"configs"`
}

const workPinsAbout = "Exact per-layer work counts of TestWorkCounts's configs (workcount_test.go), seed 1, amd64. " +
	"A count above its pin fails; go.bytes_per_run may drift 1%. " +
	"Refresh with: go test -run TestWorkCounts -update . — and note the re-pin in CHANGES.md."

// raceDetector is set in race-enabled builds (workcount_race_test.go).
var raceDetector bool

// workCounter is a serve.Observer that counts the event stream by kind.
type workCounter struct {
	kinds           [serve.EvHandoff + 1]int64
	events, samples int64
}

func (c *workCounter) Event(ev serve.Event) { c.kinds[ev.Kind]++; c.events++ }
func (c *workCounter) Sample(serve.Sample)  { c.samples++ }

// workOutcome is what one run of a config reports.
type workOutcome struct {
	agg  *serve.Report
	auto *autoscale.Report
}

// workRig is one prepared config. run executes it once with o chained
// after the config's own observers (o is nil on the measured alloc runs;
// observation never changes the simulated timing). entries sums the
// memoized costs of the step costers the config prices with.
type workRig struct {
	run     func(tb testing.TB, o serve.Observer) workOutcome
	entries func() int
}

var workConfigs = []struct {
	name  string
	build func() workRig
}{
	{"serve-scheduler", func() workRig { return schedulerRig(false) }},
	{"serve-scheduler-observed", func() workRig { return schedulerRig(true) }},
	{"chat-single", func() workRig { return chatRig(false) }},
	{"chat-single-streamed", func() workRig { return chatRig(true) }},
	{"rag-fleet", ragFleetRig},
	{"sgx-overload-observed", sgxOverloadRig},
	{"autoscale-diurnal", autoscaleRig},
	{"disagg", disaggRig},
}

func TestWorkCounts(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("work counts are pinned on amd64; %s may fuse multiply-adds and move the simulated timing", runtime.GOARCH)
	}
	if *updateWorkCounts && raceDetector {
		t.Fatal("-update needs a build without -race: the race detector changes allocation counts")
	}
	goMinor := goMinorVersion()
	var pins workPins
	if !*updateWorkCounts {
		b, err := os.ReadFile(workCountFile)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &pins); err != nil {
			t.Fatalf("%s: %v", workCountFile, err)
		}
	}
	allocLegs := !raceDetector && (*updateWorkCounts || goMinor == pins.Go)
	switch {
	case raceDetector:
		t.Log("skipping the go.* legs under the race detector")
	case !allocLegs:
		t.Logf("skipping the go.* legs: they are pinned for %s, this is %s", pins.Go, runtime.Version())
	}

	measured := map[string]map[string]int64{}
	for _, wc := range workConfigs {
		rig := wc.build()
		var c workCounter
		got := workCounts(rig.run(t, &c), &c, rig.entries())
		if allocLegs {
			got["go.allocs_per_run"], got["go.bytes_per_run"] = allocsPerRun(func() { rig.run(t, nil) })
		}
		measured[wc.name] = got
		if !*updateWorkCounts {
			checkWorkCounts(t, wc.name, pins.Configs[wc.name], got, allocLegs)
		}
	}
	for name := range pins.Configs {
		if measured[name] == nil {
			t.Errorf("%s pins config %q, which TestWorkCounts no longer runs", workCountFile, name)
		}
	}

	if *updateWorkCounts {
		b, err := json.MarshalIndent(workPins{About: workPinsAbout, Go: goMinor, Configs: measured}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(workCountFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", workCountFile)
	}
}

// checkWorkCounts fails every layer of one config that measured above its
// pin and logs every one that fell below it.
func checkWorkCounts(t *testing.T, config string, pinned, got map[string]int64, allocLegs bool) {
	t.Helper()
	if pinned == nil {
		t.Errorf("%s: no pins in %s; run go test -run TestWorkCounts -update .", config, workCountFile)
		return
	}
	for layer, want := range pinned {
		if strings.HasPrefix(layer, "go.") && !allocLegs {
			continue
		}
		v, ok := got[layer]
		if !ok {
			t.Errorf("%s: %s is pinned at %d but no longer measured", config, layer, want)
			continue
		}
		hi, lo := want, want
		if layer == "go.bytes_per_run" {
			hi, lo = want+want/100, want-want/100
		}
		switch {
		case v > hi:
			t.Errorf("%s: %s = %d, pinned at %d", config, layer, v, want)
		case v < lo:
			t.Logf("%s: %s fell to %d from its pin %d; re-pin with -update and note it in CHANGES.md", config, layer, v, want)
		}
	}
	for layer, v := range got {
		if _, ok := pinned[layer]; !ok {
			t.Errorf("%s: %s = %d has no pin; run go test -run TestWorkCounts -update .", config, layer, v)
		}
	}
}

// workCounts reads one observed run's per-layer counts.
func workCounts(out workOutcome, c *workCounter, misses int) map[string]int64 {
	a := out.agg
	m := map[string]int64{
		"serve.sched.rounds":          c.kinds[serve.EvDecodeRound],
		"serve.sched.admits":          c.kinds[serve.EvAdmit],
		"serve.sched.prefill_chunks":  c.kinds[serve.EvPrefillChunk],
		"serve.sched.drops":           c.kinds[serve.EvDrop],
		"serve.sched.sheds":           c.kinds[serve.EvShed],
		"serve.sched.retries":         c.kinds[serve.EvRetry],
		"serve.sched.crashes":         c.kinds[serve.EvCrash],
		"serve.kv.preemptions":        c.kinds[serve.EvPreempt],
		"serve.kv.swap_outs":          c.kinds[serve.EvSwapOut],
		"serve.kv.swap_ins":           c.kinds[serve.EvSwapIn],
		"serve.fleet.handoffs":        c.kinds[serve.EvHandoff],
		"obs.events":                  c.events,
		"obs.samples":                 c.samples,
		"serve.kv.evicted_blocks":     int64(a.EvictedBlocks),
		"serve.kv.prefix_hit_tokens":  int64(a.PrefixCacheHitTokens),
		"serve.kv.prefix_miss_tokens": int64(a.PrefixCacheMissTokens),
		"perf.misses":                 int64(misses),
	}
	var adds int64
	for _, sk := range [...]*stats.Sketch{a.TTFTSketch, a.TPOTSketch, a.LatencySketch} {
		if sk != nil {
			adds += sk.Count()
		}
	}
	m["stats.sketch_adds"] = adds
	if out.auto != nil {
		m["autoscale.windows"] = int64(len(out.auto.Windows))
	}
	return m
}

// allocsPerRun measures run's allocations and allocated bytes per call, as
// runtime.MemStats deltas: the fewest over allocSamples warmed runs. The GC
// is off and GOMAXPROCS is 1 meanwhile, so pooled buffers survive from one
// run to the next. The minimum discards what one run can add by chance: a
// stray allocation by another goroutine (MemStats counts process-wide), or
// an extra growth of a Go map whose random hash seed left it more
// tombstones under insert/delete churn. An average (testing.AllocsPerRun)
// would turn either into a spurious +1.
func allocsPerRun(run func()) (allocs, bytes int64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run()
	allocs, bytes = math.MaxInt64, math.MaxInt64
	var before, after runtime.MemStats
	for range allocSamples {
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		allocs = min(allocs, int64(after.Mallocs-before.Mallocs))
		bytes = min(bytes, int64(after.TotalAlloc-before.TotalAlloc))
	}
	return allocs, bytes
}

// goMinorVersion is the running toolchain's minor ("go1.24"), or its full
// version string for development builds.
func goMinorVersion() string {
	v := runtime.Version()
	if parts := strings.SplitN(v, ".", 3); len(parts) >= 2 && strings.HasPrefix(v, "go1.") {
		return parts[0] + "." + parts[1]
	}
	return v
}

// must unwraps a set-up call that cannot fail on the fixed configs.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// costerEntries sums the memoized costs of cs.
func costerEntries(cs ...*perf.StepCoster) func() int {
	return func() int {
		n := 0
		for _, c := range cs {
			n += c.Entries()
		}
		return n
	}
}

// schedulerRig is BenchmarkServeScheduler's run (observe:
// BenchmarkServeSchedulerObserved's). Its measured runs are the benchmark's
// own helper; the counting run lowers and deploys the same ServeConfig
// the way Session.Serve does, with the counter chained on.
func schedulerRig(observe bool) workRig {
	s := must(Open(Config{Platform: "tdx", Seed: 1}))
	cfg := schedulerConfig(observe)
	return workRig{
		run: func(tb testing.TB, o serve.Observer) workOutcome {
			if o == nil {
				return workOutcome{agg: &serveScheduler(tb, s, observe).Report}
			}
			scfg := must(cfg.lower(s.cfg.Seed))
			be, _, _, twin, err := s.deploy(cfg, &scfg)
			if err != nil {
				tb.Fatal(err)
			}
			rec, attrib, err := cfg.observe(&scfg, twin, be)
			if err != nil {
				tb.Fatal(err)
			}
			scfg.Observer = obs.Multi(rec, attrib, o)
			rep := must(serve.Run(be, scfg))
			if rec != nil {
				rec.Recycle()
			}
			return workOutcome{agg: rep}
		},
		entries: func() int {
			n := 0
			for _, c := range s.costers {
				n += c.Entries()
			}
			return n
		},
	}
}

// emr1Backend is one EMR1 socket with AMX under platform p.
func emr1Backend(p tee.Platform) serve.Backend {
	return serve.Backend{CPU: perf.CPURun{CPU: hw.EMR1(), Platform: p, Sockets: 1, AMX: true}}
}

// cgpuBackend is one H100 NVL in confidential-computing mode.
func cgpuBackend() serve.Backend {
	return serve.Backend{IsGPU: true, GPU: perf.GPURun{GPU: hw.H100NVL(), Platform: tee.CGPU()}}
}

func llama7B() trace.Workload {
	return trace.Workload{Model: must(model.Lookup("llama2-7b")), Kind: dtype.BF16}
}

// workBase is the set-up the benchmark's workloads share, at work-count
// size: llama2-7b bf16 under scenario at rate, seed 1.
func workBase(scenario string, rate float64, requests int) serve.Config {
	sc := must(workload.ParseScenario(scenario, rate))
	return serve.Config{Workload: llama7B(), Scenario: &sc, Requests: requests, Seed: 1}
}

// withCoster returns be with a fresh step coster for cfg.
func withCoster(be serve.Backend, cfg serve.Config) serve.Backend {
	be.Coster = must(serve.NewStepCoster(be, cfg))
	return be
}

// fleetRig runs cfg on fleet f.
func fleetRig(f *serve.Fleet, cfg serve.Config, entries func() int) workRig {
	return workRig{
		run: func(tb testing.TB, o serve.Observer) workOutcome {
			c := cfg
			c.Observer = o
			return workOutcome{agg: must(f.Run(c)).Aggregate}
		},
		entries: entries,
	}
}

// chatRig is the chat-single shape: a lone TDX replica on poisson+chat with
// exact quantiles, or (streamed) in sketch mode with small epochs, which
// takes the epoch-streamed run loop.
func chatRig(streamed bool) workRig {
	cfg := workBase("poisson+chat", 0.7, 2000)
	be := withCoster(emr1Backend(tee.TDX()), cfg)
	if streamed {
		cfg.QuantileMode = serve.QuantileSketch
		cfg.EpochRequests = 256
	}
	return workRig{
		run: func(tb testing.TB, o serve.Observer) workOutcome {
			c := cfg
			c.Observer = o
			return workOutcome{agg: must(serve.Run(be, c))}
		},
		entries: costerEntries(be.Coster),
	}
}

// ragFleetRig is the rag-fleet shape: an 8-replica prefix-affinity fleet
// with prefix sharing and 512-token chunks in sketch mode.
func ragFleetRig() workRig {
	cfg := workBase("diurnal+rag", 2.0, 256)
	be := withCoster(emr1Backend(tee.TDX()), cfg)
	cfg.PrefixSharing = true
	cfg.ChunkTokens = 512
	cfg.QuantileMode = serve.QuantileSketch
	f := must(serve.NewFleet(serve.Unified(be, serve.FleetConfig{Replicas: 8, Policy: serve.PrefixAffinity})))
	return fleetRig(f, cfg, costerEntries(be.Coster))
}

// sgxOverloadRig is the sgx-overload-observed shape: an SGX enclave with
// room for 8192 KV tokens under bursty agentic traffic, with automatic
// preemption, shedding admission, two retries, a scripted crash, and a
// fresh recorder plus clear-costed attribution on every run. Unlike the
// benchmark's shape it also shares prefixes, so the small pool evicts
// cached prefix blocks: no other config does.
func sgxOverloadRig() workRig {
	wl := llama7B()
	enclave := int64(trace.WeightFootprint(wl)) + 8192*wl.Model.KVCacheBytesPerToken(wl.Kind.Size())
	cfg := workBase("bursty+agentic", 0.25, 600)
	be := withCoster(emr1Backend(must(tee.SGX(gramine.DefaultManifest("llama2-7b.bin", enclave, 64)))), cfg)
	cfg.MaxBatch = 16
	cfg.ChunkTokens = 512
	cfg.PrefixSharing = true
	cfg.PreemptPolicy = serve.PreemptAuto
	cfg.Faults = serve.FaultConfig{
		Admission: serve.AdmitShed,
		RetryMax:  2,
		Plan:      []serve.FailPoint{{Replica: 0, TimeSec: 600}},
	}
	cfg.QuantileMode = serve.QuantileSketch
	cfg.EpochRequests = 256
	cfg.ClearCoster = must(serve.NewClearStepCoster(be, cfg))
	return workRig{
		run: func(tb testing.TB, o serve.Observer) workOutcome {
			rec := obs.NewRecorder()
			attrib := must(obs.NewAttribution(0, true))
			c := cfg
			c.Observer = obs.Multi(rec, attrib, o)
			rep := must(serve.Run(be, c))
			rec.Recycle()
			return workOutcome{agg: rep}
		},
		entries: costerEntries(be.Coster, cfg.ClearCoster),
	}
}

// autoscaleRig is the autoscale-diurnal shape: elastic tdx (1-6) and cgpu
// (0-2) classes under diurnal chat traffic with cost-aware dispatch. The
// capacity probes run on coster-less copies, so the costers count only the
// autoscaled run's shapes.
func autoscaleRig() workRig {
	cfg := workBase("diurnal+chat", 2.8, 2000)
	tdx, cgpu := emr1Backend(tee.TDX()), cgpuBackend()
	tdxCap := must(autoscale.ProbeCapacity(tdx, cfg))
	cgpuCap := must(autoscale.ProbeCapacity(cgpu, cfg))
	tdx, cgpu = withCoster(tdx, cfg), withCoster(cgpu, cfg)
	prices := cloud.DefaultPrices()
	tdxHourly := must(prices.HourlyCost(cloud.CPUInstance{VCPUs: hw.EMR1().CoresPerSocket, MemGiB: 128}))
	classes := []autoscale.Class{
		{Name: "tdx", Backend: tdx, HourlyUSD: tdxHourly, ColdStartSec: autoscale.ColdStartSec(tdx, cfg.Workload),
			Min: 1, Max: 6, CapacityReqPerSec: tdxCap},
		{Name: "cgpu", Backend: cgpu, HourlyUSD: prices.CGPUHour, ColdStartSec: autoscale.ColdStartSec(cgpu, cfg.Workload),
			Min: 0, Max: 2, CapacityReqPerSec: cgpuCap},
	}
	return workRig{
		run: func(tb testing.TB, o serve.Observer) workOutcome {
			acfg := autoscale.Config{Dispatch: autoscale.CostAware, Serve: cfg}
			acfg.Serve.Observer = o
			rep := must(autoscale.Run(classes, acfg))
			return workOutcome{agg: rep.Aggregate, auto: rep}
		},
		entries: costerEntries(tdx.Coster, cgpu.Coster),
	}
}

// disaggRig is the disaggregated topology cgpu:1=prefill,tdx:3=decode on
// 1024-token prompts: every request hands its KV cache across the TEE
// boundary.
func disaggRig() workRig {
	wl := llama7B()
	wl.InputLen, wl.OutputLen = 1024, 32
	cfg := serve.Config{Workload: wl, Rate: 6, Requests: 96, Seed: 1}
	cgpu, tdx := withCoster(cgpuBackend(), cfg), withCoster(emr1Backend(tee.TDX()), cfg)
	f := must(serve.NewFleet(serve.Topology{Groups: []serve.RoleGroup{
		{Role: serve.RolePrefill, Backend: cgpu, Replicas: 1},
		{Role: serve.RoleDecode, Backend: tdx, Replicas: 3},
	}}))
	return fleetRig(f, cfg, costerEntries(cgpu.Coster, tdx.Coster))
}
