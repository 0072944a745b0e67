package serve

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"cllm/internal/stats"
	"cllm/internal/tee"
	"cllm/internal/workload"
)

// runExactSharded runs cfg through the epoch-sharded exact path.
func runExactSharded(t *testing.T, cfg Config, epoch int) (*Report, []int) {
	t.Helper()
	cfg.EpochRequests = epoch
	rep, order, err := runAudited(cpuBackend(tee.TDX()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep, order
}

// TestShardedExactGolden pins the tentpole's safety net: the epoch-sharded
// scheduler path in exact mode is byte-identical to the monolithic one —
// same report (every counter, float and per-request metric) and the same
// admission order — whatever the epoch size, for Poisson, trace and
// scenario loads.
func TestShardedExactGolden(t *testing.T) {
	trace := []Request{
		{ID: 0, ArrivalSec: 0, InputLen: 64, OutputLen: 8},
		{ID: 1, ArrivalSec: 0.05, InputLen: 96, OutputLen: 6},
		{ID: 2, ArrivalSec: 0.05, InputLen: 32, OutputLen: 12}, // tie with ID 1
		{ID: 3, ArrivalSec: 0.2, InputLen: 64, OutputLen: 8},
		{ID: 4, ArrivalSec: 0.9, InputLen: 128, OutputLen: 4},
		{ID: 5, ArrivalSec: 1.4, InputLen: 64, OutputLen: 8},
		{ID: 6, ArrivalSec: 1.4, InputLen: 64, OutputLen: 8}, // tie at an epoch seam (epoch=3)
	}
	diurnal, err := workload.ParseScenario("diurnal", 25)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"poisson", tinyConfig(25, 40)},
		{"poisson-overload", tinyConfig(400, 60)},
		{"trace", func() Config {
			c := tinyConfig(1, 0)
			c.Trace = trace
			return c
		}()},
		{"scenario", func() Config {
			c := tinyConfig(25, 40)
			c.Scenario = &diurnal
			return c
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantRep, wantOrder, err := runAudited(cpuBackend(tee.TDX()), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, epoch := range []int{1, 3, 17, 100000} {
				rep, order := runExactSharded(t, tc.cfg, epoch)
				if !reflect.DeepEqual(rep, wantRep) {
					t.Fatalf("epoch %d: sharded report differs from monolithic\n got %+v\nwant %+v", epoch, rep, wantRep)
				}
				if !reflect.DeepEqual(order, wantOrder) {
					t.Fatalf("epoch %d: admission order differs: %v vs %v", epoch, order, wantOrder)
				}
			}
		})
	}
	// Every deployment runs through the same driver, so fleets — unified
	// and disaggregated — and elastic deployments honour EpochRequests too,
	// byte-identically to their one-epoch runs.
	deployments := []struct {
		name string
		run  func(Config) (any, error)
	}{
		{"fleet-least-loaded", func(cfg Config) (any, error) {
			return RunFleet(cpuBackend(tee.TDX()), cfg, FleetConfig{Replicas: 3, Policy: LeastLoaded})
		}},
		{"disagg", func(cfg Config) (any, error) {
			f, err := NewFleet(disaggTopology())
			if err != nil {
				return nil, err
			}
			return f.Run(cfg)
		}},
		{"autoscaled-two-class", func(cfg Config) (any, error) {
			c := &twoClass{}
			p, err := Drive(cfg, c)
			if err != nil {
				return nil, err
			}
			if !c.scaled || c.held == 0 {
				return nil, fmt.Errorf("run too mild: scaled=%v, %d arrivals held", c.scaled, c.held)
			}
			return []any{p.Aggregate(func(int) bool { return true }), c.windows, p.Now()}, nil
		}},
	}
	for _, d := range deployments {
		t.Run(d.name, func(t *testing.T) {
			cfg := tinyConfig(80, 60)
			want, err := d.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, epoch := range []int{1, 3, 17, 100000} {
				cfg.EpochRequests = epoch
				got, err := d.run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("epoch %d: sharded run differs from the one-epoch run", epoch)
				}
			}
		})
	}
}

// twoClass is a small elastic controller in the autoscaler's mould, for
// driver tests: a TDX replica that is cold at t=0 (early arrivals wait in a
// pending queue), and a baremetal replica a periodic control tick
// activates, after its own cold start, once the backlog builds. Arrivals
// go to the least-loaded servable replica.
type twoClass struct {
	servable   [2]bool
	scaled     bool
	held       int // arrivals that waited in pending
	pending    []Arrival
	dispatched int
	windows    []int // backlog at each tick
}

const twoClassTick, twoClassCold = 0.05, 0.03

func (c *twoClass) Start(p *Pool) error {
	if err := p.Add(0, cpuBackend(tee.TDX()), p.cfg.Seed+104729); err != nil {
		return err
	}
	p.After(twoClassCold, func() { c.servable[0] = true; c.flush(p) })
	p.After(twoClassTick, func() { c.tick(p) })
	return nil
}

func (c *twoClass) pick(p *Pool) int {
	best := -1
	for id, ok := range c.servable {
		if ok && (best < 0 || p.Outstanding(id) < p.Outstanding(best)) {
			best = id
		}
	}
	return best
}

func (c *twoClass) Dispatch(p *Pool, a Arrival) {
	id := c.pick(p)
	if id < 0 {
		c.pending = append(c.pending, a)
		c.held++
		return
	}
	p.Submit(id, a)
	c.dispatched++
}

func (c *twoClass) flush(p *Pool) {
	queued := c.pending
	c.pending = nil
	for _, a := range queued {
		c.Dispatch(p, a)
	}
}

func (c *twoClass) tick(p *Pool) {
	backlog := len(c.pending)
	for id, ok := range c.servable {
		if ok {
			backlog += p.Outstanding(id)
		}
	}
	c.windows = append(c.windows, backlog)
	if backlog > 4 && !c.scaled {
		c.scaled = true
		if err := p.Add(1, cpuBackend(tee.Baremetal()), p.cfg.Seed+7919+104729); err != nil {
			return
		}
		p.After(twoClassCold, func() { c.servable[1] = true; c.flush(p) })
	}
	if c.dispatched < p.Offered() || backlog > 0 {
		p.After(twoClassTick, func() { c.tick(p) })
	}
}

// TestShardedRejectsUnsortedTrace: epoch sharding drains the engine past
// each batch's last arrival, so an out-of-order trace cannot be replayed
// faithfully — it must be an error, not a silent reordering. The
// monolithic path still accepts it.
func TestShardedRejectsUnsortedTrace(t *testing.T) {
	cfg := tinyConfig(1, 0)
	cfg.Trace = []Request{
		{ID: 0, ArrivalSec: 1.0, InputLen: 64, OutputLen: 8},
		{ID: 1, ArrivalSec: 0.5, InputLen: 64, OutputLen: 8},
	}
	if _, err := Run(cpuBackend(tee.TDX()), cfg); err != nil {
		t.Fatalf("monolithic run rejected unsorted trace: %v", err)
	}
	cfg.EpochRequests = 1
	if _, err := Run(cpuBackend(tee.TDX()), cfg); err == nil {
		t.Fatal("sharded exact run accepted an unsorted trace")
	}
	cfg.EpochRequests = 0
	cfg.QuantileMode = QuantileSketch
	if _, err := Run(cpuBackend(tee.TDX()), cfg); err == nil {
		t.Fatal("sketch run accepted an unsorted trace")
	}
}

// runSketch runs cfg in sketch mode with the given epoch size.
func runSketch(t *testing.T, cfg Config, epoch int) *Report {
	t.Helper()
	cfg.QuantileMode = QuantileSketch
	cfg.EpochRequests = epoch
	rep, err := Run(cpuBackend(tee.TDX()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Sketched || rep.SketchAlpha <= 0 {
		t.Fatalf("report not marked sketched: Sketched=%v alpha=%g", rep.Sketched, rep.SketchAlpha)
	}
	if rep.Requests != nil {
		t.Fatalf("sketch report retained %d per-request metrics", len(rep.Requests))
	}
	return rep
}

// stripSketches clears the raw sketch pointers so reports can be
// DeepEqual-compared across epoch sizes: merging per-epoch sketches
// regroups their float sums (quantiles and counts are integer-derived and
// stay bit-identical; the report's Mean fields come from epoch-independent
// running sums, so they must match exactly too).
func stripSketches(rep *Report) *Report {
	c := *rep
	c.TTFTSketch, c.TPOTSketch, c.LatencySketch = nil, nil, nil
	return &c
}

// TestSketchEpochInvariance: the sketched report — every counter, rate,
// quantile and mean — is invariant to the epoch size, and the underlying
// sketches agree bucket-for-bucket on quantiles, count and extrema.
func TestSketchEpochInvariance(t *testing.T) {
	diurnal, err := workload.ParseScenario("diurnal", 30)
	if err != nil {
		t.Fatal(err)
	}
	scenarioCfg := tinyConfig(30, 300)
	scenarioCfg.Scenario = &diurnal
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"poisson", tinyConfig(30, 300)},
		{"scenario", scenarioCfg},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := runSketch(t, tc.cfg, 7)
			for _, epoch := range []int{1, 64, 1 << 20} {
				got := runSketch(t, tc.cfg, epoch)
				if !reflect.DeepEqual(stripSketches(got), stripSketches(want)) {
					t.Fatalf("epoch %d vs 7: sketched reports differ\n got %+v\nwant %+v",
						epoch, stripSketches(got), stripSketches(want))
				}
				for _, sk := range []struct {
					name     string
					got, ref *stats.Sketch
				}{
					{"TTFT", got.TTFTSketch, want.TTFTSketch},
					{"TPOT", got.TPOTSketch, want.TPOTSketch},
					{"latency", got.LatencySketch, want.LatencySketch},
				} {
					if sk.got.Count() != sk.ref.Count() || sk.got.Min() != sk.ref.Min() || sk.got.Max() != sk.ref.Max() {
						t.Fatalf("epoch %d: %s sketch count/min/max differ", epoch, sk.name)
					}
					for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
						if a, b := sk.got.Quantile(q), sk.ref.Quantile(q); a != b {
							t.Fatalf("epoch %d: %s Quantile(%g) = %g vs %g", epoch, sk.name, q, a, b)
						}
					}
				}
			}
		})
	}
}

// exactRankOf is the order statistic the sketch's error bound is stated
// against: the element of rank floor(q·(n−1)).
func exactRankOf(sorted []float64, q float64) float64 {
	return sorted[int(q*float64(len(sorted)-1))]
}

// TestSketchMatchesExactRun is the cross-mode equivalence check: on the
// same Poisson load, the sketch run's event stream — and with it every
// counter, the makespan and throughput — is byte-identical to the exact
// run's, and the sketched quantiles land within the documented relative
// error bound of the exact run's order statistics. This is also the
// guard against the latent merge drift the exact path allowed: sketched
// per-epoch merges must reproduce the exact union, not approximately
// re-aggregate it.
func TestSketchMatchesExactRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"underload", tinyConfig(20, 2000)},
		{"overload-drops", tinyConfig(500, 800)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			exact, err := Run(cpuBackend(tee.TDX()), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			sk := runSketch(t, tc.cfg, 64)

			if sk.Completed != exact.Completed || sk.Dropped != exact.Dropped ||
				sk.Unfinished != exact.Unfinished || sk.Preemptions != exact.Preemptions {
				t.Fatalf("request partition differs: sketch %d/%d/%d/%d, exact %d/%d/%d/%d",
					sk.Completed, sk.Dropped, sk.Unfinished, sk.Preemptions,
					exact.Completed, exact.Dropped, exact.Unfinished, exact.Preemptions)
			}
			if sk.TotalTokens != exact.TotalTokens || sk.MakespanSec != exact.MakespanSec ||
				sk.TokensPerSec != exact.TokensPerSec {
				t.Fatalf("token/throughput figures differ: sketch %d/%g/%g, exact %d/%g/%g",
					sk.TotalTokens, sk.MakespanSec, sk.TokensPerSec,
					exact.TotalTokens, exact.MakespanSec, exact.TokensPerSec)
			}
			if sk.SwapOuts != exact.SwapOuts || sk.SwapIns != exact.SwapIns ||
				sk.EvictedBlocks != exact.EvictedBlocks || sk.PeakKVBlocksInUse != exact.PeakKVBlocksInUse {
				t.Fatalf("KV counters differ between modes")
			}
			if sk.GoodRequests != exact.GoodRequests || sk.GoodOutputTokens != exact.GoodOutputTokens ||
				sk.CompletedOutputTokens != exact.CompletedOutputTokens {
				t.Fatalf("goodput counters differ: sketch %d/%d/%d, exact %d/%d/%d",
					sk.GoodRequests, sk.GoodOutputTokens, sk.CompletedOutputTokens,
					exact.GoodRequests, exact.GoodOutputTokens, exact.CompletedOutputTokens)
			}
			if sk.GoodputTokensPerSec != exact.GoodputTokensPerSec || sk.SLOAttainment() != exact.SLOAttainment() {
				t.Fatalf("goodput rates differ: %g vs %g", sk.GoodputTokensPerSec, exact.GoodputTokensPerSec)
			}

			var ttfts, tpots, lats []float64
			for _, m := range exact.Requests {
				ttfts = append(ttfts, m.TTFT)
				lats = append(lats, m.Latency)
				if m.OutputTokens > 1 {
					tpots = append(tpots, m.TPOT)
				}
			}
			for _, c := range []struct {
				name    string
				samples []float64
				sk      *stats.Sketch
				mean    float64
			}{
				{"TTFT", ttfts, sk.TTFTSketch, sk.TTFT.Mean},
				{"TPOT", tpots, sk.TPOTSketch, sk.TPOT.Mean},
				{"latency", lats, sk.LatencySketch, sk.Latency.Mean},
			} {
				sort.Float64s(c.samples)
				if int64(len(c.samples)) != c.sk.Count() {
					t.Fatalf("%s: sketch saw %d samples, exact run has %d", c.name, c.sk.Count(), len(c.samples))
				}
				for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
					want := exactRankOf(c.samples, q)
					got := c.sk.Quantile(q)
					if rel := math.Abs(got-want) / want; rel > sk.SketchAlpha+1e-9 {
						t.Errorf("%s p%g: sketch %g vs exact %g (rel err %.4g > alpha %g)",
							c.name, 100*q, got, want, rel, sk.SketchAlpha)
					}
				}
				wantMean := stats.Mean(c.samples)
				if math.Abs(c.mean-wantMean) > 1e-9*wantMean {
					t.Errorf("%s mean: sketch %g vs exact %g", c.name, c.mean, wantMean)
				}
			}
		})
	}
}

// TestStreamedConservation drives a streamed lone replica directly and checks
// the physical conservation laws the sharded handoff must preserve: the
// request partition sums to the submissions, every KV block is accounted
// for (refcount conservation via CheckConservation), and nothing leaks
// across epoch boundaries.
func TestStreamedConservation(t *testing.T) {
	for _, tc := range []struct {
		name string
		rate float64
		n    int
	}{
		{"underload", 30, 400},
		{"overload", 600, 500}, // drops + preemptions cross epoch seams
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyConfig(tc.rate, tc.n)
			cfg.QuantileMode = QuantileSketch
			cfg.EpochRequests = 32
			if err := cfg.normalize(); err != nil {
				t.Fatal(err)
			}
			p := newPool(cfg)
			if err := p.Add(0, cpuBackend(tee.TDX()), cfg.Seed); err != nil {
				t.Fatal(err)
			}
			s := p.reps[0]
			s.stream = newStreamAccum(cfg.SketchAlpha)
			src, err := newArrivalSource(cfg, rand.New(rand.NewSource(cfg.Seed)))
			if err != nil {
				t.Fatal(err)
			}
			if err := p.drive(src, lone{s}); err != nil {
				t.Fatal(err)
			}
			rep := s.report()
			if got := rep.Completed + rep.Dropped + rep.Unfinished; got != tc.n {
				t.Fatalf("request partition %d+%d+%d = %d, want %d submissions",
					rep.Completed, rep.Dropped, rep.Unfinished, got, tc.n)
			}
			if err := s.kv.CheckConservation(); err != nil {
				t.Fatalf("KV refcount conservation broken after epoch handoffs: %v", err)
			}
			if rep.Unfinished == 0 && rep.KVBlocksInUseAtEnd != 0 {
				t.Fatalf("leaked %d KV blocks with no unfinished requests", rep.KVBlocksInUseAtEnd)
			}
			if rep.Completed > 0 && (rep.TotalTokens < rep.Completed || rep.TTFTSketch.Count() != int64(rep.Completed)) {
				t.Fatalf("token/sketch ledgers inconsistent: tokens %d, completed %d, sketch count %d",
					rep.TotalTokens, rep.Completed, rep.TTFTSketch.Count())
			}
		})
	}
}

// TestFleetSketchMatchesExact: a sketched fleet run dispatches identically
// to the exact one (same event stream), its per-replica and merged
// counters match, and the merged sketch quantiles stay within the error
// bound of the exact aggregate's order statistics.
func TestFleetSketchMatchesExact(t *testing.T) {
	cfg := tinyConfig(60, 300)
	fcfg := FleetConfig{Replicas: 3, Policy: LeastLoaded}
	exact, err := RunFleet(cpuBackend(tee.TDX()), cfg, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	skCfg := cfg
	skCfg.QuantileMode = QuantileSketch
	sketched, err := RunFleet(cpuBackend(tee.TDX()), skCfg, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sketched.Dispatch, exact.Dispatch) {
		t.Fatalf("dispatch differs: %v vs %v", sketched.Dispatch, exact.Dispatch)
	}
	for i := range exact.PerReplica {
		e, s := exact.PerReplica[i], sketched.PerReplica[i]
		if !s.Sketched {
			t.Fatalf("replica %d report not sketched", i)
		}
		if s.Completed != e.Completed || s.TotalTokens != e.TotalTokens || s.MakespanSec != e.MakespanSec {
			t.Fatalf("replica %d counters differ between modes", i)
		}
	}
	ea, sa := exact.Aggregate, sketched.Aggregate
	if !sa.Sketched {
		t.Fatal("merged aggregate not sketched")
	}
	if sa.Completed != ea.Completed || sa.TotalTokens != ea.TotalTokens ||
		sa.GoodRequests != ea.GoodRequests || sa.GoodOutputTokens != ea.GoodOutputTokens ||
		sa.GoodputTokensPerSec != ea.GoodputTokensPerSec {
		t.Fatalf("aggregate counters differ: sketch %+v, exact %+v", sa, ea)
	}
	var lats []float64
	for _, m := range ea.Requests {
		lats = append(lats, m.Latency)
	}
	sort.Float64s(lats)
	for _, q := range []float64{0.5, 0.95, 0.99} {
		want := exactRankOf(lats, q)
		got := sa.LatencySketch.Quantile(q)
		if rel := math.Abs(got-want) / want; rel > sa.SketchAlpha+1e-9 {
			t.Errorf("merged latency p%g: sketch %g vs exact %g (rel err %.4g)", 100*q, got, want, rel)
		}
	}
	// The replicas of one run share a quantile mode: a mixed merge has no
	// lossless answer and panics, like a mismatched alpha.
	defer func() {
		if recover() == nil {
			t.Fatal("mixed exact+sketched merge did not panic")
		}
	}()
	MergeReports(cfg.Rate, []*Report{sketched.PerReplica[0], exact.PerReplica[1]})
}

// heapHighWater samples HeapAlloc while fn runs and returns the peak.
func heapHighWater(fn func()) uint64 {
	var peak atomic.Uint64
	done := make(chan struct{})
	go func() {
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			for {
				old := peak.Load()
				if ms.HeapAlloc <= old || peak.CompareAndSwap(old, ms.HeapAlloc) {
					break
				}
			}
			select {
			case <-done:
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()
	fn()
	close(done)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > peak.Load() {
		peak.Store(ms.HeapAlloc)
	}
	return peak.Load()
}

// TestSketchModeFlatMemory is the bounded-memory regression gate: growing
// the request count 10× in sketch mode must not grow the heap high-water
// mark materially — the whole point of the tentpole. The exact mode's
// per-request ledger grows linearly; the sketch mode's must not. Set
// CLLM_FLATMEM_LARGE=1 to extend the check to 10⁷ requests.
func TestSketchModeFlatMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("memory regression check is not -short friendly")
	}
	run := func(n int) {
		cfg := tinyConfig(50, n)
		cfg.QuantileMode = QuantileSketch
		rep, err := Run(cpuBackend(tee.Baremetal()), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Completed+rep.Dropped+rep.Unfinished != n {
			t.Fatalf("lost requests: %+v", rep)
		}
	}
	sizes := []int{100_000, 1_000_000}
	if os.Getenv("CLLM_FLATMEM_LARGE") != "" {
		sizes = append(sizes, 10_000_000)
	}
	peaks := make([]uint64, len(sizes))
	for i, n := range sizes {
		runtime.GC()
		peaks[i] = heapHighWater(func() { run(n) })
		t.Logf("%d requests: heap high-water %.1f MiB", n, float64(peaks[i])/(1<<20))
	}
	// Allow generous slack for GC timing jitter: what must NOT happen is
	// the linear growth a retained per-request ledger (~100 B/req, i.e.
	// ~10× per size step here) would show.
	const slackBytes = 32 << 20
	for i := 1; i < len(peaks); i++ {
		if peaks[i] > 2*peaks[0]+slackBytes {
			t.Fatalf("heap high-water grew with request count: %v bytes across %v requests", peaks, sizes)
		}
	}
}

// BenchmarkServeSchedulerSketch mirrors BenchmarkServeScheduler on the
// bounded-memory path, so the bench ledger tracks the streaming runner's
// throughput alongside the exact one's.
func BenchmarkServeSchedulerSketch(b *testing.B) {
	cfg := tinyConfig(50, 2000)
	cfg.QuantileMode = QuantileSketch
	be := cpuBackend(tee.TDX())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(be, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
