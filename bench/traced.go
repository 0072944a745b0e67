package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime/pprof"
	"slices"
	"sort"
	"time"

	"cllm/internal/autoscale"
	"cllm/internal/obs"
	"cllm/internal/perf"
	"cllm/internal/serve"
	"cllm/internal/sim"
	"cllm/internal/stats"
)

// Each replayed per-call cost is the least of measureTrials trials of at
// least trialTime each: host contention only ever slows a trial down, so
// the fastest one is the closest to the call's own cost.
const (
	measureTrials = 7
	trialTime     = 15 * time.Millisecond
)

// measure returns the host nanoseconds per unit of work: fn does some
// units of work and reports them with the host time to count for them
// (set-up it does outside that time is not counted).
func measure(fn func() (units int, spent time.Duration)) float64 {
	costs := make([]float64, measureTrials)
	for i := range costs {
		var spent time.Duration
		units := 0
		for spent < trialTime {
			u, d := fn()
			units, spent = units+u, spent+d
		}
		costs[i] = float64(spent.Nanoseconds()) / float64(max(units, 1))
	}
	return slices.Min(costs)
}

// nsPerUnit is measure for an fn timed whole, doing units units per call.
func nsPerUnit(units int, fn func()) float64 {
	return measure(func() (int, time.Duration) {
		start := time.Now()
		fn()
		return units, time.Since(start)
	})
}

// sink keeps replayed results live so the compiler cannot drop the calls.
var sink int

// layerRun is the traced rep: the run with the benchmark's observer
// attached, plus what the replays need from it.
type layerRun struct {
	r        *rig
	out      *outcome
	o        *benchObserver
	requests int
	seed     int64
	// prefixOf/prefixLen are each request's declared shared prefix.
	prefixOf, prefixLen []int32
	// busy is each layer's estimated busy host seconds within the run:
	// its replayed per-call cost times the run's call count.
	busy map[string]float64
}

// tracedRep measures every layer of w. It runs the workload untraced, as
// a timed rep does, then on a fresh rig with the benchmark's observer
// attached, replays each layer's calls, and runs it untraced once more.
// The layer estimates are shares of the mean untraced run time: with an
// untraced run on either side of the replays, host-speed drift on a shared
// machine moves the run time and the estimates together.
func tracedRep(w *benchWorkload, requests int, seed int64, tr *tracer, cpuprofile string) (*repResult, error) {
	res := &repResult{Requests: requests, Layers: map[string]float64{}}
	// plainRun is one untraced run on a fresh rig; it returns the run's
	// host seconds and records its checks and digest.
	plainRun := func() (float64, error) {
		sp := tr.begin("setup")
		r, err := w.build(requests, seed)
		if err != nil {
			return 0, err
		}
		if res.SetupS == 0 {
			res.SetupS = time.Since(procStart).Seconds()
		}
		tr.end(sp)
		sp = tr.begin("run.untraced")
		start := time.Now()
		out, err := r.run()
		if err != nil {
			return 0, err
		}
		wall := time.Since(start).Seconds()
		tr.end(sp)
		res.Failures = append(res.Failures, check(r, out, requests)...)
		if d := digest(out); res.Digest == "" {
			res.Digest = d
		} else if d != res.Digest {
			res.Failures = append(res.Failures, fmt.Sprintf("simulated-output digest %s differs from %s", d, res.Digest))
		}
		return wall, nil
	}
	before, err := plainRun()
	if err != nil {
		return nil, err
	}

	sp := tr.begin("setup")
	r, err := w.build(requests, seed)
	if err != nil {
		return nil, err
	}
	tr.end(sp)
	lr := &layerRun{r: r, requests: requests, seed: seed, busy: map[string]float64{}}
	sp = tr.begin("arrivals")
	nsPerReq, err := lr.arrivals()
	if err != nil {
		return nil, err
	}
	tr.end(sp)
	calls := float64(requests)
	if r.streamed {
		calls *= 2 // the streamed run loop burns one pass of draws first
	}
	res.Layers["workload.ns_per_req"] = nsPerReq
	lr.busy["workload"] = calls * nsPerReq * 1e-9

	sp = tr.begin("run")
	lr.o = newBenchObserver(tr, sp, requests, lr.prefixOf, r.rec != nil)
	r.attach(lr.o)
	var tracedS float64
	err = profiled(cpuprofile, func() error {
		start := time.Now()
		var err error
		lr.out, err = r.run()
		tracedS = time.Since(start).Seconds()
		return err
	})
	if err != nil {
		return nil, err
	}
	tr.end(sp)
	if lr.o.elided > 0 {
		tr.spans[sp].args = map[string]string{"rounds_elided": fmt.Sprint(lr.o.elided)}
	}

	for _, step := range []struct {
		name string
		fn   func(res *repResult) error
	}{
		{"replay.sim", lr.sim},
		{"replay.perf", lr.perf},
		{"replay.kv", lr.kv},
		{"replay.sched", lr.sched},
		{"replay.fleet", lr.fleet},
		{"replay.stats", lr.stats},
		{"replay.obs", lr.obs},
		{"replay.autoscale", lr.autoscale},
	} {
		sp := tr.begin(step.name)
		if err := step.fn(res); err != nil {
			return nil, fmt.Errorf("%s: %w", step.name, err)
		}
		tr.end(sp)
	}

	sp = tr.begin("checks")
	res.Failures = append(res.Failures, check(r, lr.out, requests)...)
	if d := digest(lr.out); d != res.Digest {
		res.Failures = append(res.Failures, fmt.Sprintf("tracing changed the simulated output: digest %s traced, %s untraced", d, res.Digest))
	}
	tr.end(sp)

	after, err := plainRun()
	if err != nil {
		return nil, err
	}
	res.RunS = (before + after) / 2
	self := res.RunS
	for _, layer := range busyLayers {
		self -= lr.busy[layer]
		res.Layers[layer+".busy_share"] = lr.busy[layer] / res.RunS
	}
	res.Layers["serve.sched.self_s_est"] = self
	res.Layers["trace.overhead_frac"] = tracedS/res.RunS - 1
	return res, nil
}

// profiled runs fn under a CPU profile written to path; with no path it
// runs fn bare.
func profiled(path string, fn func() error) error {
	if path == "" {
		return fn()
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	runErr := fn()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil && runErr == nil {
		return err
	}
	return runErr
}

// arrivals times the workload layer — the offered load exactly as the
// run loop draws it — and records each request's shared prefix.
func (lr *layerRun) arrivals() (float64, error) {
	n := lr.requests
	lr.prefixOf, lr.prefixLen = make([]int32, n), make([]int32, n)
	if lr.r.streamed {
		sc := lr.r.cfg.Scenario
		var genErr error
		ns := nsPerUnit(n, func() {
			g, err := sc.Stream(rand.New(rand.NewSource(lr.seed)))
			if err != nil {
				genErr = err
				return
			}
			for i := 0; i < n; i++ {
				req := g.Next()
				lr.prefixOf[i], lr.prefixLen[i] = int32(req.PrefixID), int32(req.PrefixLen)
			}
		})
		return ns, genErr
	}
	var reqs []serve.Request
	var genErr error
	ns := nsPerUnit(n, func() { reqs, genErr = serve.Arrivals(lr.r.cfg) })
	if genErr != nil {
		return 0, genErr
	}
	for _, req := range reqs {
		if req.ID >= 0 && req.ID < n {
			lr.prefixOf[req.ID], lr.prefixLen[req.ID] = int32(req.PrefixID), int32(req.PrefixLen)
		}
	}
	return ns, nil
}

// sim replays the run's arrival and round times through a fresh engine:
// arrivals scheduled ahead (epoch by epoch on the streamed run loop), each
// replica's rounds chained one event at a time as the scheduler does.
func (lr *layerRun) sim(res *repResult) error {
	o := lr.o
	chains := map[int32][]float64{}
	for i, t := range o.roundTimes {
		chains[o.roundReps[i]] = append(chains[o.roundReps[i]], t)
	}
	epoch := len(o.arrivalTimes)
	if lr.r.streamed && lr.r.cfg.EpochRequests > 0 {
		epoch = lr.r.cfg.EpochRequests
	}
	var steps int64
	var runErr error
	replay := func() {
		eng := sim.NewEngine()
		for _, times := range chains {
			times := times
			k := 0
			var step func(*sim.Engine)
			step = func(e *sim.Engine) {
				k++
				if k < len(times) {
					e.Schedule(sim.Time(times[k])-e.Now(), step)
				}
			}
			eng.ScheduleAt(sim.Time(times[0]), step)
		}
		for start := 0; start < len(o.arrivalTimes); start += epoch {
			end := min(start+epoch, len(o.arrivalTimes))
			for i := start; i < end; i++ {
				i := i
				eng.ScheduleAt(sim.Time(o.arrivalTimes[i]), func(*sim.Engine) { sink += i })
			}
			if _, err := eng.RunUntil(sim.Time(o.arrivalTimes[end-1]), -1); err != nil {
				runErr = err
			}
		}
		if _, err := eng.RunUntil(sim.Time(math.Inf(1)), -1); err != nil {
			runErr = err
		}
		steps = eng.Steps
	}
	replay() // count the events first
	ns := nsPerUnit(int(steps), replay)
	res.Layers["sim.events"] = float64(steps)
	res.Layers["sim.ns_per_event"] = ns
	lr.busy["sim"] = float64(steps) * ns * 1e-9
	return runErr
}

// perf times StepCoster lookups at the workload's decode and chunk shapes:
// on a fresh table every call misses, on the warm table every call hits.
func (lr *layerRun) perf(res *repResult) error {
	o, cfg := lr.o, lr.r.cfg
	// Decode batch sizes the run actually used, most frequent first.
	batches := make([]int, 0, len(o.batchHist))
	for b := range o.batchHist {
		batches = append(batches, b)
	}
	sort.Slice(batches, func(i, j int) bool {
		if o.batchHist[batches[i]] != o.batchHist[batches[j]] {
			return o.batchHist[batches[i]] > o.batchHist[batches[j]]
		}
		return batches[i] < batches[j]
	})
	if len(batches) == 0 {
		batches = []int{1}
	}
	meanIn, meanOut := cfg.Scenario.Mix.MeanInputLen(), cfg.Scenario.Mix.MeanOutputLen()
	chunk := cfg.ChunkTokens
	if chunk <= 0 {
		chunk = meanIn
	}
	const shapes = 256
	call := func(c *perf.StepCoster, prefill bool, k int) error {
		var err error
		if prefill {
			_, err = c.ChunkTime(1+k%4, chunk, 16*k)
		} else {
			_, err = c.DecodeTime(batches[k%len(batches)], meanIn+meanOut/2+k, 0)
		}
		return err
	}
	var err error
	costs := func(prefill bool) (missUs, hitNs float64) {
		var c *perf.StepCoster
		missNs := measure(func() (int, time.Duration) {
			var cerr error
			if c, cerr = serve.NewStepCoster(lr.r.be, cfg); cerr != nil {
				err = cerr
			}
			start := time.Now()
			for k := 0; k < shapes; k++ {
				if cerr := call(c, prefill, k); cerr != nil {
					err = cerr
				}
			}
			return shapes, time.Since(start)
		})
		hitNs = nsPerUnit(shapes, func() {
			for k := 0; k < shapes; k++ {
				if call(c, prefill, k) != nil { // errors already surfaced on the cold pass
					sink++
				}
			}
		})
		return missNs / 1e3, hitNs
	}
	decMiss, decHit := costs(false)
	chunkMiss, chunkHit := costs(true)
	decodeKeys := len(o.distinct[1]) + len(o.distinct[2]) + len(o.distinct[4]) + len(o.distinct[5])
	chunkKeys := len(o.distinct[0]) + len(o.distinct[3])
	misses := decodeKeys + chunkKeys
	missUs, hitNs := decMiss, decHit
	if misses > 0 {
		missUs = (decMiss*float64(decodeKeys) + chunkMiss*float64(chunkKeys)) / float64(misses)
		hitNs = (decHit*float64(decodeKeys) + chunkHit*float64(chunkKeys)) / float64(misses)
	}
	calls := max(o.perfCalls, misses)
	res.Layers["perf.calls"] = float64(calls)
	res.Layers["perf.misses"] = float64(misses)
	res.Layers["perf.hit_ratio"] = 1 - float64(misses)/float64(max(calls, 1))
	res.Layers["perf.miss_us"] = missUs
	res.Layers["perf.hit_ns"] = hitNs
	lr.busy["perf"] = float64(misses)*missUs*1e-6 + float64(calls-misses)*hitNs*1e-9
	return err
}

// prefixKey stands in for the scheduler's prefix content hash: any
// injective map from prefix ID gives the same block sharing.
func prefixKey(id int32) uint64 { return uint64(id)*0x9e3779b97f4a7c15 + 1 }

// kv replays the KV layer: DedupSavedTokens on the decode batches the run
// formed (with their prefixes pinned as dispatched), and the per-row Grow
// every decoding row makes each round.
func (lr *layerRun) kv(res *repResult) error {
	o, cfg, a := lr.o, lr.r.cfg, lr.out.agg
	blockTokens := cfg.BlockTokens
	if blockTokens <= 0 {
		blockTokens = 16
	}
	perToken := cfg.Workload.Model.KVCacheBytesPerToken(cfg.Workload.Kind.Size())
	// Each batch is pinned alone, as in the run, where the manager holds
	// only the running requests' pins.
	m, err := serve.NewBlockManager(1<<50, blockTokens, perToken, true)
	if err != nil {
		return err
	}
	dedupNs := 0.0
	if len(o.dedup) > 0 {
		next := 0
		dedupNs = measure(func() (int, time.Duration) {
			b := o.dedup[next%len(o.dedup)]
			next++
			ids := make([]int, len(b))
			for i, id := range b {
				ids[i] = int(id)
				if lr.prefixOf[id] != 0 {
					if _, aerr := m.AcquirePrefix(ids[i], prefixKey(lr.prefixOf[id]), int(lr.prefixLen[id])); aerr != nil {
						err = aerr
					}
				}
			}
			start := time.Now()
			sink += m.DedupSavedTokens(ids)
			spent := time.Since(start)
			for _, id := range ids {
				m.Release(id)
			}
			return 1, spent
		})
	}
	if err != nil {
		return err
	}

	// Grow at steady state: a mean-sized batch of rows, each growing by
	// one token per round.
	rows := 1
	if o.decodeRounds > 0 {
		rows = max(1, int(math.Round(float64(o.batchSum)/float64(o.decodeRounds))))
	}
	g, err := serve.NewBlockManager(1<<50, blockTokens, perToken, cfg.PrefixSharing)
	if err != nil {
		return err
	}
	ctx := cfg.Scenario.Mix.MeanInputLen()
	growNs := nsPerUnit(rows*blockTokens, func() {
		for t := 0; t < blockTokens; t++ {
			for id := 0; id < rows; id++ {
				if g.Grow(id, ctx+t) {
					sink++
				}
			}
		}
		for id := 0; id < rows; id++ {
			g.Release(id)
		}
	})

	dedupCalls := 0
	if cfg.PrefixSharing {
		dedupCalls = o.decodeRounds
	}
	growCalls := o.batchSum + o.chunks + o.admits
	res.Layers["serve.kv.peak_occupancy"] = float64(a.PeakKVBlocksInUse) / float64(max(a.KVBlocksTotal, 1))
	hitRatio := 0.0
	if t := a.PrefixCacheHitTokens + a.PrefixCacheMissTokens; t > 0 {
		hitRatio = float64(a.PrefixCacheHitTokens) / float64(t)
	}
	res.Layers["serve.kv.prefix_hit_ratio"] = hitRatio
	res.Layers["serve.kv.preemptions"] = float64(a.Preemptions)
	res.Layers["serve.kv.swap_outs"] = float64(a.SwapOuts)
	res.Layers["serve.kv.evicted_blocks"] = float64(a.EvictedBlocks)
	res.Layers["serve.kv.dedup_us"] = dedupNs / 1e3
	res.Layers["serve.kv.grow_ns"] = growNs
	lr.busy["serve.kv"] = (float64(dedupCalls)*dedupNs + float64(growCalls)*growNs) * 1e-9
	return nil
}

// sched derives the scheduler's round counts, host time per round and
// simulated queueing from the traced stream.
func (lr *layerRun) sched(res *repResult) error {
	o, a := lr.o, lr.out.agg
	us := make([]float64, len(o.roundNs))
	for i, d := range o.roundNs {
		us[i] = float64(d) / 1e3
	}
	res.Layers["serve.sched.rounds"] = float64(len(o.roundTimes))
	res.Layers["serve.sched.mean_batch"] = float64(o.batchSum) / float64(max(o.decodeRounds, 1))
	res.Layers["serve.sched.round_host_us_p50"] = stats.Percentile(us, 50)
	res.Layers["serve.sched.round_host_us_p99"] = stats.Percentile(us, 99)
	res.Layers["serve.sched.queue_wait_p99_s"] = stats.Percentile(o.wait, 99)
	res.Layers["serve.sched.drop_frac"] = float64(a.Dropped) / float64(lr.requests)
	if o.mismatches > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d of %d decode batches not reconstructed exactly from the event stream\n",
			o.mismatches, o.decodeRounds)
	}
	return nil
}

// fleet measures dispatch quality and times MergeReports on the run's
// per-replica reports.
func (lr *layerRun) fleet(res *repResult) error {
	o, out := lr.o, lr.out
	reps := []*serve.Report{out.agg}
	var dispatch []int
	if out.fleet != nil {
		reps, dispatch = out.fleet.PerReplica, out.fleet.Dispatch
	} else {
		for _, rt := range o.replicas {
			if rt.arrived > 0 {
				dispatch = append(dispatch, rt.arrived)
			}
		}
	}
	imbalance := 1.0
	if len(dispatch) > 0 {
		peak, total := 0, 0
		for _, d := range dispatch {
			peak, total = max(peak, d), total+d
		}
		if total > 0 {
			imbalance = float64(peak) * float64(len(dispatch)) / float64(total)
		}
	}
	locality := 1.0
	if o.prefixed > 0 {
		locality = float64(o.prefixLocal) / float64(o.prefixed)
	}
	mergeNs := nsPerUnit(1, func() { sink += serve.MergeReports(out.agg.OfferedRate, reps).Completed })
	res.Layers["serve.fleet.prefix_locality"] = locality
	res.Layers["serve.fleet.imbalance"] = imbalance
	res.Layers["serve.fleet.merge_us"] = mergeNs / 1e3
	busy := 0.0
	if out.fleet != nil || out.auto != nil {
		busy = mergeNs * 1e-9 // one merge per run
	}
	lr.busy["serve.fleet"] = busy
	return nil
}

// stats replays the run's latencies into fresh sketches and times the
// exact-quantile summary the unsketched report builder computes.
func (lr *layerRun) stats(res *repResult) error {
	o, cfg := lr.o, lr.r.cfg
	samples := [][]float64{o.ttft, o.tpot, o.latency}
	adds := len(o.ttft) + len(o.tpot) + len(o.latency)
	var err error
	addNs := nsPerUnit(adds, func() {
		sk, serr := stats.NewSketch(stats.DefaultSketchAlpha)
		if serr != nil {
			err = serr
			return
		}
		for _, xs := range samples {
			for _, x := range xs {
				if aerr := sk.Add(x); aerr != nil {
					err = aerr
				}
			}
		}
	})
	a, aerr := stats.NewSketch(stats.DefaultSketchAlpha)
	b, berr := stats.NewSketch(stats.DefaultSketchAlpha)
	if aerr != nil || berr != nil {
		return errors.Join(aerr, berr)
	}
	for i, x := range o.latency {
		half := a
		if i%2 == 1 {
			half = b
		}
		if aerr := half.Add(x); aerr != nil {
			return aerr
		}
	}
	mergeNs := nsPerUnit(1, func() {
		if merr := a.Merge(b); merr != nil {
			err = merr
		}
	})
	exactNs := nsPerUnit(1, func() {
		for _, xs := range samples {
			s := stats.Mean(xs) + stats.Percentile(xs, 50) + stats.Percentile(xs, 95) + stats.Percentile(xs, 99)
			sink += int(s)
		}
	})
	res.Layers["stats.sketch_add_ns"] = addNs
	res.Layers["stats.sketch_merge_us"] = mergeNs / 1e3
	res.Layers["stats.exact_quantiles_ms"] = exactNs / 1e6
	busy := 0.0
	switch {
	case cfg.QuantileMode == serve.QuantileSketch:
		merges := 3 * lr.r.replicas
		if lr.r.streamed {
			merges = 3 * (lr.requests/max(cfg.EpochRequests, 1) + 1)
		}
		busy = float64(adds)*addNs + float64(merges)*mergeNs
	case lr.out.auto != nil:
		busy = 2 * exactNs // per-replica reports, then the merged one
	default:
		busy = exactNs
	}
	lr.busy["stats"] = busy * 1e-9
	return err
}

// obs replays the stored stream into a fresh Recorder and Attribution and
// times the exports and the report reconciliation.
func (lr *layerRun) obs(res *repResult) error {
	o, r := lr.o, lr.r
	clearCosted := r.cfg.ClearCoster != nil
	events, samples := o.events, o.samples
	var rec *obs.Recorder
	recNs := nsPerUnit(len(events), func() {
		rec = obs.NewRecorder()
		for _, ev := range events {
			rec.Event(ev)
		}
		for _, s := range samples {
			rec.Sample(s)
		}
	})
	var err error
	var attrib *obs.Attribution
	attribNs := nsPerUnit(len(events), func() {
		a, aerr := obs.NewAttribution(0, clearCosted)
		if aerr != nil {
			err = aerr
			return
		}
		for _, ev := range events {
			a.Event(ev)
		}
		attrib = a
	})
	if err != nil {
		return err
	}
	exportNs := nsPerUnit(1, func() {
		sink += len(rec.PerfettoTraceWithCounters(attrib)) + len(obs.PrometheusText(lr.out.agg))
	})
	reconcileNs := nsPerUnit(1, func() { sink += len(obs.ReconcileReport(events, lr.out.agg)) })
	res.Layers["obs.events"] = float64(o.nEvents)
	res.Layers["obs.recorder_ns_per_event"] = recNs
	res.Layers["obs.attrib_ns_per_event"] = attribNs
	res.Layers["obs.export_ms"] = exportNs / 1e6
	res.Layers["obs.reconcile_ms"] = reconcileNs / 1e6
	busy := 0.0
	if r.rec != nil {
		busy = float64(o.nEvents) * (recNs + attribNs) * 1e-9
	}
	lr.busy["obs"] = busy
	return nil
}

// autoscale reports the elastic controller's outcome and times the
// capacity probe its set-up pays.
func (lr *layerRun) autoscale(res *repResult) error {
	r, out := lr.r, lr.out
	probeMs := r.probeSec * 1e3
	if out.auto == nil {
		var err error
		probeMs = nsPerUnit(1, func() {
			if _, perr := autoscale.ProbeCapacity(r.be, r.cfg); perr != nil {
				err = perr
			}
		}) / 1e6
		if err != nil {
			return err
		}
	}
	coldStarts, hours := 0.0, float64(r.replicas)*out.agg.MakespanSec/3600
	if out.auto != nil {
		coldStarts, hours = float64(out.auto.ColdStarts), out.auto.ReplicaHours
	}
	res.Layers["autoscale.probe_ms"] = probeMs
	res.Layers["autoscale.cold_starts"] = coldStarts
	res.Layers["autoscale.replica_hours"] = hours
	return nil
}
