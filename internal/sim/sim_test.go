package sim

import (
	"math"
	"math/rand"
	"testing"

	"cllm/internal/stats"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3, func(*Engine) { order = append(order, 3) })
	e.Schedule(1, func(*Engine) { order = append(order, 1) })
	e.Schedule(2, func(*Engine) { order = append(order, 2) })
	if err := e.Run(-1); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
	if e.Now() != 3 {
		t.Errorf("Now = %g, want 3", float64(e.Now()))
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Schedule(1, func(*Engine) { order = append(order, i) })
	}
	if err := e.Run(-1); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEngineChainedEvents(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func(*Engine)
	tick = func(en *Engine) {
		count++
		if count < 10 {
			en.Schedule(0.5, tick)
		}
	}
	e.Schedule(0, tick)
	if err := e.Run(-1); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Errorf("count = %d, want 10", count)
	}
	if math.Abs(float64(e.Now())-4.5) > 1e-12 {
		t.Errorf("Now = %g, want 4.5", float64(e.Now()))
	}
}

func TestEngineStepLimit(t *testing.T) {
	e := NewEngine()
	var tick func(*Engine)
	tick = func(en *Engine) { en.Schedule(1, tick) } // infinite chain
	e.Schedule(0, tick)
	if err := e.Run(100); err == nil {
		t.Error("unbounded run with step limit succeeded")
	}
}

func TestEngineNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(5, func(en *Engine) {
		en.Schedule(-3, func(*Engine) { ran = true })
	})
	if err := e.Run(-1); err != nil {
		t.Fatal(err)
	}
	if !ran || e.Now() != 5 {
		t.Errorf("negative delay handling broken: ran=%v now=%g", ran, float64(e.Now()))
	}
}

func TestNoiseDeterminism(t *testing.T) {
	a := NewNoise(7, 0.01, 0.02, 0.005, 5)
	b := NewNoise(7, 0.01, 0.02, 0.005, 5)
	for i := 0; i < 100; i++ {
		if a.Sample(1, true) != b.Sample(1, true) {
			t.Fatal("noise not deterministic for equal seeds")
		}
	}
}

func TestNoiseUnbiasedAndPositive(t *testing.T) {
	n := NewNoise(3, 0.02, 0, 0, 0)
	var xs []float64
	for i := 0; i < 20000; i++ {
		v := n.Sample(10, false)
		if v <= 0 {
			t.Fatal("noise produced non-positive sample")
		}
		xs = append(xs, v)
	}
	m := stats.Mean(xs)
	if math.Abs(m-10)/10 > 0.01 {
		t.Errorf("noise mean = %g, want ~10", m)
	}
}

func TestNoiseTEEOutlierTail(t *testing.T) {
	n := NewNoise(11, 0.005, 0.01, 0.0064, 4)
	var teeSamples []float64
	for i := 0; i < 50000; i++ {
		teeSamples = append(teeSamples, n.Sample(1, true))
	}
	_, removed := stats.FilterZScore(teeSamples, 3)
	frac := float64(removed) / float64(len(teeSamples))
	// Paper reports ≈0.64% of samples at Z>3; accept a generous band.
	if frac < 0.001 || frac > 0.03 {
		t.Errorf("outlier fraction = %.4f, want ~0.0064", frac)
	}
	// Baseline (non-TEE) samples should have (almost) no such tail.
	n2 := NewNoise(12, 0.005, 0.01, 0.0064, 4)
	var base []float64
	for i := 0; i < 50000; i++ {
		base = append(base, n2.Sample(1, false))
	}
	_, removedBase := stats.FilterZScore(base, 3)
	if removedBase > removed {
		t.Errorf("baseline has more outliers (%d) than TEE (%d)", removedBase, removed)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []int
	for i := 1; i <= 5; i++ {
		i := i
		e.Schedule(Time(i), func(*Engine) { fired = append(fired, i) })
	}
	remaining, err := e.RunUntil(3, -1)
	if err != nil {
		t.Fatal(err)
	}
	if remaining != 2 || e.Pending() != 2 {
		t.Fatalf("remaining = %d (pending %d), want 2", remaining, e.Pending())
	}
	if len(fired) != 3 || fired[2] != 3 {
		t.Fatalf("fired = %v, want [1 2 3]", fired)
	}
	if e.Now() != 3 {
		t.Errorf("Now = %g, want horizon 3", float64(e.Now()))
	}
	// The queued tail survives and runs on a later call.
	remaining, err = e.RunUntil(10, -1)
	if err != nil {
		t.Fatal(err)
	}
	if remaining != 0 || len(fired) != 5 {
		t.Fatalf("after second pass: remaining %d, fired %v", remaining, fired)
	}
	if e.Now() != 5 {
		t.Errorf("Now = %g, want last event time 5", float64(e.Now()))
	}
}

func TestEngineRunUntilStepLimit(t *testing.T) {
	e := NewEngine()
	var reschedule func(*Engine)
	reschedule = func(*Engine) { e.Schedule(1, reschedule) }
	e.Schedule(1, reschedule)
	if _, err := e.RunUntil(1e18, 100); err == nil {
		t.Fatal("runaway event chain not stopped by step limit")
	}
}

func TestEngineRunUntilNeverRewinds(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func(*Engine) {})
	if err := e.Run(-1); err != nil {
		t.Fatal(err)
	}
	e.Schedule(10, func(*Engine) {}) // fires at t=15
	if _, err := e.RunUntil(2, -1); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 5 {
		t.Errorf("clock rewound to %g; must stay at 5", float64(e.Now()))
	}
}

// TestEngineHeapRandomizedOrdering stresses both of the engine's queues:
// a time-ordered run scheduled up front (the feed), out-of-order events
// behind it (the heap), and events scheduled from inside callbacks, many
// with colliding times, must fire in strict (time, scheduling-sequence)
// order, and each queue must have held events along the way.
func TestEngineHeapRandomizedOrdering(t *testing.T) {
	eng := NewEngine()
	rng := rand.New(rand.NewSource(42))
	type fired struct {
		at  Time
		idx int // scheduling order, which is the engine's seq order
	}
	var got []fired
	idx := 0
	maxFeed, maxHeap := 0, 0
	var record func(id, depth int) func(*Engine)
	spawn := func(depth, n int) {
		for i := 0; i < n; i++ {
			// Coarse-grained delays force plenty of equal-time ties.
			eng.Schedule(Time(rng.Intn(8))/4, record(idx, depth))
			idx++
		}
	}
	record = func(id, depth int) func(*Engine) {
		return func(e *Engine) {
			got = append(got, fired{at: e.Now(), idx: id})
			maxFeed = max(maxFeed, len(e.feed)-e.head)
			maxHeap = max(maxHeap, len(e.heap))
			if depth < 2 && rng.Intn(3) == 0 {
				spawn(depth+1, 4)
			}
		}
	}
	for i := 0; i < 200; i++ {
		eng.ScheduleAt(Time(i/3)/8, record(idx, 0))
		idx++
	}
	spawn(0, 40)
	if err := eng.Run(-1); err != nil {
		t.Fatal(err)
	}
	if len(got) != idx {
		t.Fatalf("%d of %d scheduled events fired", len(got), idx)
	}
	for i := 1; i < len(got); i++ {
		p, f := got[i-1], got[i]
		if f.at < p.at || f.at == p.at && f.idx < p.idx {
			t.Fatalf("event %d fired out of order: %+v after %+v", i, f, p)
		}
	}
	if maxFeed < 100 || maxHeap < 10 {
		t.Errorf("queues barely used: feed held at most %d events, heap %d", maxFeed, maxHeap)
	}
}

// TestEngineFeedBoundedUnderInterleavedChains runs two self-rescheduling
// chains offset by half a period. Every event lands on the feed, which
// never drains, so only compaction keeps its buffer O(pending).
func TestEngineFeedBoundedUnderInterleavedChains(t *testing.T) {
	eng := NewEngine()
	const steps = 100000
	maxCap := 0
	var tick func(*Engine)
	tick = func(e *Engine) {
		maxCap = max(maxCap, cap(e.feed))
		e.Schedule(1, tick)
	}
	eng.ScheduleAt(0, tick)
	eng.ScheduleAt(0.5, tick)
	if _, err := eng.RunUntil(Time(math.Inf(1)), steps); err == nil {
		t.Fatal("endless chains ended")
	}
	if eng.Steps != steps || eng.Pending() != 2 || len(eng.heap) != 0 {
		t.Fatalf("steps %d, pending %d, heap %d; want %d, 2, 0", eng.Steps, eng.Pending(), len(eng.heap), steps)
	}
	if maxCap > 8 {
		t.Errorf("feed buffer grew to %d events with 2 pending", maxCap)
	}
}

// BenchmarkEngineArrivals is the engine's share of a single-replica run:
// 100k time-ordered arrivals scheduled up front, one every millisecond,
// and one self-rescheduling round chain every 2.5 ms while they last. It
// reports ns per processed event.
func BenchmarkEngineArrivals(b *testing.B) {
	const arrivals = 100000
	const gap, round = Time(0.001), Time(0.0025)
	arrive := func(*Engine) {}
	var tick func(*Engine)
	tick = func(e *Engine) {
		if e.Now() < arrivals*gap {
			e.Schedule(round, tick)
		}
	}
	b.ReportAllocs()
	var events int64
	for i := 0; i < b.N; i++ {
		eng := NewEngine()
		for k := 0; k < arrivals; k++ {
			eng.ScheduleAt(Time(k)*gap, arrive)
		}
		eng.Schedule(round, tick)
		if err := eng.Run(-1); err != nil {
			b.Fatal(err)
		}
		events += eng.Steps
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

func TestEngineScheduleAt(t *testing.T) {
	eng := NewEngine()
	var fired []Time
	record := func(e *Engine) { fired = append(fired, e.Now()) }
	// An absolute time survives clock advancement bit-exactly: 0.1+0.2
	// style drift from now+(at-now) arithmetic must not occur.
	const target = Time(0.30000000000000004) // 0.1 + 0.2 in float64
	eng.Schedule(0.05, func(e *Engine) {
		e.ScheduleAt(target, record)
		e.ScheduleAt(0.01, record) // in the past: clamps to now (0.05)
	})
	if err := eng.Run(100); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if fired[0] != 0.05 {
		t.Errorf("past-time event fired at %v, want clamped 0.05", fired[0])
	}
	if fired[1] != target {
		t.Errorf("event fired at %v, want exactly %v", fired[1], target)
	}
}
