package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refEngine is the event queue as one 4-ary min-heap: every event, in time
// order or not, is sifted through it. It is Engine without the sorted
// feed, kept as the differential oracle for the feed-plus-heap queue.
type refEngine struct {
	now    Time
	events []refEvent // 4-ary min-heap ordered by refEvent.before
	nextID int64
	Steps  int64
}

// refEvent is a scheduled callback on refEngine.
type refEvent struct {
	At  Time
	Fn  func(*refEngine)
	seq int64
}

func (ev refEvent) before(other refEvent) bool {
	if ev.At != other.At {
		return ev.At < other.At
	}
	return ev.seq < other.seq
}

func newRefEngine() *refEngine { return &refEngine{} }

func (e *refEngine) Now() Time { return e.now }

func (e *refEngine) Schedule(delay Time, fn func(*refEngine)) {
	if delay < 0 {
		delay = 0
	}
	e.nextID++
	e.push(refEvent{At: e.now + delay, Fn: fn, seq: e.nextID})
}

func (e *refEngine) ScheduleAt(at Time, fn func(*refEngine)) {
	if at < e.now {
		at = e.now
	}
	e.nextID++
	e.push(refEvent{At: at, Fn: fn, seq: e.nextID})
}

func (e *refEngine) push(ev refEvent) {
	e.events = append(e.events, ev)
	i := len(e.events) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !e.events[i].before(e.events[parent]) {
			break
		}
		e.events[i], e.events[parent] = e.events[parent], e.events[i]
		i = parent
	}
}

func (e *refEngine) pop() refEvent {
	top := e.events[0]
	n := len(e.events) - 1
	e.events[0] = e.events[n]
	e.events[n] = refEvent{}
	e.events = e.events[:n]
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if e.events[c].before(e.events[min]) {
				min = c
			}
		}
		if !e.events[min].before(e.events[i]) {
			break
		}
		e.events[i], e.events[min] = e.events[min], e.events[i]
		i = min
	}
	return top
}

func (e *refEngine) RunUntil(horizon Time, maxSteps int64) (remaining int, err error) {
	for len(e.events) > 0 {
		if e.events[0].At > horizon {
			if horizon > e.now {
				e.now = horizon
			}
			return len(e.events), nil
		}
		if maxSteps >= 0 && e.Steps >= maxSteps {
			return len(e.events), fmt.Errorf("sim: step limit %d reached at t=%g", maxSteps, float64(e.now))
		}
		ev := e.pop()
		e.now = ev.At
		e.Steps++
		ev.Fn(e)
	}
	return 0, nil
}

func (e *refEngine) Pending() int { return len(e.events) }

// engineUnderTest is the surface a differential program drives. Handlers
// are plain funcs, so one program runs unchanged on either engine.
type engineUnderTest interface {
	now() Time
	steps() int64
	pending() int
	schedule(delay Time, fire func())
	scheduleAt(at Time, fire func())
	runUntil(horizon Time, maxSteps int64) (int, error)
}

// feedEngine adapts Engine and counts which queue each push took.
type feedEngine struct {
	e   *Engine
	cov *engineCoverage
}

func (a *feedEngine) now() Time    { return a.e.Now() }
func (a *feedEngine) steps() int64 { return a.e.Steps }
func (a *feedEngine) pending() int { return a.e.Pending() }

func (a *feedEngine) schedule(delay Time, fire func()) {
	a.observe(func() { a.e.Schedule(delay, func(*Engine) { fire() }) })
}

func (a *feedEngine) scheduleAt(at Time, fire func()) {
	a.observe(func() { a.e.ScheduleAt(at, func(*Engine) { fire() }) })
}

func (a *feedEngine) runUntil(horizon Time, maxSteps int64) (int, error) {
	return a.e.RunUntil(horizon, maxSteps)
}

// observe runs one push and classifies it: onto the heap, onto the feed,
// or onto the feed after compacting it (the head rewound to 0 with events
// still pending; a drain resets the head only in pop).
func (a *feedEngine) observe(push func()) {
	heap, head := len(a.e.heap), a.e.head
	push()
	switch {
	case len(a.e.heap) > heap:
		a.cov.heapPushes++
	case head > 0 && a.e.head == 0:
		a.cov.compactions++
		a.cov.feedPushes++
	default:
		a.cov.feedPushes++
	}
}

// heapEngine adapts refEngine.
type heapEngine struct{ e *refEngine }

func (a *heapEngine) now() Time    { return a.e.Now() }
func (a *heapEngine) steps() int64 { return a.e.Steps }
func (a *heapEngine) pending() int { return a.e.Pending() }

func (a *heapEngine) schedule(delay Time, fire func()) {
	a.e.Schedule(delay, func(*refEngine) { fire() })
}

func (a *heapEngine) scheduleAt(at Time, fire func()) {
	a.e.ScheduleAt(at, func(*refEngine) { fire() })
}

func (a *heapEngine) runUntil(horizon Time, maxSteps int64) (int, error) {
	return a.e.RunUntil(horizon, maxSteps)
}

// engineCoverage counts the cases a differential program exercised.
type engineCoverage struct {
	feedPushes, heapPushes, compactions int
	clamped                             int // Schedule with a negative delay or ScheduleAt in the past
	nested                              int // pushes from inside a handler
	horizonStops, stepLimits            int
}

func (c *engineCoverage) add(o engineCoverage) {
	c.feedPushes += o.feedPushes
	c.heapPushes += o.heapPushes
	c.compactions += o.compactions
	c.clamped += o.clamped
	c.nested += o.nested
	c.horizonStops += o.horizonStops
	c.stepLimits += o.stepLimits
}

// engineProgram decodes data into up to limit scheduled events mixed with
// RunUntil calls, runs it on eng and returns everything observable: every
// firing's event ID and clock and, after every operation, the clock, step
// count, pending count and RunUntil's remaining count and error. Times are
// quarter-second multiples so equal-time ties are common. Operations:
//
//	0  a time-ordered run of up to 32 ScheduleAt calls (step 0 makes ties)
//	1  a descending run of up to 8 ScheduleAt calls, some in the past
//	2  one Schedule, possibly with a negative delay
//	3  one ScheduleAt, possibly in the past
//	4  up to 3 self-rescheduling chains of up to 128 events, interleaved
//	5  RunUntil a horizon ahead, with or without a step limit
//	6  RunUntil +Inf under a step limit
//	7  RunUntil a horizon behind the clock
//
// A fired event from operations 0–3 reads one byte: every fourth value
// schedules a child from inside the handler. Once data is exhausted the
// program runs the engine dry.
func engineProgram(eng engineUnderTest, data []byte, limit int, cov *engineCoverage) []string {
	r := &opReader{data: data}
	var log []string
	ids := 0
	inHandler := false
	var event func() func()
	// add schedules one event with ID ids; kind picks Schedule or
	// ScheduleAt and v its time relative to the clock.
	add := func(kind, v int, fire func()) {
		if ids >= limit {
			return
		}
		ids++
		if inHandler {
			cov.nested++
		}
		if kind%2 == 0 {
			d := Time(v%40-8) / 4
			if d < 0 {
				cov.clamped++
			}
			eng.schedule(d, fire)
			return
		}
		at := eng.now() + Time(v%40-16)/4
		if at < eng.now() {
			cov.clamped++
		}
		eng.scheduleAt(at, fire)
	}
	event = func() func() {
		id := ids
		return func() {
			log = append(log, fmt.Sprintf("fire %d t=%v", id, eng.now()))
			if r.next()%4 == 3 {
				inHandler = true
				add(r.next(), r.next(), event())
				inHandler = false
			}
		}
	}
	scheduleAt := func(at Time, fire func()) {
		if ids >= limit {
			return
		}
		ids++
		if at < eng.now() {
			cov.clamped++
		}
		eng.scheduleAt(at, fire)
	}
	var chain func(id, left int, period Time, at bool) func()
	chain = func(id, left int, period Time, at bool) func() {
		return func() {
			log = append(log, fmt.Sprintf("chain %d left %d t=%v", id, left, eng.now()))
			if left == 0 || ids >= limit {
				return
			}
			ids++
			cov.nested++
			next := chain(id, left-1, period, at)
			if at {
				eng.scheduleAt(eng.now()+period, next)
			} else {
				eng.schedule(period, next)
			}
		}
	}
	run := func(horizon Time, maxSteps int64) {
		rem, err := eng.runUntil(horizon, maxSteps)
		switch {
		case err != nil:
			cov.stepLimits++
		case rem > 0:
			cov.horizonStops++
		}
		log = append(log, fmt.Sprintf("run %v %d: remaining %d err %v", horizon, maxSteps, rem, err))
	}
	for r.more() {
		switch r.next() % 8 {
		case 0:
			n, base, step := 1+r.next()%32, eng.now()+Time(r.next()%16)/4, Time(r.next()%4)/8
			for i := 0; i < n; i++ {
				scheduleAt(base+Time(i)*step, event())
			}
		case 1:
			n, top := 1+r.next()%8, eng.now()+Time(r.next()%32)/4
			for i := 0; i < n; i++ {
				scheduleAt(top-Time(i)/4, event())
			}
		case 2:
			add(0, r.next(), event())
		case 3:
			add(1, r.next(), event())
		case 4:
			c, period, left := 1+r.next()%3, Time(1+r.next()%4)/4, r.next()%128
			for j := 0; j < c && ids < limit; j++ {
				ids++
				eng.scheduleAt(eng.now()+period*Time(j)/Time(c), chain(ids-1, left, period, j%2 == 1))
			}
		case 5:
			horizon, maxSteps := eng.now()+Time(r.next()%64)/4, int64(-1)
			if v := r.next(); v%2 == 1 {
				maxSteps = eng.steps() + int64(v%64)
			}
			run(horizon, maxSteps)
		case 6:
			run(Time(math.Inf(1)), eng.steps()+int64(r.next()%256))
		case 7:
			run(eng.now()-Time(r.next()%8)/4, -1)
		}
		log = append(log, fmt.Sprintf("now %v steps %d pending %d", eng.now(), eng.steps(), eng.pending()))
	}
	run(Time(math.Inf(1)), -1)
	log = append(log, fmt.Sprintf("now %v steps %d pending %d", eng.now(), eng.steps(), eng.pending()))
	return log
}

// opReader feeds a program its choices; an exhausted reader ends it.
type opReader struct {
	data []byte
	pos  int
}

func (r *opReader) more() bool { return r.pos < len(r.data) }

// next returns the next byte, or zero past the end.
func (r *opReader) next() int {
	if r.pos >= len(r.data) {
		return 0
	}
	r.pos++
	return int(r.data[r.pos-1])
}

// diffEngines runs the program data encodes on Engine and on refEngine and
// fails at the first observation that differs.
func diffEngines(t testing.TB, data []byte, limit int) engineCoverage {
	var cov, refCov engineCoverage
	eng := NewEngine()
	got := engineProgram(&feedEngine{e: eng, cov: &cov}, data, limit, &cov)
	want := engineProgram(&heapEngine{e: newRefEngine()}, data, limit, &refCov)
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("observation %d: engine %q, reference %q", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("engine made %d observations, reference %d", len(got), len(want))
	}
	if eng.head != 0 || len(eng.feed) != 0 {
		t.Fatalf("drained feed not reset: head %d, len %d", eng.head, len(eng.feed))
	}
	return cov
}

// randomProgram returns random program input of n bytes.
func randomProgram(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// TestEngineMatchesReference runs randomized programs on the feed-plus-heap
// engine and the heap-only reference. Every firing and every clock, step
// and pending reading must agree, and the programs must have pushed onto
// both queues, compacted the feed, clamped past times, scheduled from
// handlers and stopped at both horizons and step limits.
func TestEngineMatchesReference(t *testing.T) {
	var cov engineCoverage
	for seed := range int64(300) {
		cov.add(diffEngines(t, randomProgram(seed, 256), 4096))
	}
	t.Logf("coverage: %+v", cov)
	for name, n := range map[string]int{
		"feed pushes": cov.feedPushes, "heap pushes": cov.heapPushes, "compactions": cov.compactions,
		"clamped": cov.clamped, "nested": cov.nested, "horizon stops": cov.horizonStops, "step limits": cov.stepLimits,
	} {
		if n == 0 {
			t.Errorf("no %s exercised", name)
		}
	}
}

// FuzzEngineOrder decodes the input into an engine program (see
// engineProgram) and holds Engine's firing order, clock, step and pending
// counts equal to the heap-only reference's.
func FuzzEngineOrder(f *testing.F) {
	for seed := range int64(4) {
		f.Add(randomProgram(seed, 128))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		diffEngines(t, data, 2048)
	})
}
