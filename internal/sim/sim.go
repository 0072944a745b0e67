// Package sim provides the discrete-event simulation core shared by the
// performance engine and the RAG pipeline: a virtual clock with an event
// queue, deterministic RNG streams, and the noise/outlier models that give
// TEE runs their characteristic variability (the paper's memory-encryption
// jitter and Z>3 outliers).
package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// Time is simulated time in seconds.
type Time float64

// Event is a scheduled callback.
type Event struct {
	At  Time
	Fn  func(*Engine)
	seq int64 // tie-breaker for deterministic ordering
}

// before is the engine's total event order: time, then scheduling sequence.
// seq is unique per engine, so the order is strict — pop order is the same
// whatever heap shape holds the events.
func (ev Event) before(other Event) bool {
	if ev.At != other.At {
		return ev.At < other.At
	}
	return ev.seq < other.seq
}

// Engine is a discrete-event simulator. Its pending events sit in two
// queues that together keep one total order, Event.before:
//
//   - the feed, a slice sorted by Event.before and consumed from a head
//     index. An event that does not sort before the feed's tail is
//     appended there and later popped from the head, both in O(1). A
//     run's arrivals, scheduled in time order before the clock starts,
//     all take this path.
//   - a typed 4-ary min-heap stored by value, which takes every other
//     event: the round finishes, crashes, retries and handoffs scheduled
//     behind the feed's tail. It holds about one event per replica, so
//     its sifts stay shallow, and a push is one slice append with no
//     per-event box through an interface{} heap.
//
// The next event is whichever of the feed's head and the heap's top sorts
// first, so events fire in the same order whichever queue holds them.
type Engine struct {
	now  Time
	heap []Event // 4-ary min-heap ordered by Event.before
	feed []Event // sorted by Event.before; feed[head:] are pending
	head int
	// heap0 backs the heap until it outgrows it, so a run that never has
	// more than heapInline events on the heap allocates nothing for it.
	heap0  [heapInline]Event
	nextID int64
	// Steps counts processed events, a cheap progress/liveness metric.
	Steps int64
}

// heapInline is the heap's inline capacity: one pending round finish per
// replica of an 8-replica fleet.
const heapInline = 8

// NewEngine returns an engine at time zero.
func NewEngine() *Engine {
	e := &Engine{}
	e.heap = e.heap0[:0]
	return e
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Schedule queues fn to run after delay. Negative delays are clamped to 0.
func (e *Engine) Schedule(delay Time, fn func(*Engine)) {
	if delay < 0 {
		delay = 0
	}
	e.nextID++
	e.push(Event{At: e.now + delay, Fn: fn, seq: e.nextID})
}

// ScheduleAt queues fn at the absolute instant at, clamped to the current
// time when it lies in the past. Epoch-sharded runs use it to place
// arrivals scheduled mid-run at their exact recorded times: Schedule would
// compute now + (at − now), which is not bit-identical to at once the
// clock has advanced, and bit-stable event times are what keeps sharded
// runs byte-identical to monolithic ones.
func (e *Engine) ScheduleAt(at Time, fn func(*Engine)) {
	if at < e.now {
		at = e.now
	}
	e.nextID++
	e.push(Event{At: at, Fn: fn, seq: e.nextID})
}

// push queues the event. It goes on the feed when it does not sort before
// the feed's tail: seq rises with every push, so that check alone keeps
// the feed sorted. Otherwise it is appended to the heap and sifted up.
func (e *Engine) push(ev Event) {
	if n := len(e.feed); n == 0 || !ev.before(e.feed[n-1]) {
		// Compact rather than grow once at least half the feed is
		// consumed, so interleaved self-rescheduling chains, which never
		// let it drain, keep it O(pending) and each event is moved O(1)
		// times.
		if n == cap(e.feed) && e.head > 0 && 2*e.head >= n {
			live := copy(e.feed, e.feed[e.head:])
			clear(e.feed[live:]) // drop the moved-from Fn references
			e.feed = e.feed[:live]
			e.head = 0
		}
		e.feed = append(e.feed, ev)
		return
	}
	e.heap = append(e.heap, ev)
	i := len(e.heap) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !e.heap[i].before(e.heap[parent]) {
			break
		}
		e.heap[i], e.heap[parent] = e.heap[parent], e.heap[i]
		i = parent
	}
}

// peek returns the earliest pending event, nil when none is, and whether
// the feed holds it.
func (e *Engine) peek() (ev *Event, fromFeed bool) {
	if e.head < len(e.feed) {
		if len(e.heap) == 0 || e.feed[e.head].before(e.heap[0]) {
			return &e.feed[e.head], true
		}
		return &e.heap[0], false
	}
	if len(e.heap) > 0 {
		return &e.heap[0], false
	}
	return nil, false
}

// pop removes and returns the earliest pending event; fromFeed is peek's
// answer for it. A feed pop advances the head, and a drained feed restarts
// at index 0 of its kept buffer. A heap pop sifts the displaced tail
// element down the 4-ary heap.
func (e *Engine) pop(fromFeed bool) Event {
	if fromFeed {
		ev := e.feed[e.head]
		e.feed[e.head] = Event{} // drop the Fn reference so the closure can be collected
		e.head++
		if e.head == len(e.feed) {
			e.feed = e.feed[:0]
			e.head = 0
		}
		return ev
	}
	top := e.heap[0]
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap[n] = Event{} // drop the Fn reference so the closure can be collected
	e.heap = e.heap[:n]
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
			if e.heap[c].before(e.heap[min]) {
				min = c
			}
		}
		if !e.heap[min].before(e.heap[i]) {
			break
		}
		e.heap[i], e.heap[min] = e.heap[min], e.heap[i]
		i = min
	}
	return top
}

// Run processes events until the queue is empty or the step limit is hit.
func (e *Engine) Run(maxSteps int64) error {
	_, err := e.RunUntil(Time(math.Inf(1)), maxSteps)
	return err
}

// RunUntil processes events whose time does not exceed horizon, subject to
// the same step limit as Run. Events scheduled beyond the horizon stay
// queued; the clock advances to the horizon if any work was pending past it.
// It returns the number of events left unprocessed. Open-loop serving
// simulations use this to bound runaway backlogs deterministically.
func (e *Engine) RunUntil(horizon Time, maxSteps int64) (remaining int, err error) {
	for {
		next, fromFeed := e.peek()
		if next == nil {
			return 0, nil
		}
		if next.At > horizon {
			if horizon > e.now { // never rewind the clock
				e.now = horizon
			}
			return e.Pending(), nil
		}
		if maxSteps >= 0 && e.Steps >= maxSteps {
			return e.Pending(), fmt.Errorf("sim: step limit %d reached at t=%g", maxSteps, float64(e.now))
		}
		ev := e.pop(fromFeed)
		e.now = ev.At
		e.Steps++
		ev.Fn(e)
	}
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.heap) + len(e.feed) - e.head }

// Noise generates the latency jitter observed on real systems. TEE runs get
// extra multiplicative jitter plus rare heavy-tail outliers caused by
// memory-encryption engine contention, as the paper reports (§III-D:
// ≈0.64% of samples beyond Z>3 under SGX/TDX). The parameters are fixed at
// construction: NewNoise derives the jitter's σ from Base and TEEJitter.
type Noise struct {
	rng *rand.Rand
	// Base is the relative stddev of baseline jitter (e.g. 0.01 = 1%).
	Base float64
	// TEEJitter is additional relative stddev under a TEE.
	TEEJitter float64
	// OutlierProb is the probability of a heavy-tail outlier sample.
	OutlierProb float64
	// OutlierScale multiplies the sample when an outlier fires.
	OutlierScale float64
	// sigma and halfVar are the lognormal's σ and σ²/2, index 0 for clear
	// runs and 1 under a TEE.
	sigma, halfVar [2]float64
}

// NewNoise returns a Noise source seeded deterministically.
func NewNoise(seed int64, base, teeJitter, outlierProb, outlierScale float64) *Noise {
	n := &Noise{
		rng:          rand.New(rand.NewSource(seed)),
		Base:         base,
		TEEJitter:    teeJitter,
		OutlierProb:  outlierProb,
		OutlierScale: outlierScale,
	}
	n.sigma = [2]float64{base, math.Sqrt(base*base + teeJitter*teeJitter)}
	for i, sigma := range n.sigma {
		n.halfVar[i] = sigma * sigma / 2
	}
	return n
}

// Sample perturbs the value v. When tee is true the TEE jitter and outlier
// tail are applied in addition to baseline jitter.
func (n *Noise) Sample(v float64, tee bool) float64 {
	i := 0
	if tee {
		i = 1
	}
	// Lognormal multiplicative jitter keeps samples positive.
	f := math.Exp(n.rng.NormFloat64()*n.sigma[i] - n.halfVar[i])
	out := v * f
	if tee && n.rng.Float64() < n.OutlierProb {
		out *= n.OutlierScale * (1 + n.rng.Float64())
	}
	return out
}

// RNG exposes the underlying generator for callers needing raw randomness.
func (n *Noise) RNG() *rand.Rand { return n.rng }
