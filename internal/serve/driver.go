package serve

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"cllm/internal/perf"
	"cllm/internal/sim"
	"cllm/internal/workload"
)

// This file is the one serving driver every deployment runs through — a
// lone replica (Run), a fleet topology (Fleet.Run, unified or
// disaggregated) and an elastic control loop (internal/autoscale via
// Drive):
//
//	arrival source → Dispatcher → schedulers on one sim.Engine
//	               → per-replica outcome ledger → scheduler.report
//
// The source draws arrivals lazily and the driver releases them one epoch
// (Config.EpochRequests) at a time: it schedules the epoch's arrivals,
// drains the engine to the epoch's last arrival, and hands the warm
// scheduler/KV/prefix-cache state to the next epoch. Request states are
// allocated a block at a time (see release), so a run holds only the
// blocks of its in-flight requests. The dispatcher is consulted once per
// arrival, never per scheduler round. A finished request leaves only its outcome behind, in the ledger
// of the replica that accepted it (see ledger).
//
// Determinism contract, pinned by stream_test.go:
//
//   - Results are invariant to the epoch size: arrivals are placed with
//     sim.Engine.ScheduleAt at bit-exact times, so an exact run sharded
//     into epochs is byte-identical to the unsharded one.
//   - Arrivals follow workload.Scenario.Generate's draw order (all times,
//     then all shapes), replayed lazily from rand(Seed) (see
//     newArrivalSource); Poisson loads draw time and shape per request.
//   - A lone replica seeds its noise stream with Seed, the seed its
//     arrivals are drawn with, and burns the arrival draws out of that
//     stream before its first step (burnArrivals): its step noise starts
//     where it would if the replica had drawn every arrival from its own
//     stream up front. A lone sketch-mode replica burns and replays the
//     streaming Generator's order instead, which interleaves each
//     request's time and shape draws — a different-but-equally-valid
//     sample path from the same seed for scenario loads.
//   - Fleet and elastic deployments draw no arrival from a replica's noise
//     stream; fleet replica i seeds its noise with Seed+i·7919+1,
//     autoscale slot k with Seed+k·7919+104729 (see internal/autoscale).
//   - A dispatcher's Start runs after the first epoch's arrivals are on the
//     engine, so in a one-epoch run every arrival precedes the first
//     control event in engine sequence order.

// Dispatcher routes a deployment's arrivals to its replicas — the one part
// of the driver that differs between a lone replica, a fleet's front-stage
// load balancer (stageLB) and an elastic control loop.
type Dispatcher interface {
	// Start runs once, after the first epoch's arrivals are on the engine:
	// control loops build their standing replicas and schedule their first
	// control event here.
	Start(p *Pool) error
	// Dispatch routes one arrival at its arrival instant: Submit it to a
	// replica now, or hold it and Submit it later.
	Dispatch(p *Pool, a Arrival)
}

// Arrival is one arrived request in flight between the driver and a
// replica. Dispatchers hold it opaquely (a pending queue) and hand it to
// Pool.Submit.
type Arrival struct{ st *reqState }

// Pool is a deployment's replicas on one shared simulated clock, as the
// driver runs them. Replicas are addressed by id, which also labels their
// observer events; an elastic controller may leave ids unbuilt until it
// first needs them.
type Pool struct {
	cfg  Config // normalized
	eng  *sim.Engine
	reps []*scheduler // by id; nil where an elastic controller built nothing
	// d routes arrivals; held here so each epoch's arrival closure captures
	// only the pool and the epoch's block.
	d Dispatcher
	// offered is the run's arrival count; dispatched counts arrivals
	// routed to a replica, so the difference is what an elastic controller
	// still held at the horizon.
	offered, dispatched int
	// err records a replica-construction failure during the run; it halts
	// the driver at the next epoch boundary.
	err error
}

func newPool(cfg Config) *Pool {
	return &Pool{cfg: cfg, eng: sim.NewEngine(), offered: cfg.arrivalCount()}
}

// Drive runs cfg's offered load through an external dispatcher on a fresh
// pool and returns the drained pool for the caller to report on. The
// arrivals are cfg's trace, scenario or Poisson load drawn from rand(Seed)
// in Generate order, exactly as Fleet.Run sees them.
func Drive(cfg Config, d Dispatcher) (*Pool, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	p := newPool(cfg)
	src, err := newArrivalSource(cfg, false)
	if err != nil {
		return nil, err
	}
	if err := p.drive(src, d); err != nil {
		return nil, err
	}
	return p, nil
}

// Now returns the pool's simulated clock.
func (p *Pool) Now() float64 { return float64(p.eng.Now()) }

// After schedules a control event delay simulated seconds from now.
func (p *Pool) After(delay float64, fn func()) {
	p.eng.Schedule(sim.Time(delay), func(*sim.Engine) { fn() })
}

// Offered is the number of arrivals in the run.
func (p *Pool) Offered() int { return p.offered }

// Add builds replica id of the backend on the pool's clock, its noise
// stream seeded with seed — the single scheduler-construction path every
// deployment uses. A failure also fails the run. be passes by value, so
// socket defaulting stays local.
func (p *Pool) Add(id int, be Backend, seed int64) error {
	if !be.IsGPU && be.CPU.Sockets <= 0 {
		be.CPU.Sockets = 1
	}
	s, err := newScheduler(be, p.cfg, p.eng, perf.NewNoise(be.IsGPU, seed))
	if err != nil {
		if p.err == nil {
			p.err = err
		}
		return err
	}
	s.pool, s.replica = p, id
	for len(p.reps) <= id {
		p.reps = append(p.reps, nil)
	}
	p.reps[id] = s
	return nil
}

// Submit hands an arrival to replica id.
func (p *Pool) Submit(id int, a Arrival) { p.accept(p.reps[id], a.st) }

// accept routes an arrival to s and opens its slot in s's outcome ledger.
func (p *Pool) accept(s *scheduler, st *reqState) {
	p.dispatched++
	s.submitted++
	s.led.open(st, s.replica)
	s.submit(st)
}

// Outstanding is replica id's current load: queued plus running requests.
func (p *Pool) Outstanding(id int) int { return p.reps[id].outstanding() }

// Down reports whether replica id is crashed and paying its TEE cold-start
// recovery (always false without fault injection).
func (p *Pool) Down(id int) bool { return p.reps[id].down }

// Sheds counts the requests replica id's admission control has declined.
func (p *Pool) Sheds(id int) int { return p.reps[id].rep.Sheds }

// Aggregate merges the reports of the built replicas include selects, in
// id order; arrivals never dispatched count as unfinished. Calling it
// again returns an equal report.
func (p *Pool) Aggregate(include func(id int) bool) *Report {
	var reps []*Report
	for id, s := range p.reps {
		if s != nil && include(id) {
			reps = append(reps, s.report())
		}
	}
	return p.merge(reps)
}

// merge builds the deployment-wide aggregate of per-replica reports.
func (p *Pool) merge(reps []*Report) *Report {
	agg := MergeReports(offeredRate(p.cfg), reps)
	agg.Unfinished += p.offered - p.dispatched
	return agg
}

// lone dispatches every arrival to a single replica.
type lone struct{ s *scheduler }

func (lone) Start(*Pool) error { return nil }

func (d lone) Dispatch(p *Pool, a Arrival) { p.accept(d.s, a.st) }

// drive runs the pool: it releases src's arrivals an epoch at a time onto
// the engine, each routed by d at its instant, drains the engine to the
// epoch's last arrival, and finally runs the horizon out.
func (p *Pool) drive(src *arrivalSource, d Dispatcher) error {
	defer src.close()
	p.d = d
	epoch := p.cfg.EpochRequests
	if epoch <= 0 {
		epoch = math.MaxInt // an explicit trace's one epoch
	}
	lastArrival := 0.0
	for left, first := p.offered, true; ; first = false {
		n := min(epoch, left)
		left -= n
		if n > 0 {
			lastArrival = p.release(src, n, lastArrival)
		}
		if first {
			if err := d.Start(p); err != nil {
				return err
			}
		}
		if n == 0 {
			break
		}
		if err := p.runUntil(lastArrival); err != nil {
			return err
		}
		for _, s := range p.reps {
			if s != nil && s.led.stream != nil {
				s.led.stream.rotate()
			}
		}
	}
	return p.runUntil(lastArrival + horizonSec)
}

// release schedules src's next n arrivals, each routed by the pool's
// dispatcher at its instant, and returns the latest arrival time so far.
// Their states are allocated blockStates at a time, and one closure
// serves each block's events: the events take consecutive sequence
// numbers, so the engine's Seq tells which arrival fires.
func (p *Pool) release(src *arrivalSource, n int, last float64) float64 {
	for n > 0 {
		block := make([]reqState, min(n, blockStates))
		n -= len(block)
		var first int64
		fire := func(e *sim.Engine) { p.d.Dispatch(p, Arrival{&block[e.Seq()-first]}) }
		for i := range block {
			st := &block[i]
			st.req = src.next()
			last = max(last, st.req.ArrivalSec)
			if seq := p.eng.ScheduleAt(sim.Time(st.req.ArrivalSec), fire); i == 0 {
				first = seq
			}
		}
	}
	return last
}

// blockStates is how many request states release allocates at once. A
// block stays allocated while any of its requests is queued, running or
// backing off, so it is kept small (40 KiB): a straggler then holds a
// little memory, and a run still makes only two allocations per 256
// arrivals.
const blockStates = 256

// runUntil advances the engine to t and surfaces the first failure: a
// replica that could not be built, then any replica whose loop halted,
// named by its id and the simulated time it failed at.
func (p *Pool) runUntil(t float64) error {
	if _, err := p.eng.RunUntil(sim.Time(t), p.cfg.maxSteps()); err != nil {
		return err
	}
	if p.err != nil {
		return p.err
	}
	for id, s := range p.reps {
		if s != nil && s.err != nil {
			return fmt.Errorf("serve: replica %d at t=%.3fs: %w", id, s.errAt, s.err)
		}
	}
	return nil
}

// liveTokens sums the output tokens of replica id's accepted requests that
// are still queued or running on any replica, settling each decode clock
// first. A request in a retry's backoff holds none.
func (p *Pool) liveTokens(id int) int {
	if p.reps[id].led.live == 0 {
		return 0
	}
	n := 0
	for _, s := range p.reps {
		if s == nil {
			continue
		}
		s.clock.settle()
		for i := range s.queue.Len() {
			if st := s.queue.At(i); int(st.owner) == id {
				n += st.generated
			}
		}
		for _, st := range s.running {
			if int(st.owner) == id {
				n += st.generated
			}
		}
	}
	return n
}

// ledger is a replica's outcome ledger: a slot per request it accepted, in
// arrival order. A request's outcome goes into its slot when it finishes —
// on whichever replica finishes it: under disaggregation that is a decode
// replica, while the slot stays with the prefill replica that accepted it
// — and report folds the slots in order, so a finished request's state is
// not kept. A lone sketch-mode replica streams its outcomes instead and
// opens no slots.
type ledger struct {
	out []RequestMetrics // by slot: the outcome, once finished
	tag []uint8          // by slot: 0 until finished, then 1 + its RequestClass
	// live counts accepted requests not yet finished or dropped; dropped
	// counts the drops.
	live, dropped int
	// tokens counts the output tokens of accepted requests that are not
	// queued or running on any replica: finished, dropped, discarded by a
	// retry, or crossing a KV handoff. With liveTokens it is exact mode's
	// TotalTokens.
	tokens int
	// stream is a lone sketch-mode replica's live sketch ledger.
	stream *streamAccum
}

// open records that the replica owner accepted st.
func (l *ledger) open(st *reqState, owner int) {
	st.owner = int32(owner)
	l.live++
	if l.stream == nil {
		st.entry = int32(len(l.out))
		l.out = append(l.out, RequestMetrics{})
		l.tag = append(l.tag, 0)
	}
}

// fold counts the finished slots into rep in arrival order. It hands each
// outcome to a (sketch mode) or returns them all (exact mode). Once no
// slot is live it compacts the ledger in place, so the outcomes are not
// copied; folding the compacted ledger returns the same again.
func (l *ledger) fold(rep *Report, a *streamAccum) []RequestMetrics {
	inPlace := a == nil && l.live == 0
	var reqs []RequestMetrics
	switch {
	case inPlace:
		reqs = l.out[:0:len(l.out)]
	case a == nil:
		reqs = make([]RequestMetrics, 0, len(l.out))
	}
	for i, tag := range l.tag {
		if tag == 0 {
			continue
		}
		m := l.out[i]
		rep.count(m, RequestClass(tag-1))
		if a != nil {
			a.observe(m)
			continue
		}
		if inPlace {
			l.tag[len(reqs)] = tag
		}
		reqs = append(reqs, m)
	}
	if inPlace {
		l.out, l.tag = reqs, l.tag[:len(reqs)]
	}
	return reqs
}

// owner is the replica whose ledger holds r.
func (s *scheduler) owner(r *reqState) *scheduler { return s.pool.reps[r.owner] }

// finished records r's outcome m in its owner's ledger.
func (s *scheduler) finished(r *reqState, m RequestMetrics) {
	o := s.owner(r)
	o.led.live--
	o.led.tokens += r.generated
	if a := o.led.stream; a != nil {
		a.observe(m)
		o.rep.count(m, r.req.Class)
		return
	}
	o.led.out[r.entry], o.led.tag[r.entry] = m, 1+uint8(r.req.Class)
}

// dropped records r's drop in its owner's ledger.
func (s *scheduler) dropped(r *reqState) {
	o := s.owner(r)
	o.led.live--
	o.led.dropped++
	o.led.tokens += r.generated
}

// arrivalSource yields the offered load's requests in arrival order; the
// driver draws Config.arrivalCount of them.
type arrivalSource struct {
	next func() Request
	// rngs are the source's generators, drawn from rngPool and returned
	// to it by close.
	rngs []*rand.Rand
}

// rngPool recycles the arrival sources' generators from run to run:
// reseeding one yields the stream a fresh one would, without allocating
// its 4.9 KB state again.
var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// rng draws a generator seeded with seed for the source to own.
func (a *arrivalSource) rng(seed int64) *rand.Rand {
	r := rngPool.Get().(*rand.Rand)
	r.Seed(seed)
	a.rngs = append(a.rngs, r)
	return r
}

// close returns the source's generators to rngPool; it draws no more.
func (a *arrivalSource) close() {
	for _, r := range a.rngs {
		rngPool.Put(r)
	}
	a.next, a.rngs = nil, nil
}

// newArrivalSource draws cfg's offered load lazily: the explicit trace, a
// scenario, or the Poisson synthesizer, drawn from rand(Seed). A scenario
// follows Generate's draw order (Scenario.Replay), or with streamOrder the
// streaming Generator's; the Poisson synthesizer has one order.
func newArrivalSource(cfg Config, streamOrder bool) (*arrivalSource, error) {
	a := new(arrivalSource)
	switch {
	case len(cfg.Trace) > 0:
		i := 0
		a.next = func() Request {
			i++
			return cfg.Trace[i-1]
		}
	case cfg.Scenario != nil:
		var gen *workload.Generator
		var err error
		if streamOrder {
			gen, err = cfg.Scenario.Stream(a.rng(cfg.Seed))
		} else {
			gen, err = cfg.Scenario.Replay(cfg.Requests, a.rng(cfg.Seed), a.rng(cfg.Seed))
		}
		if err != nil {
			a.close()
			return nil, err
		}
		i := 0
		a.next = func() Request {
			i++
			return scenarioRequest(i-1, gen.Next(), cfg.Workload.Model.ContextLen)
		}
	default:
		a.next = newPoissonGen(cfg, a.rng(cfg.Seed)).next
	}
	return a, nil
}

// burnArrivals advances rng past exactly the draws newArrivalSource(cfg,
// streamOrder) makes from its own rand(Seed) over the whole run.
func burnArrivals(cfg Config, rng *rand.Rand, streamOrder bool) error {
	switch {
	case len(cfg.Trace) > 0:
	case cfg.Scenario != nil && !streamOrder:
		return cfg.Scenario.Burn(cfg.Requests, rng)
	case cfg.Scenario != nil:
		gen, err := cfg.Scenario.Stream(rng)
		if err != nil {
			return err
		}
		for range cfg.Requests {
			gen.Next()
		}
	default:
		g := newPoissonGen(cfg, rng)
		for range cfg.Requests {
			g.next()
		}
	}
	return nil
}
