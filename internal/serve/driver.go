package serve

import (
	"fmt"
	"math"
	"math/rand"

	"cllm/internal/perf"
	"cllm/internal/sim"
)

// This file is the one serving driver every deployment runs through — a
// lone replica (Run), a fleet topology (Fleet.Run, unified or
// disaggregated) and an elastic control loop (internal/autoscale via
// Drive):
//
//	arrival source → Dispatcher → schedulers on one sim.Engine
//	               → per-replica outcome ledger → scheduler.report
//
// The source releases arrivals one epoch (Config.EpochRequests) at a time:
// the driver schedules the epoch's arrivals, drains the engine to the
// epoch's last arrival, and hands the warm scheduler/KV/prefix-cache state
// to the next epoch. An unsharded run is a single epoch. The dispatcher is
// consulted once per arrival, never per scheduler round.
//
// Determinism contract, pinned by stream_test.go:
//
//   - Results are invariant to the epoch size: arrivals are placed with
//     sim.Engine.ScheduleAt at bit-exact times, so an exact run sharded
//     into epochs is byte-identical to the unsharded one.
//   - A lone replica seeds its noise stream with Seed and draws its
//     arrivals from that stream. In sketch mode it instead burns the
//     arrival draws out of the noise stream and replays them lazily from a
//     second RNG seeded identically, so every event time, counter and the
//     admission order match the exact run bit for bit (for trace and
//     Poisson loads; scenario streams draw shapes interleaved with times,
//     a different-but-equally-valid sample path from the same seed).
//   - Fleet and elastic deployments draw their arrivals from rand(Seed) in
//     Generate order; fleet replica i seeds its noise with Seed+i·7919+1,
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
	// d routes arrivals; held here so each arrival's closure captures only
	// the pool and the request state.
	d Dispatcher
	// offered is the run's arrival count (materialized sources only);
	// dispatched counts arrivals routed to a replica, so the difference is
	// what an elastic controller still held at the horizon.
	offered, dispatched int
	// err records a replica-construction failure during the run; it halts
	// the driver at the next epoch boundary.
	err error
}

func newPool(cfg Config) *Pool { return &Pool{cfg: cfg, eng: sim.NewEngine()} }

// Drive runs cfg's offered load through an external dispatcher on a fresh
// pool and returns the drained pool for the caller to report on. The
// arrivals are cfg's trace, scenario or Poisson load drawn from rand(Seed)
// in Generate order, exactly as Fleet.Run sees them.
func Drive(cfg Config, d Dispatcher) (*Pool, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	p := newPool(cfg)
	src, err := materialize(cfg, rand.New(rand.NewSource(cfg.Seed)))
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
	s.replica = id
	for len(p.reps) <= id {
		p.reps = append(p.reps, nil)
	}
	p.reps[id] = s
	return nil
}

// Submit hands an arrival to replica id.
func (p *Pool) Submit(id int, a Arrival) { p.accept(p.reps[id], a.st) }

// accept routes an arrival to s and records it in s's outcome ledger.
func (p *Pool) accept(s *scheduler, st *reqState) {
	p.dispatched++
	s.submitted++
	s.kept = append(s.kept, st)
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
// id order; arrivals never dispatched count as unfinished.
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

// lone dispatches every arrival to a single replica. Its ledger is the
// arrival block itself (see Run), so nothing is appended here.
type lone struct{ s *scheduler }

func (lone) Start(*Pool) error { return nil }

func (d lone) Dispatch(_ *Pool, a Arrival) {
	d.s.submitted++
	d.s.submit(a.st)
}

// drive runs the pool: it releases src's arrivals an epoch at a time onto
// the engine, each routed by d at its instant, drains the engine to the
// epoch's last arrival, and finally runs the horizon out.
func (p *Pool) drive(src *arrivalSource, d Dispatcher) error {
	p.d = d
	if src.gen == nil {
		p.offered = len(src.block)
	}
	epoch := p.cfg.EpochRequests
	if epoch <= 0 {
		epoch = math.MaxInt // unsharded: one epoch
	}
	lastArrival := 0.0
	for first := true; ; first = false {
		n := 0
		for ; n < epoch; n++ {
			st := src.next()
			if st == nil {
				break
			}
			if st.req.ArrivalSec > lastArrival {
				lastArrival = st.req.ArrivalSec
			}
			p.eng.ScheduleAt(sim.Time(st.req.ArrivalSec), func(*sim.Engine) {
				p.d.Dispatch(p, Arrival{st})
			})
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
			if s != nil && s.stream != nil {
				s.stream.rotate()
			}
		}
	}
	return p.runUntil(lastArrival + horizonSec)
}

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

// arrivalSource yields the offered load as request states in scheduling
// order: a materialized block (one allocation for the whole run), or a
// lazily streamed generator whose states are allocated one by one, so a
// streamed run retains none of them.
type arrivalSource struct {
	block []reqState
	i     int
	gen   func() (Request, bool)
}

func (a *arrivalSource) next() *reqState {
	if a.gen != nil {
		r, ok := a.gen()
		if !ok {
			return nil
		}
		return &reqState{req: r}
	}
	if a.i == len(a.block) {
		return nil
	}
	a.i++
	return &a.block[a.i-1]
}

// materialize draws cfg's whole offered load from rng up front.
func materialize(cfg Config, rng *rand.Rand) (*arrivalSource, error) {
	reqs, err := genArrivals(cfg, rng)
	if err != nil {
		return nil, err
	}
	src := &arrivalSource{block: make([]reqState, len(reqs))}
	for i, r := range reqs {
		src.block[i].req = r
	}
	return src, nil
}

// newArrivalSource builds the streaming form of genArrivals over cfg's
// load: the explicit trace, a scenario generator, or the Poisson
// synthesizer.
func newArrivalSource(cfg Config, rng *rand.Rand) (*arrivalSource, error) {
	switch {
	case len(cfg.Trace) > 0:
		i := 0
		return &arrivalSource{gen: func() (Request, bool) {
			if i >= len(cfg.Trace) {
				return Request{}, false
			}
			i++
			return cfg.Trace[i-1], true
		}}, nil
	case cfg.Scenario != nil:
		gen, err := cfg.Scenario.Stream(rng)
		if err != nil {
			return nil, err
		}
		i := 0
		return &arrivalSource{gen: func() (Request, bool) {
			if i >= cfg.Requests {
				return Request{}, false
			}
			r := scenarioRequest(i, gen.Next(), cfg.Workload.Model.ContextLen)
			i++
			return r, true
		}}, nil
	default:
		return &arrivalSource{gen: newPoissonGen(cfg, rng).next}, nil
	}
}
