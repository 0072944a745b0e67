// Package autoscale simulates elastic heterogeneous TEE fleets: replica
// classes (backend × instance price × cold-start latency) behind a cost-
// and load-aware dispatcher, with a reactive target-tracking scaler that
// activates and drains replicas as the arrival process moves. Its question
// extends the paper's: confidentiality is priced not only per served token
// at steady state, but per *elastic* token — scaling a confidential fleet
// reactively pays TEE-specific cold starts (enclave/TD memory preparation
// plus the attestation round-trip) that non-confidential fleets do not,
// which forces overprovisioning to hold an SLO under bursty load.
//
// The control loop runs on the same discrete-event engine as the serving
// schedulers (one shared simulated clock), so queueing during a cold start
// is in the numbers, not assumed away.
package autoscale

import (
	"fmt"
	"math"
	"sort"

	"cllm/internal/enum"
	"cllm/internal/serve"
	"cllm/internal/trace"
)

// Class is one replica flavor of a heterogeneous fleet: a backend
// (hardware × TEE), its rental price, its cold-start latency, and the
// replica-count bounds the operator allows.
type Class struct {
	// Name labels the class in reports (e.g. "tdx", "cgpu").
	Name string
	// Backend is the hardware/TEE combination replicas of this class run.
	// Set its Coster (serve.NewStepCoster) to share one costing table
	// across the class's replicas and its ProbeCapacity measurement.
	Backend serve.Backend
	// HourlyUSD is the rental price of one replica.
	HourlyUSD float64
	// ColdStartSec is activation-to-servable latency: instance boot, TEE
	// memory preparation, weight provisioning and the attestation
	// round-trip. Use ColdStartSec() to derive it from the platform
	// mechanisms; zero means instantly servable (the counterfactual
	// baseline the harness compares against).
	ColdStartSec float64
	// Min/Max bound the active replica count. Min replicas start warm at
	// t=0 (the standing fleet); the scaler may activate up to Max.
	Min, Max int
	// CapacityReqPerSec is one replica's saturated completion rate for the
	// experiment's request shape, used by cost-aware dispatch weighting
	// and the target-tracking scaler. Measure it with ProbeCapacity; Run
	// rejects a class without a positive, finite capacity.
	CapacityReqPerSec float64
}

// ColdStartSec models provisioning a fresh replica of the backend for a
// workload. It delegates to serve.ColdStartSec — the same formula prices
// failure recovery in the scheduler's fault injector, so elasticity and
// recovery share one cold-start model.
func ColdStartSec(be serve.Backend, w trace.Workload) float64 {
	return serve.ColdStartSec(be, w)
}

// Dispatch selects how arrivals are routed across the active fleet.
type Dispatch int

const (
	// Uniform routes each arrival to the active replica with the fewest
	// outstanding requests, blind to class capability or price — the
	// policy a homogeneous-fleet balancer would apply unchanged.
	Uniform Dispatch = iota
	// CostAware routes by normalized load — outstanding work relative to
	// the class's service capacity — so slow (cheap) replicas receive only
	// what they can serve within SLO, and breaks ties toward the cheaper
	// class per unit capacity.
	CostAware
)

var dispatches = enum.Table[Dispatch]{
	Names:  []string{Uniform: "uniform", CostAware: "cost-aware"},
	Alias:  map[string]Dispatch{"": Uniform, "cost": CostAware, "ca": CostAware},
	Prefix: "autoscale", Noun: "dispatch", Type: "Dispatch",
}

// String names the policy as the CLI spells it.
func (d Dispatch) String() string { return dispatches.String(d) }

// ParseDispatch resolves a CLI dispatch name.
func ParseDispatch(s string) (Dispatch, error) { return dispatches.Parse(s) }

// Config tunes one autoscaling simulation.
type Config struct {
	// Serve carries the workload (model, datatype, SLOs) and the offered
	// load — a Scenario, a Trace, or plain Poisson Rate/Requests — shared
	// by every replica. Per-replica knobs (MaxBatch, chunking, prefix
	// sharing) apply to each replica individually.
	Serve serve.Config
	// Dispatch is the routing policy (default Uniform).
	Dispatch Dispatch
	// IntervalSec is the control-loop period (default 15 s).
	IntervalSec float64
	// TargetUtil is the utilization the scaler tracks: it provisions
	// capacity = demand / TargetUtil (default 0.7). Lower values mean more
	// headroom — the knob operators turn to absorb cold-start lag.
	TargetUtil float64
	// DemandAlpha is the EWMA smoothing factor for the scaler's demand
	// estimate, in (0, 1]: estimate = alpha*instant + (1-alpha)*previous.
	// 0 means the default 1 — the pure one-window reactive estimator,
	// bit-identical to the pre-smoothing behavior. Values below 1 damp
	// burst edges: fewer cold starts and less capacity flapping, at the
	// cost of reacting a window or two late to sustained shifts.
	DemandAlpha float64
}

// scaleDownHoldIntervals is how many control periods a class must stay
// above its desired size before surplus replicas start draining —
// hysteresis against flapping on burst edges.
const scaleDownHoldIntervals = 2

// Validate reports the first control-loop knob Run would reject, without
// running anything (the Serve config is checked by serve.Config.Validate).
func (c Config) Validate() error { return c.normalize() }

func (c *Config) normalize() error {
	switch {
	case math.IsNaN(c.IntervalSec) || math.IsInf(c.IntervalSec, 0):
		return serve.FieldError("IntervalSec", "autoscale: control interval %g is not finite", c.IntervalSec)
	case c.IntervalSec < 0:
		return serve.FieldError("IntervalSec", "autoscale: control interval %g is negative (0 selects the 15 s default)", c.IntervalSec)
	case c.IntervalSec == 0:
		c.IntervalSec = 15
	}
	if c.TargetUtil == 0 {
		c.TargetUtil = 0.7
	}
	if !(c.TargetUtil > 0 && c.TargetUtil <= 1) {
		return serve.FieldError("TargetUtil", "autoscale: target utilization %g outside (0, 1]", c.TargetUtil)
	}
	if c.DemandAlpha == 0 {
		c.DemandAlpha = 1
	}
	if !(c.DemandAlpha > 0 && c.DemandAlpha <= 1) {
		return serve.FieldError("DemandAlpha", "autoscale: demand EWMA alpha %g outside (0, 1]", c.DemandAlpha)
	}
	if err := dispatches.Check(c.Dispatch); err != nil {
		return &serve.ConfigError{Field: "Dispatch", Err: err}
	}
	return nil
}

// Window is one control-loop interval of the run's time series.
type Window struct {
	// StartSec is the window's start on the simulated clock.
	StartSec float64
	// Arrivals counts requests that arrived during the window.
	Arrivals int
	// Backlog is the queued+running total across the fleet at window end.
	Backlog int
	// Active is the per-class count of billed replicas (including ones
	// still cold-starting) at window end; Available counts only servable
	// ones.
	Active, Available []int
	// DemandReqPerSec is the scaler's demand estimate for the window.
	DemandReqPerSec float64
}

// ClassUsage aggregates one class's consumption over the run.
type ClassUsage struct {
	Name string
	// ReplicaHours integrates billed (active) replicas over simulated time.
	ReplicaHours float64
	// CostUSD prices those hours at the class rate.
	CostUSD float64
	// PeakActive is the maximum simultaneously billed replicas.
	PeakActive int
	// Dispatched counts requests routed to the class.
	Dispatched int
	// ColdStarts counts activations that paid the class cold start.
	ColdStarts int
	// ColdStartSec echoes the class's configured cold-start latency.
	ColdStartSec float64
}

// Report is the outcome of one autoscaling simulation.
type Report struct {
	// Dispatch names the routing policy.
	Dispatch string
	// Aggregate merges every replica's serving report (see
	// serve.MergeReports): fleet-wide latency quantiles, goodput, SLO
	// counters.
	Aggregate *serve.Report
	// Windows is the control-loop time series.
	Windows []Window
	// Usage is per-class consumption, in class order.
	Usage []ClassUsage
	// ReplicaHours and CostUSD total the usage across classes.
	ReplicaHours float64
	CostUSD      float64
	// USDPerMTok prices the run: total rental cost over SLO-compliant
	// served tokens. Infinite when nothing was served within SLO.
	USDPerMTok float64
	// ColdStarts counts replica activations that paid a cold start.
	ColdStarts int
}

// SLOAttainment returns the fraction of offered requests served within SLO.
func (r *Report) SLOAttainment() float64 { return r.Aggregate.SLOAttainment() }

// ProbeCapacity measures one replica's saturated completion rate for the
// config's request shape: a closed burst (every probe request arrives at
// t=0) is served to completion and the rate is completed/makespan. The
// scaler and cost-aware dispatch consume this as the class's capacity.
func ProbeCapacity(be serve.Backend, scfg serve.Config) (float64, error) {
	cfg := scfg
	inLen, outLen := cfg.Workload.InputLen, cfg.Workload.OutputLen
	if cfg.Scenario != nil {
		inLen = cfg.Scenario.Mix.MeanInputLen()
		outLen = cfg.Scenario.Mix.MeanOutputLen()
	}
	if inLen <= 0 {
		inLen = 128
	}
	if outLen <= 1 {
		outLen = 32
	}
	if ctx := cfg.Workload.Model.ContextLen; ctx > 0 && inLen+outLen > ctx {
		inLen = ctx - outLen
		if inLen < 1 {
			inLen, outLen = 1, ctx-1
		}
	}
	cfg.Scenario = nil
	// Probes are synthetic side-simulations: never feed them to the run's
	// observer — its timeline should hold only the real fleet's events.
	cfg.Observer = nil
	// A capacity probe measures the healthy saturated rate: fault injection,
	// admission shedding and retries would contaminate it with downtime and
	// turned-away load, so the probe twin runs failure-free and open-door.
	cfg.Faults = serve.FaultConfig{}
	// Probes need only Completed and MakespanSec. Sketch mode skips the
	// per-request ledger and its quantile sort; a trace run's event stream
	// is identical in both modes, so the measured rate is unchanged.
	cfg.QuantileMode = serve.QuantileSketch
	// The burst must overfill the batch, or the "saturated" rate would
	// reflect a part-empty batch plus ramp-down tail and understate the
	// class for deep-batch configs.
	mb := cfg.MaxBatch
	if mb <= 0 {
		mb = 32 // serve's normalize default
	}
	probes := 2 * mb
	if probes < 24 {
		probes = 24
	}
	probe := make([]serve.Request, probes)
	for i := range probe {
		probe[i] = serve.Request{ID: i, ArrivalSec: 0, InputLen: inLen, OutputLen: outLen}
	}
	cfg.Trace = probe
	rep, err := serve.Run(be, cfg)
	if err != nil {
		return 0, err
	}
	if rep.Completed == 0 || rep.MakespanSec <= 0 {
		return 0, fmt.Errorf("autoscale: capacity probe on %s completed nothing", rep.Platform)
	}
	return float64(rep.Completed) / rep.MakespanSec, nil
}

// slot is one provisionable replica instance. Its scheduler is built
// lazily on first activation — a class's Max bounds the fleet, it should
// not cost Max schedulers' state when the load never needs them.
type slot struct {
	class int   // index into classes
	idx   int   // fleet-wide slot index: the replica's pool id
	seed  int64 // decorrelates this slot's noise stream
	built bool
	// active means billed (operator pays from activation to drain-done).
	active bool
	// availableAt is when the slot can first serve (activation + cold
	// start); meaningful while active.
	availableAt float64
	// draining means no new dispatches; deactivates when it empties.
	draining bool
	// billStart is the activation instant of the current billing span.
	billStart float64
	// billedHours accumulates completed billing spans.
	billedHours float64
	dispatched  int
}

func (s *slot) servable(now float64) bool {
	return s.active && !s.draining && s.availableAt <= now+1e-12
}

// Run simulates the offered load against an elastic fleet of the given
// classes. Class Min replicas start warm; the control loop activates (with
// cold start) and drains replicas every IntervalSec to track demand.
func Run(classes []Class, cfg Config) (*Report, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("autoscale: no replica classes")
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	cls := append([]Class(nil), classes...)
	totalMin := 0
	for i := range cls {
		c := &cls[i]
		if c.Name == "" {
			return nil, fmt.Errorf("autoscale: class %d needs a name", i)
		}
		if c.Max <= 0 {
			return nil, fmt.Errorf("autoscale: class %s needs Max >= 1, got %d", c.Name, c.Max)
		}
		if c.Min < 0 || c.Min > c.Max {
			return nil, fmt.Errorf("autoscale: class %s Min %d outside [0, %d]", c.Name, c.Min, c.Max)
		}
		if !(c.HourlyUSD > 0) || math.IsInf(c.HourlyUSD, 0) {
			return nil, fmt.Errorf("autoscale: class %s hourly price %g must be positive and finite", c.Name, c.HourlyUSD)
		}
		if c.ColdStartSec < 0 {
			return nil, fmt.Errorf("autoscale: class %s cold start %g is negative", c.Name, c.ColdStartSec)
		}
		if !(c.CapacityReqPerSec > 0) || math.IsInf(c.CapacityReqPerSec, 0) {
			return nil, fmt.Errorf("autoscale: class %s capacity %g req/s must be positive and finite (measure it with ProbeCapacity)", c.Name, c.CapacityReqPerSec)
		}
		totalMin += c.Min
	}
	if totalMin == 0 {
		// An empty standing fleet would queue the first arrivals behind a
		// cold start forever under zero demand estimate; keep one warm
		// replica of the cheapest-per-capacity class.
		cheapest := 0
		for i := range cls {
			if cls[i].HourlyUSD/cls[i].CapacityReqPerSec < cls[cheapest].HourlyUSD/cls[cheapest].CapacityReqPerSec {
				cheapest = i
			}
		}
		cls[cheapest].Min = 1
	}

	f := &fleet{
		classes:    cls,
		cfg:        cfg,
		coldStarts: make([]int, len(cls)),
		overSince:  make([]float64, len(cls)),
	}
	// The serve driver owns the engine, the arrivals and the replicas'
	// outcome ledgers; the fleet is its dispatcher.
	p, err := serve.Drive(cfg.Serve, f)
	if err != nil {
		return nil, err
	}
	return f.report(p), nil
}

// fleet is the elastic controller of one autoscaling run: the serve
// driver's dispatcher.
type fleet struct {
	classes []Class
	cfg     Config
	slots   []*slot
	pool    *serve.Pool

	pending        []serve.Arrival // arrivals waiting for a servable slot
	windowArrivals int
	dispatchedN    int
	windows        []Window
	// prevDemand / haveDemand hold the EWMA state of the demand estimator
	// across control windows (see Config.DemandAlpha).
	prevDemand float64
	haveDemand bool
	// lastSheds is the fleet-wide admission-shed total at the previous tick;
	// the per-window delta feeds the demand estimate (shed requests are
	// offered load the fleet turned away — invisible to the backlog signal).
	lastSheds  int
	coldStarts []int // per class
	// overSince tracks, per class, when it started exceeding its desired
	// count (scale-down hysteresis); -1 means not currently over.
	overSince []float64
	// done stops the control loop: every arrival served, or a replica
	// failed to build (the pool then fails the run).
	done bool
}

// Start lays out the slots and starts the control loop once the first
// arrivals are on the driver's engine.
func (f *fleet) Start(p *serve.Pool) error {
	f.pool = p
	seed := f.cfg.Serve.Seed
	for ci := range f.classes {
		f.overSince[ci] = -1
		for j := 0; j < f.classes[ci].Max; j++ {
			s := &slot{class: ci, idx: len(f.slots), seed: seed + int64(len(f.slots))*7919 + 104729}
			s.active = j < f.classes[ci].Min // warm standing fleet
			f.slots = append(f.slots, s)
			// Construct warm slots now, plus one probe slot per class, so
			// backend misconfigurations fail at Run time, not mid-event.
			if s.active || j == 0 {
				if err := f.ensureReplica(s); err != nil {
					return err
				}
			}
		}
	}
	p.After(f.cfg.IntervalSec, f.tick)
	return nil
}

// ensureReplica lazily constructs a slot's scheduler. A failure
// (backend misconfiguration) halts the control loop and fails the run.
func (f *fleet) ensureReplica(s *slot) error {
	if s.built {
		return nil
	}
	if err := f.pool.Add(s.idx, f.classes[s.class].Backend, s.seed); err != nil {
		f.done = true
		return err
	}
	s.built = true
	return nil
}

// Dispatch routes one arrival to a replica, or holds it until a slot
// becomes servable.
func (f *fleet) Dispatch(p *serve.Pool, a serve.Arrival) {
	f.windowArrivals++
	best := f.pick(p.Now())
	if best == nil {
		f.pending = append(f.pending, a)
		return
	}
	f.submit(best, a)
}

// submit hands a request to a chosen slot.
func (f *fleet) submit(s *slot, a serve.Arrival) {
	f.pool.Submit(s.idx, a)
	s.dispatched++
	f.dispatchedN++
}

// pick selects the dispatch target among servable slots, or nil.
func (f *fleet) pick(now float64) *slot {
	var best *slot
	var bestKey [2]float64
	for _, s := range f.slots {
		if !s.servable(now) {
			continue
		}
		if f.pool.Down(s.idx) {
			// Crashed mid-recovery (fault injection): still billed, not a
			// dispatch target until its TEE cold start completes.
			continue
		}
		var key [2]float64
		c := &f.classes[s.class]
		switch f.cfg.Dispatch {
		case CostAware:
			// Normalized load first, then dollars per unit capacity: a
			// slow cheap replica only wins while it is genuinely idle
			// relative to its service rate.
			key = [2]float64{
				(float64(f.pool.Outstanding(s.idx)) + 1) / c.CapacityReqPerSec,
				c.HourlyUSD / c.CapacityReqPerSec,
			}
		default:
			key = [2]float64{float64(f.pool.Outstanding(s.idx)), 0}
		}
		if best == nil || key[0] < bestKey[0] || (key[0] == bestKey[0] && key[1] < bestKey[1]) {
			best, bestKey = s, key
		}
	}
	return best
}

// flushPending re-dispatches queued arrivals once a slot becomes servable.
func (f *fleet) flushPending() {
	if len(f.pending) == 0 {
		return
	}
	now := f.pool.Now()
	queued := f.pending
	f.pending = nil
	for i, a := range queued {
		best := f.pick(now)
		if best == nil {
			f.pending = append(f.pending, queued[i:]...)
			return
		}
		f.submit(best, a)
	}
}

// outstanding is fleet-wide queued+running load including undispatched
// pending arrivals.
func (f *fleet) outstanding() int {
	n := len(f.pending)
	for _, s := range f.slots {
		if s.built {
			n += f.pool.Outstanding(s.idx)
		}
	}
	return n
}

// tick is one control-loop round: estimate demand, reconcile the fleet
// toward the desired per-class counts, retire drained slots, record the
// window, and reschedule until the run is over.
func (f *fleet) tick() {
	if f.done {
		return
	}
	now := f.pool.Now()
	interval := f.cfg.IntervalSec

	backlog := f.outstanding()
	arrived := f.windowArrivals
	f.windowArrivals = 0
	// Demand: sustain the window's arrival rate and drain the backlog
	// within one control interval. With DemandAlpha < 1 the instantaneous
	// estimate is EWMA-smoothed across windows; alpha = 1 branches to the
	// raw value so the default stays bit-identical to the unsmoothed loop.
	demand := float64(arrived)/interval + float64(backlog)/interval
	// Shed requests left neither queue nor batch, so backlog cannot see
	// them — count the window's sheds as demand the fleet failed to carry.
	// Without admission control the delta is always zero.
	totalSheds := 0
	for _, s := range f.slots {
		if s.built {
			totalSheds += f.pool.Sheds(s.idx)
		}
	}
	if d := totalSheds - f.lastSheds; d > 0 {
		demand += float64(d) / interval
	}
	f.lastSheds = totalSheds
	if f.cfg.DemandAlpha < 1 && f.haveDemand {
		demand = f.cfg.DemandAlpha*demand + (1-f.cfg.DemandAlpha)*f.prevDemand
	}
	f.prevDemand, f.haveDemand = demand, true
	needCapacity := demand / f.cfg.TargetUtil

	desired := f.desiredCounts(needCapacity)
	f.reconcile(now, desired)
	f.retireDrained(now)

	w := Window{
		StartSec:        now - interval,
		Arrivals:        arrived,
		Backlog:         backlog,
		Active:          make([]int, len(f.classes)),
		Available:       make([]int, len(f.classes)),
		DemandReqPerSec: demand,
	}
	for _, s := range f.slots {
		if s.active {
			w.Active[s.class]++
			if s.servable(now) {
				w.Available[s.class]++
			}
		}
	}
	f.windows = append(f.windows, w)

	// The loop ends once every arrival is dispatched and served; replicas
	// still active then are billed to the clock in report().
	if f.dispatchedN == f.pool.Offered() && backlog == 0 {
		f.done = true
		return
	}
	f.pool.After(interval, f.tick)
}

// desiredCounts allocates replicas to cover needCapacity at minimum rental
// cost: every class keeps its Min; extra replicas go to classes in
// cost-per-capacity order.
func (f *fleet) desiredCounts(needCapacity float64) []int {
	desired := make([]int, len(f.classes))
	remaining := needCapacity
	for i := range f.classes {
		c := &f.classes[i]
		desired[i] = c.Min
		remaining -= float64(c.Min) * c.CapacityReqPerSec
	}
	order := make([]int, len(f.classes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ca, cb := &f.classes[order[a]], &f.classes[order[b]]
		return ca.HourlyUSD/ca.CapacityReqPerSec < cb.HourlyUSD/cb.CapacityReqPerSec
	})
	for _, i := range order {
		c := &f.classes[i]
		for remaining > 0 && desired[i] < c.Max {
			desired[i]++
			remaining -= c.CapacityReqPerSec
		}
	}
	return desired
}

// reconcile moves the fleet toward the desired per-class counts:
// activations pay the class cold start immediately; drains wait out the
// scale-down hysteresis.
func (f *fleet) reconcile(now float64, desired []int) {
	for ci := range f.classes {
		activeN := 0
		for _, s := range f.slots {
			if s.class == ci && s.active && !s.draining {
				activeN++
			}
		}
		switch {
		case activeN < desired[ci]:
			f.overSince[ci] = -1
			need := desired[ci] - activeN
			// Prefer un-draining (still warm, no cold start) over cold
			// activation; an un-drained replica is servable immediately,
			// so queued arrivals flush onto it right away.
			for _, s := range f.slots {
				if need == 0 {
					break
				}
				if s.class == ci && s.active && s.draining {
					s.draining = false
					f.flushPending()
					need--
				}
			}
			for _, s := range f.slots {
				if need == 0 {
					break
				}
				if s.class == ci && !s.active {
					if f.ensureReplica(s) != nil {
						return
					}
					s.active = true
					s.billStart = now
					s.availableAt = now + f.classes[ci].ColdStartSec
					if f.classes[ci].ColdStartSec > 0 {
						f.coldStarts[ci]++
						availAt := s.availableAt
						f.pool.After(availAt-now, f.flushPending)
					} else {
						f.flushPending()
					}
					need--
				}
			}
		case activeN > desired[ci]:
			// Per-class hysteresis: the class must stay over-provisioned
			// for the whole hold (scaleDownHoldIntervals control periods)
			// before its surplus drains, so burst-edge flapping does not
			// buy extra cold starts.
			if f.overSince[ci] < 0 {
				f.overSince[ci] = now
				break
			}
			if now-f.overSince[ci] < scaleDownHoldIntervals*f.cfg.IntervalSec {
				break
			}
			surplus := activeN - desired[ci]
			// Drain the emptiest slots first (they finish draining soonest).
			cands := make([]*slot, 0, activeN)
			for _, s := range f.slots {
				if s.class == ci && s.active && !s.draining {
					cands = append(cands, s)
				}
			}
			sort.SliceStable(cands, func(a, b int) bool {
				return f.pool.Outstanding(cands[a].idx) < f.pool.Outstanding(cands[b].idx)
			})
			for i := 0; i < surplus && i < len(cands); i++ {
				cands[i].draining = true
			}
		default:
			f.overSince[ci] = -1
		}
	}
}

// retireDrained deactivates drained slots and closes their billing span.
func (f *fleet) retireDrained(now float64) {
	for _, s := range f.slots {
		if s.active && s.draining && f.pool.Outstanding(s.idx) == 0 {
			s.active = false
			s.draining = false
			s.billedHours += (now - s.billStart) / 3600
		}
	}
}

// report assembles the run outcome from the drained pool, billing
// still-active slots to the final clock.
func (f *fleet) report(p *serve.Pool) *Report {
	now := p.Now()
	usage := make([]ClassUsage, len(f.classes))
	for i, c := range f.classes {
		usage[i] = ClassUsage{Name: c.Name, ColdStarts: f.coldStarts[i], ColdStartSec: c.ColdStartSec}
	}
	hours := make([]float64, len(f.slots))
	for _, s := range f.slots {
		hours[s.idx] = s.billedHours
		if s.active {
			hours[s.idx] += (now - s.billStart) / 3600
		}
		u := &usage[s.class]
		u.ReplicaHours += hours[s.idx]
		u.Dispatched += s.dispatched
	}
	// Peak active per class from the window series.
	for _, w := range f.windows {
		for ci, n := range w.Active {
			if n > usage[ci].PeakActive {
				usage[ci].PeakActive = n
			}
		}
	}
	out := &Report{
		Dispatch: f.cfg.Dispatch.String(),
		// Replicas built but never billed nor dispatched to (a class's
		// probe slot) stay out of the aggregate. Arrivals still pending at
		// the horizon (mid-cold-start) count as unfinished.
		Aggregate: p.Aggregate(func(id int) bool {
			return f.slots[id].dispatched > 0 || hours[id] > 0
		}),
		Windows:    f.windows,
		Usage:      usage,
		ColdStarts: sum(f.coldStarts),
	}
	for i, c := range f.classes {
		usage[i].CostUSD = usage[i].ReplicaHours * c.HourlyUSD
		out.ReplicaHours += usage[i].ReplicaHours
		out.CostUSD += usage[i].CostUSD
	}
	if goodTokens := out.Aggregate.GoodOutputTokens; goodTokens > 0 {
		out.USDPerMTok = out.CostUSD / (float64(goodTokens) / 1e6)
	} else {
		out.USDPerMTok = math.Inf(1)
	}
	return out
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}
