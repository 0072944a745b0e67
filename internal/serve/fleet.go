package serve

import (
	"fmt"

	"cllm/internal/cloud"
	"cllm/internal/enum"
	"cllm/internal/stats"
)

// LBPolicy selects how a fleet's load balancer dispatches arrivals to
// replicas.
type LBPolicy int

const (
	// RoundRobin dispatches arrivals to replicas in rotation.
	RoundRobin LBPolicy = iota
	// LeastLoaded dispatches each arrival to the replica with the fewest
	// outstanding (queued + running) requests at arrival time.
	LeastLoaded
	// PrefixAffinity routes requests that declare a shared prefix to the
	// replica owning that prefix (hash of the prefix identity), so one
	// replica's prefix cache serves the whole group. To avoid hash skew
	// starving the fleet, a request whose home replica is badly overloaded
	// relative to the least-loaded one is dispatched least-loaded instead
	// (cache-aware routing with a load guard, as production routers do).
	// Requests without a prefix always go least-loaded. Only useful with
	// Config.PrefixSharing on.
	PrefixAffinity
)

var lbPolicies = enum.Table[LBPolicy]{
	Names:  []string{RoundRobin: "round-robin", LeastLoaded: "least-loaded", PrefixAffinity: "prefix-affinity"},
	Alias:  map[string]LBPolicy{"": RoundRobin, "rr": RoundRobin, "ll": LeastLoaded, "affinity": PrefixAffinity, "pa": PrefixAffinity},
	Prefix: "serve", Noun: "load-balancing policy", Type: "LBPolicy",
}

// affinityOverloadSlack is how many outstanding requests beyond twice the
// fleet minimum a prefix's home replica may hold before prefix-affinity
// dispatch abandons cache locality for load balance.
const affinityOverloadSlack = 4

// String names the policy as the CLI spells it.
func (p LBPolicy) String() string { return lbPolicies.String(p) }

// ParseLBPolicy resolves a CLI policy name.
func ParseLBPolicy(s string) (LBPolicy, error) { return lbPolicies.Parse(s) }

// Validate rejects a value outside the declared policies, which dispatch
// would otherwise route least-loaded without a word.
func (p LBPolicy) Validate() error { return lbPolicies.Check(p) }

// FleetConfig describes a multi-replica deployment: N identical replicas
// of the backend behind a load balancer.
type FleetConfig struct {
	// Replicas is the fleet size (default 1).
	Replicas int
	// Policy is the dispatch policy (default RoundRobin).
	Policy LBPolicy
}

// FleetReport is the outcome of one fleet simulation: the aggregate view
// the operator sees plus each replica's own report.
type FleetReport struct {
	// Policy is the dispatch policy's name. Disaggregated topologies show
	// both stages' policies as "prefill→decode".
	Policy string
	// Topology is the role-group layout in -topology syntax; empty for a
	// classic unified fleet.
	Topology string
	// Aggregate merges all replicas: counters are summed, quantiles are
	// computed over the union of completed requests, and KV/prefix-cache
	// figures are fleet totals (peak block usage sums per-replica peaks,
	// which may occur at different times).
	Aggregate *Report
	// PerReplica holds each replica's own report, indexed by replica. In a
	// disaggregated topology each request's terminal outcome is reported
	// by the prefill replica its arrival was dispatched to (the replica
	// that owns its observer stream); decode replicas report zero
	// requests but carry their own round/KV/handoff counters.
	PerReplica []*Report
	// Roles labels each replica with its role name, parallel to
	// PerReplica.
	Roles []string
	// Dispatch counts arrivals routed to each replica (always zero for
	// decode-role replicas, which only admit handoffs — see
	// Report.HandoffsIn for their intake).
	Dispatch []int
}

// SLOAttainment returns the fleet-wide fraction of offered requests served
// within SLO.
func (f *FleetReport) SLOAttainment() float64 { return f.Aggregate.SLOAttainment() }

// CostPerMTok prices the simulated fleet from its total hourly rent (the
// sum over replicas, so a topology mixing platforms prices correctly):
// the whole fleet is rented for the whole run while only SLO-compliant
// tokens count as served. This replaces the single-replica extrapolation
// (Report.CostAtSLO) with a simulated fleet — queueing interactions
// between replicas and the load balancer are in the number, not assumed
// away.
func (f *FleetReport) CostPerMTok(totalHourlyUSD float64) (float64, error) {
	return cloud.FleetCostPerMTok(totalHourlyUSD, f.Aggregate.GoodputTokensPerSec)
}

// RunFleet simulates cfg's offered load against a fleet of identical
// replicas sharing one simulated clock: the load balancer dispatches each
// arrival to a replica per fc.Policy, and every replica runs its own
// continuous-batching scheduler, KV pool and noise stream. The offered
// rate is the fleet rate — fc.Replicas divides it implicitly through
// dispatch, not by pre-splitting the trace. It is a thin wrapper over the
// one-group unified topology: NewFleet(Unified(be, fc)).Run(cfg), with
// byte-identical output.
func RunFleet(be Backend, cfg Config, fc FleetConfig) (*FleetReport, error) {
	f, err := NewFleet(Unified(be, fc))
	if err != nil {
		return nil, err
	}
	return f.Run(cfg)
}

// fleetTestHook, when non-nil, receives a fleet's schedulers and their
// roles before the run starts. White-box tests keep them to assert
// invariants during the run (through an observer) or after it (KV-block
// conservation over the handoff edge); nil in production, so the hook
// costs one predictable branch.
var fleetTestHook func(reps []*scheduler, roles []Role)

// stageLB dispatches requests across one stage's replicas — the arrival
// stage (unified or prefill replicas, as the driver's Dispatcher) or the
// decode stage of a disaggregated topology (behind handoffDispatcher).
type stageLB struct {
	reps   []*scheduler
	policy LBPolicy
	rr     int
}

func (*stageLB) Start(*Pool) error { return nil }

func (d *stageLB) Dispatch(p *Pool, a Arrival) { p.accept(d.reps[d.pick(a.st.req)], a.st) }

// leastLoaded returns the stage position with the fewest outstanding
// requests among servable replicas, lowest position on ties
// (deterministic). Crashed replicas are skipped — the balancer sees the
// failure — unless the whole stage is down, in which case arrivals queue
// on the least-loaded replica anyway and wait out its recovery. Without
// fault injection no replica is ever down, so dispatch is byte-identical
// to prior releases.
func (d *stageLB) leastLoaded() (int, int) {
	best, load := -1, 0
	for i := range d.reps {
		if d.reps[i].down {
			continue
		}
		if l := d.reps[i].outstanding(); best < 0 || l < load {
			best, load = i, l
		}
	}
	if best < 0 {
		best, load = 0, d.reps[0].outstanding()
		for i := 1; i < len(d.reps); i++ {
			if l := d.reps[i].outstanding(); l < load {
				best, load = i, l
			}
		}
	}
	return best, load
}

// pick chooses the stage position for one request per the stage policy.
func (d *stageLB) pick(req Request) int {
	n := len(d.reps)
	switch d.policy {
	case RoundRobin:
		i := d.rr % n
		d.rr++
		if d.reps[i].down {
			// Failover: route past the crashed replica without
			// disturbing the survivors' rotation order.
			for j := 1; j < n; j++ {
				if cand := (i + j) % n; !d.reps[cand].down {
					return cand
				}
			}
		}
		return i
	case PrefixAffinity:
		if req.PrefixID != 0 {
			home := int(prefixHash(req.PrefixID) % uint64(n))
			best, load := d.leastLoaded()
			if !d.reps[home].down && d.reps[home].outstanding() <= 2*load+affinityOverloadSlack {
				return home
			}
			return best
		}
	}
	best, _ := d.leastLoaded()
	return best
}

// Run simulates cfg's offered load against the fleet topology on one
// shared simulated clock, through the driver with the front stage's load
// balancer as dispatcher. Unified topologies behave exactly as RunFleet
// always has. Disaggregated topologies route every arrival to a
// prefill-role replica; after its first token the request's KV cache is
// handed off — drain at the source's swap bandwidth, a NIC transfer, and
// ingest on a decode-role replica that admits it with the cache already
// computed (see handoff.go for the pricing). Fault injection and
// non-FIFO admission are not supported across the handoff edge yet and
// are rejected for disaggregated topologies.
func (f *Fleet) Run(cfg Config) (*FleetReport, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	// Work on a copy of the groups: coster building mutates the backends,
	// and the fleet may be re-run.
	groups := append([]RoleGroup(nil), f.topo.Groups...)
	if err := f.topo.CheckFaults(cfg.Faults); err != nil {
		return nil, err
	}
	disagg := f.topo.Disaggregated()
	for i := range groups {
		g := &groups[i]
		if g.Backend.Coster == nil {
			// All replicas of a group run the same backend and model: share
			// one costing table so an iteration shape costed on one replica
			// is a table hit on every other.
			coster, err := NewStepCoster(g.Backend, cfg)
			if err != nil {
				return nil, err
			}
			g.Backend.Coster = coster
		}
	}
	// Stage dispatchers: arrivals go to the front stage (every replica of
	// a unified fleet, the prefill replicas of a disaggregated one);
	// handoffs go to the decode stage.
	p := newPool(cfg)
	front, decode := &stageLB{}, &stageLB{}
	var roles []Role
	for _, g := range groups {
		stage := front
		if g.Role == RoleDecode {
			stage = decode
		}
		stage.policy = g.Policy
		for k := 0; k < g.Replicas; k++ {
			i := len(roles)
			if err := p.Add(i, g.Backend, cfg.Seed+int64(i)*7919+1); err != nil {
				return nil, err
			}
			stage.reps = append(stage.reps, p.reps[i])
			roles = append(roles, g.Role)
		}
	}
	if disagg {
		hd := &handoffDispatcher{eng: p.eng, stage: decode}
		for i, s := range p.reps {
			switch roles[i] {
			case RolePrefill:
				s.handoff = &handoffState{d: hd}
			case RoleDecode:
				// Decode replicas always stage inbound KV copies in the host
				// swap pool, whatever the preemption policy.
				s.kv.ConfigureSwapPool(s.kv.TotalBlocks())
			}
		}
	}
	src, err := newArrivalSource(cfg, false)
	if err != nil {
		return nil, err
	}
	if fleetTestHook != nil {
		fleetTestHook(p.reps, roles)
	}
	if err := p.drive(src, front); err != nil {
		return nil, err
	}

	total := len(p.reps)
	out := &FleetReport{
		Policy:     front.policy.String(),
		PerReplica: make([]*Report, total),
		Roles:      make([]string, total),
		Dispatch:   make([]int, total),
	}
	if disagg {
		out.Policy = front.policy.String() + "→" + decode.policy.String()
		out.Topology = f.topo.String()
	}
	for i, s := range p.reps {
		out.Roles[i] = roles[i].String()
		out.Dispatch[i] = s.submitted
		out.PerReplica[i] = s.report()
	}
	out.Aggregate = p.merge(out.PerReplica)
	// Each replica's offered load is its dispatch share of the fleet rate,
	// not the whole fleet rate the scheduler config carries.
	if n := p.offered; n > 0 {
		for i, r := range out.PerReplica {
			r.OfferedRate = out.Aggregate.OfferedRate * float64(out.Dispatch[i]) / float64(n)
		}
	}
	return out, nil
}

// offeredRate is the rate label of a run: an explicit trace's measured
// rate when one is given, otherwise the configured (or scenario-derived)
// Poisson rate.
func offeredRate(cfg Config) float64 {
	if len(cfg.Trace) > 0 {
		span := 0.0
		for _, r := range cfg.Trace {
			if r.ArrivalSec > span {
				span = r.ArrivalSec
			}
		}
		if span > 0 {
			return float64(len(cfg.Trace)) / span
		}
	}
	return cfg.Rate
}

// MergeReports builds a deployment-wide aggregate from per-replica
// reports: counters are summed, the makespan is the maximum, and rates and
// quantiles are rederived from the merged ledger by Report.finish —
// exact reports concatenate their per-request outcomes, sketched ones
// merge their sketches (bucket counts are integers, so the merged
// quantiles equal a single sketch over the union stream). offeredRate
// labels the aggregate. The driver uses it for fleets and elastic
// deployments alike.
//
// The replicas of one run share a quantile mode and sketch alpha; mixing
// exact and sketched reports, or sketches of different resolutions, is a
// caller bug with no lossless repair, so it panics.
func MergeReports(offeredRate float64, reps []*Report) *Report {
	agg := &Report{OfferedRate: offeredRate}
	n := 0
	for _, r := range reps {
		n += len(r.Requests)
	}
	if n > 0 {
		agg.Requests = make([]RequestMetrics, 0, n)
	}
	if len(reps) > 0 && reps[0].Sketched {
		agg.Sketched, agg.SketchAlpha = true, reps[0].SketchAlpha
		mk := func() *stats.Sketch {
			sk, err := stats.NewSketch(agg.SketchAlpha)
			if err != nil {
				panic(err) // alpha came from a validated config
			}
			return sk
		}
		agg.TTFTSketch, agg.TPOTSketch, agg.LatencySketch = mk(), mk(), mk()
	}
	mergeSk := func(dst, src *stats.Sketch) {
		if src == nil || src.Count() == 0 {
			return
		}
		if err := dst.Merge(src); err != nil {
			panic(fmt.Sprintf("serve: MergeReports over mismatched sketches: %v", err))
		}
	}
	for _, r := range reps {
		if r.Sketched != agg.Sketched {
			panic("serve: MergeReports over mixed exact and sketched reports")
		}
		switch agg.Platform {
		case "", r.Platform:
			agg.Platform = r.Platform
		default:
			agg.Platform = "mixed" // heterogeneous deployment
		}
		agg.Completed += r.Completed
		agg.Dropped += r.Dropped
		agg.Unfinished += r.Unfinished
		agg.Preemptions += r.Preemptions
		agg.TotalTokens += r.TotalTokens
		agg.KVBlocksTotal += r.KVBlocksTotal
		agg.PeakKVBlocksInUse += r.PeakKVBlocksInUse
		agg.KVBlocksInUseAtEnd += r.KVBlocksInUseAtEnd
		agg.KVBlocksCachedAtEnd += r.KVBlocksCachedAtEnd
		agg.PrefixCacheHitTokens += r.PrefixCacheHitTokens
		agg.PrefixCacheMissTokens += r.PrefixCacheMissTokens
		agg.EvictedBlocks += r.EvictedBlocks
		agg.SwapOuts += r.SwapOuts
		agg.SwapIns += r.SwapIns
		agg.SwapPoolBlocks += r.SwapPoolBlocks
		agg.PeakSwapBlocksInUse += r.PeakSwapBlocksInUse
		agg.SwapBlocksAtEnd += r.SwapBlocksAtEnd
		for i, n := range r.DroppedByReason {
			agg.DroppedByReason[i] += n
		}
		agg.Sheds += r.Sheds
		agg.Retries += r.Retries
		agg.Crashes += r.Crashes
		agg.DowntimeSec += r.DowntimeSec
		agg.HandoffsOut += r.HandoffsOut
		agg.HandoffsIn += r.HandoffsIn
		agg.HandoffFallbacks += r.HandoffFallbacks
		agg.HandoffTokens += r.HandoffTokens
		agg.HandoffBytes += r.HandoffBytes
		for i, n := range r.CompletedByClass {
			agg.CompletedByClass[i] += n
		}
		for i, n := range r.GoodTokensByClass {
			agg.GoodTokensByClass[i] += n
		}
		agg.GoodRequests += r.GoodRequests
		agg.GoodOutputTokens += r.GoodOutputTokens
		agg.CompletedOutputTokens += r.CompletedOutputTokens
		if r.MakespanSec > agg.MakespanSec {
			agg.MakespanSec = r.MakespanSec
		}
		agg.Requests = append(agg.Requests, r.Requests...)
		if agg.Sketched {
			mergeSk(agg.TTFTSketch, r.TTFTSketch)
			mergeSk(agg.TPOTSketch, r.TPOTSketch)
			mergeSk(agg.LatencySketch, r.LatencySketch)
		}
	}
	agg.finish()
	return agg
}

// SizeFleetForSLO finds the smallest fleet size (1..maxReplicas) whose
// simulated SLO attainment reaches target, returning the size and that
// fleet's report. This answers the sizing question by simulation — replica
// interference, dispatch skew and prefix-cache locality included — where
// cloud.ReplicasForRate only extrapolates from one replica's rate. It
// fails if even maxReplicas cannot reach the target.
//
// Sizes are tried in order since attainment need not be monotone in the
// fleet size (under PrefixAffinity more replicas can lower it). Every
// candidate is seeded from cfg.Seed. Set be.Coster (NewStepCoster) to
// share one memoized step-costing table across the candidates; without it
// each candidate fleet builds its own. Candidates are side-simulations:
// cfg's observer and clear-twin coster are dropped, so an attached
// observer sees none of them.
func SizeFleetForSLO(be Backend, cfg Config, policy LBPolicy, target float64, maxReplicas int) (int, *FleetReport, error) {
	if target <= 0 || target > 1 {
		return 0, nil, fmt.Errorf("serve: SLO attainment target %g outside (0, 1]", target)
	}
	if maxReplicas <= 0 {
		maxReplicas = 16
	}
	cfg.Observer, cfg.ClearCoster = nil, nil
	for n := 1; n <= maxReplicas; n++ {
		rep, err := RunFleet(be, cfg, FleetConfig{Replicas: n, Policy: policy})
		if err != nil {
			return 0, nil, err
		}
		if rep.SLOAttainment() >= target {
			return n, rep, nil
		}
	}
	return 0, nil, fmt.Errorf("serve: even %d replicas miss %.0f%% SLO attainment", maxReplicas, target*100)
}
