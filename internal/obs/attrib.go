package obs

import (
	"fmt"
	"math"

	"cllm/internal/enum"
	"cllm/internal/serve"
	"cllm/internal/stats"
)

// Phase indexes the six disjoint components latency attribution splits a
// completed request's end-to-end latency into. The six phase times of a
// request sum to its arrival-to-completion latency exactly — an integer
// identity on the nanosecond-quantized sim clock, not a float
// approximation (see nanos).
type Phase int

const (
	// PhaseQueue is arrival to first admission.
	PhaseQueue Phase = iota
	// PhasePrefill is the request's wall-clock share of scheduling rounds
	// attributed to prefill-chunk compute.
	PhasePrefill
	// PhaseDecode is the share attributed to decode-step compute.
	PhaseDecode
	// PhaseStall is preemption to re-admission, summed over episodes.
	PhaseStall
	// PhaseSwap is the share attributed to KV swap transfers (the host
	// swap pool's coalesced copies — cGPU's encrypted bounce buffer).
	PhaseSwap
	// PhaseHandoff is handoff launch to decode-side admission on
	// disaggregated topologies: the source KV drain, the cross-replica NIC
	// transfer, and any queueing at the decode replica before it admits
	// the request. Always zero on unified fleets.
	PhaseHandoff
	// NumPhases sizes per-phase arrays.
	NumPhases
)

var phases = enum.Table[Phase]{
	Names: []string{PhaseQueue: "queue", PhasePrefill: "prefill", PhaseDecode: "decode",
		PhaseStall: "preempt-stall", PhaseSwap: "swap-transfer", PhaseHandoff: "handoff"},
	Type: "Phase",
}

// String names the phase as the exporters spell it.
func (p Phase) String() string { return phases.String(p) }

// taxPhases maps the three tax components (prefill, decode, swap — the
// costed round components; queue and stall are emergent waiting with no
// per-step counterfactual) onto their Phase for labeling.
var taxPhases = [3]Phase{PhasePrefill, PhaseDecode, PhaseSwap}

// nanos quantizes a sim-clock timestamp to integer nanoseconds — the unit
// every phase accumulator uses. Each timestamp is quantized exactly once,
// so interval sums telescope exactly in int64 arithmetic and the
// conservation invariant (queue + prefill + decode + stall + swap +
// handoff == finish − arrive) holds bit-for-bit per request. float64 still resolves
// ~4 ns at 10⁷-second horizons, well inside the quantum.
func nanos(sec float64) int64 { return int64(math.Round(sec * 1e9)) }

// splitRound splits a round's measured duration d (nanos) across prefill /
// decode / swap proportionally to the raw costed components, by sequential
// remainder rounding: each share rounds against the remaining duration and
// the last nonzero component absorbs the remainder, so the three parts are
// each in [0, d] and sum to d exactly. The noise scaling between the raw
// components and the measured duration cancels in the proportions.
func splitRound(d int64, prefSec, decSec, swapSec float64) (prefN, decN, swapN int64) {
	rem := d
	remFrac := prefSec + decSec + swapSec
	if remFrac <= 0 {
		// No modeled work (defensive: such a round is never scheduled).
		return 0, rem, 0
	}
	prefN = int64(math.Round(float64(rem) * (prefSec / remFrac)))
	rem -= prefN
	remFrac -= prefSec
	if remFrac <= 0 {
		return prefN + rem, 0, 0
	}
	decN = int64(math.Round(float64(rem) * (decSec / remFrac)))
	rem -= decN
	return prefN, decN, rem
}

// attribReq is the live per-request fold state: constant-size, recycled
// through a freelist on completion, so Attribution's memory is bounded by
// the number of in-flight requests — not the run length — and 10⁸-request
// epoch-sharded runs stream through it flat.
type attribReq struct {
	id       int
	arriveN  int64
	admitted bool  // first admission seen (queue phase closed)
	preemptN int64 // last preemption instant while waiting to re-admit
	handoffN int64 // pending handoff launch instant (disaggregated fleets)
	finished bool  // EvFinish seen; finalized by the same round's event

	phaseN [NumPhases]int64
	taxN   [3]int64
}

// replicaAttrib tracks one replica's current scheduling-round span and
// batch membership. Rounds are contiguous while the batch is non-empty, so
// the next round's start is the previous round's end; admissions into an
// empty batch restart the span.
type replicaAttrib struct {
	startN  int64
	members []*attribReq
}

// Attribution is a streaming serve.Observer that folds the lifecycle event
// stream into per-request phase vectors — queue wait, prefill compute,
// decode compute, preemption stall, swap transfer, KV handoff — and aggregates each
// phase into a DDSketch. With a clear-hardware counterfactual coster
// attached to the run (serve.Config.ClearCoster), it additionally
// accumulates the per-phase TEE tax: the delta between the real and
// clear-twin cost of every round the request sat in.
//
// Memory is bounded by in-flight requests plus the sketches' bucket
// counts; it works unchanged on fleet, autoscaled and epoch-sharded runs
// because it consumes only the observer stream. Like every observer it
// must not be shared across concurrent runs.
type Attribution struct {
	alpha       float64
	clearCosted bool

	reqs map[int]*attribReq
	reps map[int]*replicaAttrib
	free []*attribReq

	phase    [NumPhases]*stats.Sketch
	phaseSec [NumPhases]float64
	tax      [3]*stats.Sketch
	taxSec   [3]float64
	latency  *stats.Sketch
	taxShare *stats.Sketch

	completed  int64
	dropped    int64
	latSec     float64
	violations []string

	counters *counterSeries

	// onFinalize, when set (ReconcilePhases), receives every completed
	// request's exact phase vector before it is folded into the sketches.
	onFinalize func(id, replica int, phaseN [NumPhases]int64, latN int64)
}

// NewAttribution builds an attribution engine whose phase sketches carry
// the given relative-error bound (0 means stats.DefaultSketchAlpha), with
// the default 1-second / 512-window Perfetto counter series. clearCosted
// declares that the run carries a clear-hardware coster
// (serve.Config.ClearCoster), enabling TEE-tax accumulation — without it
// the Clear* event fields are zero and a tax would be meaningless.
func NewAttribution(alpha float64, clearCosted bool) (*Attribution, error) {
	return NewAttributionWindow(alpha, clearCosted, 1, 512)
}

// NewAttributionWindow is NewAttribution with an explicit counter-series
// window width and memory bound (clamped like NewRecorderWindow).
func NewAttributionWindow(alpha float64, clearCosted bool, windowSec float64, maxWindows int) (*Attribution, error) {
	if alpha == 0 {
		alpha = stats.DefaultSketchAlpha
	}
	if windowSec <= 0 {
		windowSec = 1
	}
	if maxWindows < 2 {
		maxWindows = 2
	}
	a := &Attribution{
		alpha:       alpha,
		clearCosted: clearCosted,
		reqs:        map[int]*attribReq{},
		reps:        map[int]*replicaAttrib{},
		counters:    &counterSeries{windowSec: windowSec, maxWindows: maxWindows},
	}
	var err error
	for i := range a.phase {
		if a.phase[i], err = stats.NewSketch(alpha); err != nil {
			return nil, err
		}
	}
	for i := range a.tax {
		if a.tax[i], err = stats.NewSketch(alpha); err != nil {
			return nil, err
		}
	}
	if a.latency, err = stats.NewSketch(alpha); err != nil {
		return nil, err
	}
	if a.taxShare, err = stats.NewSketch(alpha); err != nil {
		return nil, err
	}
	return a, nil
}

// Alpha returns the phase sketches' relative-error bound.
func (a *Attribution) Alpha() float64 { return a.alpha }

// Sample implements serve.Observer; attribution consumes events only.
func (a *Attribution) Sample(serve.Sample) {}

// Event folds one lifecycle event.
func (a *Attribution) Event(ev serve.Event) {
	switch ev.Kind {
	case serve.EvArrive:
		r := a.newReq()
		r.id = ev.ReqID
		r.arriveN = nanos(ev.TimeSec)
		a.reqs[ev.ReqID] = r
	case serve.EvAdmit:
		r := a.reqs[ev.ReqID]
		if r == nil {
			return
		}
		evN := nanos(ev.TimeSec)
		switch {
		case !r.admitted:
			r.admitted = true
			r.phaseN[PhaseQueue] = evN - r.arriveN
		case r.handoffN != 0:
			// First admission on the decode side: the span since the
			// handoff launched — source drain, NIC transfer, decode-side
			// queueing — is the handoff phase.
			r.phaseN[PhaseHandoff] += evN - r.handoffN
			r.handoffN = 0
		default:
			r.phaseN[PhaseStall] += evN - r.preemptN
		}
		rep := a.replica(ev.Replica)
		if len(rep.members) == 0 {
			rep.startN = evN
		}
		rep.members = append(rep.members, r)
	case serve.EvPreempt:
		r := a.reqs[ev.ReqID]
		if r == nil {
			return
		}
		r.preemptN = nanos(ev.TimeSec)
		a.leave(ev.Replica, r)
	case serve.EvHandoff:
		// The request leaves the prefill replica's batch; emitted after the
		// same-timestamp round event (the scheduler defers the handoff), so
		// the round that produced the first token attributed its span first.
		r := a.reqs[ev.ReqID]
		if r == nil {
			return
		}
		r.handoffN = nanos(ev.TimeSec)
		a.leave(ev.Replica, r)
	case serve.EvDrop:
		if r := a.reqs[ev.ReqID]; r != nil {
			delete(a.reqs, ev.ReqID)
			a.recycle(r)
			a.dropped++
		}
	case serve.EvFinish:
		if r := a.reqs[ev.ReqID]; r != nil {
			// The finish instant is the producing round's end; the round
			// event that follows at the same timestamp closes the last
			// round and finalizes the request.
			r.finished = true
		}
	case serve.EvDecodeRound:
		a.round(ev)
	}
}

// round closes one scheduling round: splits its measured duration across
// the costed components, accrues the split (and the clear-twin tax delta)
// to every batch member, and finalizes members that finished at this
// round's end.
func (a *Attribution) round(ev serve.Event) {
	endN := nanos(ev.TimeSec)
	rep := a.replica(ev.Replica)
	d := endN - rep.startN
	if d < 0 {
		d = 0
	}
	prefN, decN, swapN := splitRound(d, ev.PrefillSec, ev.DecodeSec, ev.SwapSec)
	var taxN [3]int64
	if a.clearCosted {
		// The tax is the raw mechanism delta between the real and
		// clear-twin costings of the same step shapes — deterministic,
		// exactly zero on unprotected platforms, and excluding the
		// stochastic noise tail (which the real phase quantiles carry).
		taxN[0] = nanos(ev.PrefillSec) - nanos(ev.ClearPrefillSec)
		taxN[1] = nanos(ev.DecodeSec) - nanos(ev.ClearDecodeSec)
		taxN[2] = nanos(ev.SwapSec) - nanos(ev.ClearSwapSec)
		for i, t := range taxN {
			if t < 0 {
				taxN[i] = 0
			}
		}
	}
	for i := 0; i < len(rep.members); {
		r := rep.members[i]
		r.phaseN[PhasePrefill] += prefN
		r.phaseN[PhaseDecode] += decN
		r.phaseN[PhaseSwap] += swapN
		r.taxN[0] += taxN[0]
		r.taxN[1] += taxN[1]
		r.taxN[2] += taxN[2]
		if r.finished {
			n := len(rep.members)
			rep.members[i] = rep.members[n-1]
			rep.members[n-1] = nil
			rep.members = rep.members[:n-1]
			a.finalize(r, ev.Replica, endN)
			continue
		}
		i++
	}
	rep.startN = endN
	a.counters.add(ev.TimeSec, prefN, decN, swapN, taxN[0]+taxN[1]+taxN[2])
}

// finalize checks conservation and folds one completed request's phase
// vector into the aggregates.
func (a *Attribution) finalize(r *attribReq, replica int, finishN int64) {
	latN := finishN - r.arriveN
	var sumN int64
	for _, p := range r.phaseN {
		sumN += p
	}
	if sumN != latN && len(a.violations) < 8 {
		a.violations = append(a.violations,
			fmt.Sprintf("request %d: phase sum %d ns != latency %d ns (drift %d ns)", r.id, sumN, latN, sumN-latN))
	}
	if a.onFinalize != nil {
		a.onFinalize(r.id, replica, r.phaseN, latN)
	}
	var taxTotN int64
	for i, sk := range a.tax {
		sec := float64(r.taxN[i]) / 1e9
		a.taxSec[i] += sec
		taxTotN += r.taxN[i]
		_ = sk.Add(sec)
	}
	for i, sk := range a.phase {
		sec := float64(r.phaseN[i]) / 1e9
		a.phaseSec[i] += sec
		_ = sk.Add(sec)
	}
	latSec := float64(latN) / 1e9
	a.latSec += latSec
	_ = a.latency.Add(latSec)
	share := 0.0
	if latN > 0 {
		share = float64(taxTotN) / float64(latN)
	}
	_ = a.taxShare.Add(share)
	a.completed++
	delete(a.reqs, r.id)
	a.recycle(r)
}

// leave removes a request from a replica's batch membership (preemption
// or handoff departure) via swap-delete.
func (a *Attribution) leave(replica int, r *attribReq) {
	rep := a.replica(replica)
	for i, m := range rep.members {
		if m == r {
			n := len(rep.members)
			rep.members[i] = rep.members[n-1]
			rep.members[n-1] = nil
			rep.members = rep.members[:n-1]
			break
		}
	}
}

// replica returns (creating if needed) one replica's round state.
func (a *Attribution) replica(id int) *replicaAttrib {
	rep := a.reps[id]
	if rep == nil {
		rep = &replicaAttrib{}
		a.reps[id] = rep
	}
	return rep
}

// newReq takes a recycled fold state or allocates one.
func (a *Attribution) newReq() *attribReq {
	if n := len(a.free); n > 0 {
		r := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		*r = attribReq{}
		return r
	}
	return &attribReq{}
}

// recycle returns a fold state to the freelist.
func (a *Attribution) recycle(r *attribReq) { a.free = append(a.free, r) }

// Merge folds another attribution's aggregates into a — the exact sketch
// merge (integer bucket counts), so attributing shards separately and
// merging yields the same quantiles as one engine seeing the union
// stream. Both engines must share one alpha; in-flight request state is
// not merged (merge completed engines).
func (a *Attribution) Merge(o *Attribution) error {
	if o == nil {
		return fmt.Errorf("obs: cannot merge nil attribution")
	}
	for i := range a.phase {
		if err := a.phase[i].Merge(o.phase[i]); err != nil {
			return err
		}
		a.phaseSec[i] += o.phaseSec[i]
	}
	for i := range a.tax {
		if err := a.tax[i].Merge(o.tax[i]); err != nil {
			return err
		}
		a.taxSec[i] += o.taxSec[i]
	}
	if err := a.latency.Merge(o.latency); err != nil {
		return err
	}
	if err := a.taxShare.Merge(o.taxShare); err != nil {
		return err
	}
	a.completed += o.completed
	a.dropped += o.dropped
	a.latSec += o.latSec
	a.clearCosted = a.clearCosted || o.clearCosted
	for _, v := range o.violations {
		if len(a.violations) < 8 {
			a.violations = append(a.violations, v)
		}
	}
	return nil
}

// PhaseStat summarizes one phase (or tax component) across completed
// requests. Quantiles come from the phase's sketch and carry its alpha
// relative-error bound; Share is the phase's fraction of total completed
// latency (phases partition latency, so the six phase shares sum to 1).
type PhaseStat struct {
	Phase    string  `json:"phase"`
	Count    int64   `json:"count"`
	TotalSec float64 `json:"total_sec"`
	Share    float64 `json:"share"`
	MeanSec  float64 `json:"mean_sec"`
	P50Sec   float64 `json:"p50_sec"`
	P95Sec   float64 `json:"p95_sec"`
	P99Sec   float64 `json:"p99_sec"`
}

// AttribReport is the serializable summary of an attribution run: the
// six-phase latency breakdown, and — when the run was clear-costed — the
// per-phase TEE tax. It round-trips through JSON (cllm-serve -attrib-out)
// and is what Diff compares.
type AttribReport struct {
	Platform string `json:"platform"`
	// Alpha is the sketches' relative-error bound: every quantile below is
	// within ±Alpha (relative) of the exact order statistic.
	Alpha      float64 `json:"alpha"`
	Completed  int64   `json:"completed"`
	Dropped    int64   `json:"dropped"`
	Unfinished int64   `json:"unfinished"`
	// LatencyTotalSec is the summed end-to-end latency of completed
	// requests — exactly the sum of the six phase totals.
	LatencyTotalSec float64 `json:"latency_total_sec"`
	LatencyP50Sec   float64 `json:"latency_p50_sec"`
	// Phases holds the six phase rows in fixed order: queue, prefill,
	// decode, preempt-stall, swap-transfer, handoff.
	Phases []PhaseStat `json:"phases"`
	// ClearCosted reports whether the run carried the clear-hardware
	// counterfactual coster; the tax fields are meaningful only when true.
	ClearCosted bool `json:"clear_costed"`
	// Tax holds the three tax rows (prefill, decode, swap-transfer): the
	// per-request delta between real and clear-twin step costs. Share is
	// relative to total completed latency.
	Tax         []PhaseStat `json:"tax,omitempty"`
	TaxTotalSec float64     `json:"tax_total_sec"`
	// TaxShareP50 is the median per-request tax share of latency;
	// TaxShareMean the aggregate TaxTotalSec/LatencyTotalSec.
	TaxShareP50  float64 `json:"tax_share_p50"`
	TaxShareMean float64 `json:"tax_share_mean"`
	// Violations lists conservation failures (first 8); always empty —
	// the invariant is exact — unless the event stream was truncated or
	// corrupted.
	Violations []string `json:"violations,omitempty"`
}

// Report summarizes the attribution so far. platform labels the report
// (exporters and Diff carry it through).
func (a *Attribution) Report(platform string) *AttribReport {
	rep := &AttribReport{
		Platform:        platform,
		Alpha:           a.alpha,
		Completed:       a.completed,
		Dropped:         a.dropped,
		Unfinished:      int64(len(a.reqs)),
		LatencyTotalSec: a.latSec,
		LatencyP50Sec:   a.latency.Quantile(0.5),
		ClearCosted:     a.clearCosted,
		Violations:      a.violations,
	}
	stat := func(name string, sk *stats.Sketch, total float64) PhaseStat {
		mean := 0.0
		if n := sk.Count(); n > 0 {
			mean = total / float64(n)
		}
		share := 0.0
		if a.latSec > 0 {
			share = total / a.latSec
		}
		return PhaseStat{
			Phase: name, Count: sk.Count(), TotalSec: total, Share: share, MeanSec: mean,
			P50Sec: sk.Quantile(0.5), P95Sec: sk.Quantile(0.95), P99Sec: sk.Quantile(0.99),
		}
	}
	for p := Phase(0); p < NumPhases; p++ {
		rep.Phases = append(rep.Phases, stat(p.String(), a.phase[p], a.phaseSec[p]))
	}
	if a.clearCosted {
		for i, ph := range taxPhases {
			rep.Tax = append(rep.Tax, stat(ph.String(), a.tax[i], a.taxSec[i]))
			rep.TaxTotalSec += a.taxSec[i]
		}
		rep.TaxShareP50 = a.taxShare.Quantile(0.5)
		if a.latSec > 0 {
			rep.TaxShareMean = rep.TaxTotalSec / a.latSec
		}
	}
	return rep
}

// counterSeries accumulates per-round phase seconds into aligned windows
// for the Perfetto counter tracks, with TimeSeries-style bounded memory:
// exceeding maxWindows coalesces pairs and doubles the width.
type counterSeries struct {
	windowSec  float64
	maxWindows int
	wins       []counterWindow
}

// counterWindow is one aligned window's accumulated phase nanoseconds.
type counterWindow struct {
	startSec                 float64
	prefN, decN, swapN, taxN int64
}

// add accrues one round's split into the window containing its end time.
// Sim time is monotone, so insertion is append-only.
func (cs *counterSeries) add(tSec float64, prefN, decN, swapN, taxN int64) {
	start := math.Floor(tSec/cs.windowSec) * cs.windowSec
	if n := len(cs.wins); n == 0 || cs.wins[n-1].startSec < start {
		cs.wins = append(cs.wins, counterWindow{startSec: start})
	}
	w := &cs.wins[len(cs.wins)-1]
	w.prefN += prefN
	w.decN += decN
	w.swapN += swapN
	w.taxN += taxN
	if len(cs.wins) > cs.maxWindows {
		cs.coalesce()
	}
}

// coalesce halves resolution: width doubles, windows merge pairwise.
func (cs *counterSeries) coalesce() {
	cs.windowSec *= 2
	out := cs.wins[:0]
	for _, w := range cs.wins {
		start := math.Floor(w.startSec/cs.windowSec) * cs.windowSec
		if n := len(out); n > 0 && out[n-1].startSec == start {
			out[n-1].prefN += w.prefN
			out[n-1].decN += w.decN
			out[n-1].swapN += w.swapN
			out[n-1].taxN += w.taxN
		} else {
			w.startSec = start
			out = append(out, w)
		}
	}
	cs.wins = out
}
