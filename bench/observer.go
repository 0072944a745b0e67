package main

import (
	"math"
	"time"

	"cllm/internal/serve"
)

// maxStoredEvents bounds the event and sample prefix the observer keeps
// for the obs replays; every event still counts in the totals. Per-event
// costs are intensive, so a prefix measures them as well as the whole
// stream does, at a fraction of the memory.
const maxStoredEvents = 1 << 18

// maxRoundSpans caps the round spans kept for the trace file: a
// 10⁵-request run has ~10⁶ rounds, and every round still counts in the
// per-round statistics, but only the first few thousand are worth drawing.
const maxRoundSpans = 4096

// maxDedupBatches bounds the decode batches kept for the DedupSavedTokens
// replay; past it the observer keeps every second one and halves its
// sampling rate, so the sample stays spread over the whole run.
const maxDedupBatches = 4096

// reqTrack is the observer's view of one request.
type reqTrack struct {
	arrive, admit, first float64 // NaN until seen
	running              bool
	// done marks a finished prefill; the request decodes from the round
	// after doneRound on.
	done      bool
	doneRound int32
	target    int32
}

// replicaTrack is the observer's view of one replica's running batch.
type replicaTrack struct {
	running []int32 // request IDs in admission order
	// finished holds requests that completed in the round being
	// committed: they were part of its batch, so they leave the running
	// set only after its round event.
	finished []serve.Event
	round    int32 // rounds this replica has committed
	arrived  int   // first arrivals dispatched here
}

// benchObserver is the benchmark-owned serve.Observer of the traced rep.
// It records a span per scheduling round and the counts the per-layer
// metrics need, and keeps a bounded prefix of the stream for the replays.
type benchObserver struct {
	tr      *tracer
	runSpan int
	// elided counts the rounds past maxRoundSpans, drawn as no span.
	elided int
	last   time.Time

	events  []serve.Event
	samples []serve.Sample
	nEvents int
	admits  int

	// roundNs holds the host time between consecutive round events.
	roundNs []uint32
	// roundTimes/roundReps are every round's simulated end time and
	// replica; arrivalTimes every arrival's (retries included).
	roundTimes   []float64
	roundReps    []int32
	arrivalTimes []float64
	decodeRounds int
	batchSum     int
	batchHist    map[int]int
	chunks       int

	// perfCalls estimates StepCoster calls; distinct holds the distinct
	// costs seen per round component (prefill, decode, swap and their
	// clear-hardware twins), one per memo-table miss.
	perfCalls int
	distinct  [6]map[float64]struct{}
	// observedRun marks a run that carries its own observer, whose swap
	// events price one more transfer each.
	observedRun bool

	reqs     []reqTrack
	replicas map[int]*replicaTrack

	dedup       [][]int32
	dedupStride int
	mismatches  int

	prefixOf      []int32
	homes         map[[2]int]bool
	prefixed      int
	prefixLocal   int
	ttft, tpot    []float64
	latency, wait []float64
}

func newBenchObserver(tr *tracer, runSpan int, requests int, prefixOf []int32, observedRun bool) *benchObserver {
	o := &benchObserver{
		tr: tr, runSpan: runSpan, last: time.Now(),
		reqs: make([]reqTrack, requests), replicas: map[int]*replicaTrack{},
		batchHist: map[int]int{}, dedupStride: 1, prefixOf: prefixOf,
		homes: map[[2]int]bool{}, observedRun: observedRun,
	}
	for i := range o.distinct {
		o.distinct[i] = map[float64]struct{}{}
	}
	for i := range o.reqs {
		o.reqs[i] = reqTrack{arrive: math.NaN(), admit: math.NaN(), first: math.NaN()}
	}
	return o
}

func (o *benchObserver) replica(i int) *replicaTrack {
	r := o.replicas[i]
	if r == nil {
		r = &replicaTrack{}
		o.replicas[i] = r
	}
	return r
}

// leave drops a request from its replica's running batch.
func (o *benchObserver) leave(ev serve.Event) {
	t := &o.reqs[ev.ReqID]
	if !t.running {
		return
	}
	t.running = false
	rep := o.replica(ev.Replica)
	for i, id := range rep.running {
		if int(id) == ev.ReqID {
			rep.running = append(rep.running[:i], rep.running[i+1:]...)
			break
		}
	}
}

// Event implements serve.Observer.
func (o *benchObserver) Event(ev serve.Event) {
	o.nEvents++
	if len(o.events) < maxStoredEvents {
		o.events = append(o.events, ev)
	}
	if ev.ReqID < 0 || ev.ReqID >= len(o.reqs) {
		if ev.Kind == serve.EvDecodeRound {
			o.round(ev)
		}
		return
	}
	t := &o.reqs[ev.ReqID]
	switch ev.Kind {
	case serve.EvArrive:
		o.arrivalTimes = append(o.arrivalTimes, ev.TimeSec)
		if !math.IsNaN(t.arrive) {
			return // a retry re-entering the stream
		}
		t.arrive = ev.TimeSec
		o.replica(ev.Replica).arrived++
		if p := o.prefixOf[ev.ReqID]; p != 0 {
			o.prefixed++
			key := [2]int{ev.Replica, int(p)}
			if o.homes[key] {
				o.prefixLocal++
			}
			o.homes[key] = true
		}
	case serve.EvAdmit:
		o.admits++
		if math.IsNaN(t.admit) {
			t.admit = ev.TimeSec
			o.wait = append(o.wait, ev.TimeSec-t.arrive)
		}
		rep := o.replica(ev.Replica)
		t.running, t.target = true, int32(ev.Tokens)
		t.done, t.doneRound = ev.Hist >= ev.Tokens, rep.round
		rep.running = append(rep.running, int32(ev.ReqID))
	case serve.EvPrefillChunk:
		o.chunks++
		if ev.Hist+ev.Tokens >= int(t.target) {
			t.done, t.doneRound = true, o.replica(ev.Replica).round
		}
	case serve.EvFirstToken:
		if math.IsNaN(t.first) {
			t.first = ev.TimeSec
		}
	case serve.EvFinish:
		o.ttft = append(o.ttft, t.first-t.arrive)
		o.latency = append(o.latency, ev.TimeSec-t.arrive)
		if ev.Tokens > 1 {
			o.tpot = append(o.tpot, (ev.TimeSec-t.first)/float64(ev.Tokens-1))
		}
		rep := o.replica(ev.Replica)
		rep.finished = append(rep.finished, ev)
	case serve.EvPreempt:
		if ev.Policy == serve.PreemptAuto && ev.Tokens > 0 {
			o.perfCalls += 2 // swap-versus-recompute estimate
		}
		o.leave(ev)
	case serve.EvDrop, serve.EvHandoff:
		o.leave(ev)
	case serve.EvSwapOut, serve.EvSwapIn:
		if o.observedRun && ev.Tokens > 0 {
			o.perfCalls++
		}
	}
}

// round closes one scheduling round: its host-time span, its costed
// components, and the decode batch it ran.
func (o *benchObserver) round(ev serve.Event) {
	now := time.Now()
	d := now.Sub(o.last)
	if d > math.MaxUint32 {
		d = math.MaxUint32
	}
	o.roundNs = append(o.roundNs, uint32(d))
	if len(o.roundNs) <= maxRoundSpans {
		o.tr.add("round", o.last, now, o.runSpan)
	} else {
		o.elided++
	}
	o.last = now

	o.roundTimes = append(o.roundTimes, ev.TimeSec)
	o.roundReps = append(o.roundReps, int32(ev.Replica))
	comps := [6]float64{ev.PrefillSec, ev.DecodeSec, ev.SwapSec, ev.ClearPrefillSec, ev.ClearDecodeSec, ev.ClearSwapSec}
	for i, v := range comps {
		if v > 0 {
			o.perfCalls++
			o.distinct[i][v] = struct{}{}
		}
	}
	rep := o.replica(ev.Replica)
	if ev.Hist > 0 {
		o.decodeRounds++
		o.batchSum += ev.Hist
		o.batchHist[ev.Hist]++
		sample := o.decodeRounds%o.dedupStride == 0
		var batch []int32
		n := 0
		for _, id := range rep.running {
			if t := &o.reqs[id]; t.done && t.doneRound < rep.round {
				n++
				if sample {
					batch = append(batch, id)
				}
			}
		}
		if n != ev.Hist {
			o.mismatches++
		}
		if sample {
			o.dedup = append(o.dedup, batch)
			if len(o.dedup) == maxDedupBatches {
				for i := 0; i < len(o.dedup)/2; i++ {
					o.dedup[i] = o.dedup[2*i+1]
				}
				o.dedup = o.dedup[:len(o.dedup)/2]
				o.dedupStride *= 2
			}
		}
	}
	for _, f := range rep.finished {
		o.leave(f)
	}
	rep.finished = rep.finished[:0]
	rep.round++
}

// Sample implements serve.Observer.
func (o *benchObserver) Sample(s serve.Sample) {
	if len(o.samples) < maxStoredEvents {
		o.samples = append(o.samples, s)
	}
}
