// Package obs is the simulator's observability layer: it records the
// scheduler's per-request lifecycle event stream (serve.Observer) and
// aggregates gauge samples into bounded windowed time series, then renders
// both as a Chrome trace-event timeline (Perfetto-loadable), a Prometheus
// text-format snapshot, and a CSV time series. Everything is timestamped
// from the deterministic sim clock — no wall clock anywhere — so identical
// seeds produce byte-identical exports across runs and worker counts. The
// event stream is lossless: ReconcileReport proves a run's timeline
// reconstructs its aggregate serve.Report counters exactly.
package obs

import (
	"math"
	"sort"
	"sync"

	"cllm/internal/serve"
)

// Recorders are created per run and discarded; the event log's chunks and
// float pages (eventlog.go) and the window buffers are the only
// observation-path allocations that scale with run length, so recycled
// recorders hand them back to package pools for the next run to reuse
// (sync.Pool sheds them under GC pressure).
var windowBufPool = sync.Pool{New: func() any {
	s := make([]Window, 0, 64)
	return &s
}}

// Recorder implements serve.Observer: it keeps the full lifecycle event
// stream and folds gauge samples into a bounded windowed time series.
// Attach one recorder per run (serve.Config.Observer); the scheduler calls
// it synchronously on the simulation goroutine, so no locking is needed —
// and none is done, which is why a recorder must never be shared across
// concurrent runs.
type Recorder struct {
	log eventLog
	// good accumulates output tokens of SLO-met finishes per replica;
	// samples fold the running value into the series so windowed goodput
	// differences cleanly (and merges across replicas sum correctly).
	good   []int
	series *TimeSeries
}

// NewRecorder builds a recorder with the default 1-second sampling window
// and a 512-window memory bound.
func NewRecorder() *Recorder { return NewRecorderWindow(1, 512) }

// NewRecorderWindow builds a recorder whose time series starts at
// windowSec-wide windows and holds at most maxWindows of them per replica:
// exceeding the bound coalesces adjacent window pairs and doubles the
// width, so memory stays bounded for arbitrarily long runs while the
// series keeps covering the whole run (deterministic downsampling).
func NewRecorderWindow(windowSec float64, maxWindows int) *Recorder {
	if windowSec <= 0 {
		windowSec = 1
	}
	if maxWindows < 2 {
		maxWindows = 2
	}
	return &Recorder{series: &TimeSeries{WindowSec: windowSec, maxWindows: maxWindows}}
}

// Recycle returns the recorder's event-log chunks, float pages and window
// buffers to the package pools. Call it once, after the last read of
// Series() or an export: the windows Series() hands out alias the pooled
// memory and must not be retained. An Events() result is a private copy
// and may be. The recorder itself must not be used again.
func (r *Recorder) Recycle() {
	r.log.release()
	for _, ws := range r.series.reps {
		if ws != nil {
			ws = ws[:0]
			windowBufPool.Put(&ws)
		}
	}
	r.series.reps = nil
}

// Event records one lifecycle event.
func (r *Recorder) Event(ev serve.Event) {
	if ev.Kind == serve.EvFinish && ev.SLOMet {
		for len(r.good) <= ev.Replica {
			r.good = append(r.good, 0)
		}
		r.good[ev.Replica] += ev.Tokens
	}
	r.log.append(&ev)
}

// Sample folds one gauge snapshot into the windowed series.
func (r *Recorder) Sample(s serve.Sample) {
	good := 0
	if s.Replica < len(r.good) {
		good = r.good[s.Replica]
	}
	r.series.add(s, good)
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int { return r.log.len() }

// Events returns the recorded stream in emission order (shared between
// calls; do not mutate). The first call decodes the log into a copy that
// later calls reuse, extending it with any events recorded since. The copy
// owns its memory, so it stays valid after Recycle. Readers that only need
// the count or a walk of the stream should use Len, CountKind or the
// exports, which decode one record at a time.
func (r *Recorder) Events() []serve.Event { return r.log.events() }

// Series returns the windowed time series.
func (r *Recorder) Series() *TimeSeries { return r.series }

// CountKind counts recorded events of one kind.
func (r *Recorder) CountKind(k serve.EventKind) int { return r.log.countKind(k) }

// Window aggregates the gauge samples of one aligned time window
// [StartSec, StartSec+width): instantaneous gauges keep their last value
// and in-window peak; token counters keep the cumulative value at the
// window's last sample, so consumers difference adjacent windows for
// rates.
type Window struct {
	StartSec float64
	Samples  int
	// Last value / in-window peak of the instantaneous gauges.
	Queue, QueuePeak     int
	Running, RunningPeak int
	KVInUse, KVInUsePeak int
	KVCached             int
	Swap, SwapPeak       int
	// Cumulative counters at the window's last sample.
	TotalTokens int
	HitTokens   int
	MissTokens  int
	GoodTokens  int
}

// TimeSeries holds per-replica windowed gauge series with bounded memory.
// Windows are aligned to multiples of WindowSec on the sim clock and
// stored sparsely (idle stretches occupy nothing).
type TimeSeries struct {
	// WindowSec is the current window width; it starts at the configured
	// width and doubles whenever the memory bound forces a coalesce.
	WindowSec  float64
	maxWindows int
	// reps is indexed by replica (fleet replica indices are dense from 0);
	// a replica without samples has no windows.
	reps [][]Window
}

// add folds one sample (and the recorder's running good-token counter)
// into its replica's current window.
func (ts *TimeSeries) add(s serve.Sample, goodTokens int) {
	start := math.Floor(s.TimeSec/ts.WindowSec) * ts.WindowSec
	for len(ts.reps) <= s.Replica {
		ts.reps = append(ts.reps, nil)
	}
	ws := ts.reps[s.Replica]
	if n := len(ws); n == 0 || ws[n-1].StartSec < start {
		if ws == nil {
			ws = (*windowBufPool.Get().(*[]Window))[:0]
		}
		// Only a new window writes the slice back; the rest of the
		// samples update the current window in place.
		ws = append(ws, Window{StartSec: start})
		ts.reps[s.Replica] = ws
	}
	w := &ws[len(ws)-1]
	w.Samples++
	w.Queue, w.QueuePeak = s.QueueDepth, maxInt(w.QueuePeak, s.QueueDepth)
	w.Running, w.RunningPeak = s.Running, maxInt(w.RunningPeak, s.Running)
	w.KVInUse, w.KVInUsePeak = s.KVBlocksInUse, maxInt(w.KVInUsePeak, s.KVBlocksInUse)
	w.KVCached = s.KVBlocksCached
	w.Swap, w.SwapPeak = s.SwapBlocksInUse, maxInt(w.SwapPeak, s.SwapBlocksInUse)
	w.TotalTokens, w.HitTokens, w.MissTokens = s.TotalTokens, s.HitTokens, s.MissTokens
	w.GoodTokens = goodTokens
	if len(ws) > ts.maxWindows {
		ts.coalesce()
	}
	// Sim time is monotone, so samples never land before the last window —
	// the append-only fast path above is the whole insertion logic.
}

// coalesce halves the series' resolution: the window width doubles and
// every replica's windows merge pairwise onto the new alignment. Memory is
// bounded by maxWindows per replica no matter how long the run is.
func (ts *TimeSeries) coalesce() {
	ts.WindowSec *= 2
	for id, ws := range ts.reps {
		out := ws[:0]
		for _, w := range ws {
			start := math.Floor(w.StartSec/ts.WindowSec) * ts.WindowSec
			if n := len(out); n > 0 && out[n-1].StartSec == start {
				out[n-1] = mergeWindows(out[n-1], w)
			} else {
				w.StartSec = start
				out = append(out, w)
			}
		}
		ts.reps[id] = out
	}
}

// mergeWindows folds the later window b into a: peaks take the max, last
// values and cumulative counters come from b.
func mergeWindows(a, b Window) Window {
	a.Samples += b.Samples
	a.Queue, a.QueuePeak = b.Queue, maxInt(a.QueuePeak, b.QueuePeak)
	a.Running, a.RunningPeak = b.Running, maxInt(a.RunningPeak, b.RunningPeak)
	a.KVInUse, a.KVInUsePeak = b.KVInUse, maxInt(a.KVInUsePeak, b.KVInUsePeak)
	a.KVCached = b.KVCached
	a.Swap, a.SwapPeak = b.Swap, maxInt(a.SwapPeak, b.SwapPeak)
	a.TotalTokens, a.HitTokens, a.MissTokens = b.TotalTokens, b.HitTokens, b.MissTokens
	a.GoodTokens = b.GoodTokens
	return a
}

// Replicas returns the replica indices with recorded samples, ascending.
func (ts *TimeSeries) Replicas() []int {
	ids := make([]int, 0, len(ts.reps))
	for id, ws := range ts.reps {
		if len(ws) > 0 {
			ids = append(ids, id)
		}
	}
	return ids
}

// Replica returns one replica's windows in time order (shared slice).
func (ts *TimeSeries) Replica(id int) []Window {
	if id < 0 || id >= len(ts.reps) {
		return nil
	}
	return ts.reps[id]
}

// Merged returns the fleet-wide series, the windowed analogue of
// serve.MergeReports: for every aligned window any replica sampled,
// per-replica values are summed. A replica without a sample in some
// window contributes its previous window's gauge values and cumulative
// counters (a gauge holds its level between samples) — and nothing before
// its first sample. Like MergeReports' peak handling, summed peaks may
// combine maxima from different instants: an upper bound, not a joint
// snapshot.
func (ts *TimeSeries) Merged() []Window {
	ids := ts.Replicas()
	if len(ids) == 0 {
		return nil
	}
	if len(ids) == 1 {
		return append([]Window(nil), ts.reps[ids[0]]...)
	}
	startSet := map[float64]bool{}
	for _, id := range ids {
		for _, w := range ts.reps[id] {
			startSet[w.StartSec] = true
		}
	}
	starts := make([]float64, 0, len(startSet))
	for s := range startSet {
		starts = append(starts, s)
	}
	sort.Float64s(starts)
	pos := make([]int, len(ids)) // next unconsumed window per replica
	carry := make([]*Window, len(ids))
	out := make([]Window, 0, len(starts))
	for _, start := range starts {
		m := Window{StartSec: start}
		for i, id := range ids {
			ws := ts.reps[id]
			if pos[i] < len(ws) && ws[pos[i]].StartSec == start {
				w := ws[pos[i]]
				pos[i]++
				carry[i] = &ws[pos[i]-1]
				m.Samples += w.Samples
				m.Queue += w.Queue
				m.QueuePeak += w.QueuePeak
				m.Running += w.Running
				m.RunningPeak += w.RunningPeak
				m.KVInUse += w.KVInUse
				m.KVInUsePeak += w.KVInUsePeak
				m.KVCached += w.KVCached
				m.Swap += w.Swap
				m.SwapPeak += w.SwapPeak
				m.TotalTokens += w.TotalTokens
				m.HitTokens += w.HitTokens
				m.MissTokens += w.MissTokens
				m.GoodTokens += w.GoodTokens
			} else if c := carry[i]; c != nil {
				m.Queue += c.Queue
				m.QueuePeak += c.Queue
				m.Running += c.Running
				m.RunningPeak += c.Running
				m.KVInUse += c.KVInUse
				m.KVInUsePeak += c.KVInUse
				m.KVCached += c.KVCached
				m.Swap += c.Swap
				m.SwapPeak += c.Swap
				m.TotalTokens += c.TotalTokens
				m.HitTokens += c.HitTokens
				m.MissTokens += c.MissTokens
				m.GoodTokens += c.GoodTokens
			}
		}
		out = append(out, m)
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
