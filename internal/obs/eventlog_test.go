package obs

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"cllm/internal/serve"
)

// lifecycle is the per-request kind sequence synthStream cycles through:
// every trace span and instant kind, plus the per-replica fault pair.
var lifecycle = [...]serve.EventKind{
	serve.EvArrive, serve.EvAdmit, serve.EvPrefillChunk, serve.EvDecodeRound,
	serve.EvPreempt, serve.EvSwapOut, serve.EvSwapIn, serve.EvAdmit,
	serve.EvFirstToken, serve.EvShed, serve.EvRetry, serve.EvFinish,
	serve.EvCrash, serve.EvRecover, serve.EvDrop,
}

// synthStream returns n events with distinct values: requests walk the
// lifecycle in turn across three replicas, on a monotone sim clock.
func synthStream(from, n int) []serve.Event {
	evs := make([]serve.Event, n)
	for j := range evs {
		i := from + j
		req := i / len(lifecycle)
		evs[j] = serve.Event{
			TimeSec: float64(i) * 1e-3,
			Kind:    lifecycle[i%len(lifecycle)],
			Replica: req % 3,
			ReqID:   req,
			Tokens:  i % 97,
			Hist:    i % 5,
			Bytes:   float64(i) * 64,
			XferSec: float64(i%7) * 1e-4,
			SLOMet:  i%2 == 0,
		}
	}
	return evs
}

// record appends evs to rec one by one.
func record(rec *Recorder, evs []serve.Event) {
	for _, ev := range evs {
		rec.Event(ev)
	}
}

// flatRecorder holds evs as a single in-place segment, the way the log
// stored one growing slice before it was chunked: the reference the
// chunk-walking readers must match byte for byte.
func flatRecorder(evs []serve.Event) *Recorder {
	r := NewRecorder()
	r.log = eventLog{dir: &chunkDir{chunks: make([]*eventChunk, 1)}, cur: evs, tail: len(evs)}
	return r
}

// checkLog requires rec's readers to agree with the flat reference want.
func checkLog(t *testing.T, rec *Recorder, want []serve.Event) {
	t.Helper()
	if got := rec.Len(); got != len(want) {
		t.Fatalf("Len = %d, want %d", got, len(want))
	}
	if got := rec.Events(); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("Events() differs from the appended sequence (%d vs %d events)", len(got), len(want))
	}
	ref := flatRecorder(want)
	for k := serve.EvArrive; k <= serve.EvHandoff; k++ {
		if got, w := rec.CountKind(k), ref.CountKind(k); got != w {
			t.Fatalf("CountKind(%v) = %d, want %d", k, got, w)
		}
	}
	if got, w := rec.PerfettoTrace(), ref.PerfettoTrace(); !bytes.Equal(got, w) {
		t.Fatalf("chunked PerfettoTrace differs from the flat reference (%d vs %d bytes)", len(got), len(w))
	}
}

// TestEventLogMatchesFlatReference: a stream spanning more than three
// chunks reads back through every accessor exactly as appended.
func TestEventLogMatchesFlatReference(t *testing.T) {
	want := synthStream(0, 3*chunkEvents+123)
	rec := NewRecorder()
	record(rec, want)
	if n := rec.log.nchunks(); n != 4 {
		t.Fatalf("%d events span %d chunks, want 4", len(want), n)
	}
	checkLog(t, rec, want)
	if n := rec.CountKind(serve.EvAdmit); n == 0 {
		t.Fatal("synthetic stream records no admissions")
	}
}

// TestEventLogAppendAfterEvents: Events() is a snapshot that later events
// extend, whether it was taken in place (one chunk) or flattened.
func TestEventLogAppendAfterEvents(t *testing.T) {
	for _, first := range []int{chunkEvents - 5, 2*chunkEvents + 7} {
		want := synthStream(0, first)
		rec := NewRecorder()
		record(rec, want)
		snap := rec.Events()
		kept := append([]serve.Event(nil), snap...)

		more := synthStream(first, chunkEvents+11)
		record(rec, more)
		want = append(want, more...)
		checkLog(t, rec, want)
		if !reflect.DeepEqual(snap, kept) {
			t.Fatalf("first=%d: events recorded after Events() rewrote its earlier result", first)
		}
		// A second call reuses (and extends) the cache rather than
		// flattening the log again.
		if a, b := rec.Events(), rec.Events(); &a[0] != &b[0] {
			t.Fatalf("first=%d: repeated Events() calls rebuilt the flat copy", first)
		}
		rec.Recycle()
	}
}

// TestEventLogCapacityBound: the log's capacity never exceeds its length
// by more than one chunk, and appending never moves a recorded event.
func TestEventLogCapacityBound(t *testing.T) {
	rec := NewRecorder()
	evs := synthStream(0, 4*chunkEvents+1)
	var firsts []*serve.Event // each chunk's first event, as first recorded
	for i, ev := range evs {
		rec.Event(ev)
		n := i + 1
		if capEvents := rec.log.nchunks() * chunkEvents; capEvents > n+chunkEvents {
			t.Fatalf("after %d events the log holds %d event slots, more than one chunk of slack", n, capEvents)
		}
		if i%chunkEvents == 0 {
			firsts = append(firsts, &rec.log.segment(i / chunkEvents)[0])
		}
	}
	for c, p := range firsts {
		if q := &rec.log.segment(c)[0]; p != q || *q != evs[c*chunkEvents] {
			t.Fatalf("chunk %d moved or changed after later appends", c)
		}
	}
	checkLog(t, rec, evs)
}

// BenchmarkRecorderEvent records a 200k-event stream into a fresh recorder
// per iteration, as a cold run does, and reports the per-event cost.
func BenchmarkRecorderEvent(b *testing.B) {
	const events = 200_000
	evs := synthStream(0, 4096)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for range b.N {
		rec := NewRecorder()
		for i := range events {
			rec.Event(evs[i%len(evs)])
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	perRun := float64(b.N) * events
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perRun, "ns/event")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/perRun, "B/event")
}
