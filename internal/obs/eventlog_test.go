package obs

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
	"unsafe"

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

// recordAll appends evs to rec one by one.
func recordAll(rec *Recorder, evs []serve.Event) {
	for _, ev := range evs {
		rec.Event(ev)
	}
}

// flatRecorder holds evs whole, every record an escape into the log's
// escape slice: the reference the compact readers must match byte for
// byte, since an escaped event is stored and read back without narrowing.
func flatRecorder(evs []serve.Event) *Recorder {
	r := NewRecorder()
	for i := range evs {
		if r.log.tail == len(r.log.cur) {
			r.log.grow()
		}
		r.log.cur[r.log.tail] = record{kind: uint8(evs[i].Kind), flags: flagEscape, reqID: int32(i)}
		r.log.tail++
	}
	if r.log.dir != nil {
		r.log.dir.escapes = evs
	}
	return r
}

// eventBits splits ev into its float fields' bit patterns and the rest, so
// that events compare bit for bit (== on a NaN field is always false).
func eventBits(ev serve.Event) (serve.Event, [9]uint64) {
	fs := [9]*float64{
		&ev.TimeSec, &ev.Bytes, &ev.XferSec, &ev.PrefillSec, &ev.DecodeSec, &ev.SwapSec,
		&ev.ClearPrefillSec, &ev.ClearDecodeSec, &ev.ClearSwapSec,
	}
	var b [9]uint64
	for i, f := range fs {
		b[i], *f = math.Float64bits(*f), 0
	}
	return ev, b
}

// sameEvents reports whether a and b hold the same events bit for bit.
func sameEvents(a, b []serve.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		ea, ba := eventBits(a[i])
		eb, bb := eventBits(b[i])
		if ea != eb || ba != bb {
			return false
		}
	}
	return true
}

// checkLog requires rec's readers to agree with the whole-event reference
// want, bit for bit.
func checkLog(t *testing.T, rec *Recorder, want []serve.Event) {
	t.Helper()
	if got := rec.Len(); got != len(want) {
		t.Fatalf("Len = %d, want %d", got, len(want))
	}
	if got := rec.Events(); !sameEvents(got, want) {
		t.Fatalf("Events() differs from the appended sequence (%d vs %d events)", len(got), len(want))
	}
	ref := flatRecorder(want)
	for k := 0; k <= math.MaxUint8; k++ {
		if got, w := rec.CountKind(serve.EventKind(k)), ref.CountKind(serve.EventKind(k)); got != w {
			t.Fatalf("CountKind(%v) = %d, want %d", serve.EventKind(k), got, w)
		}
	}
	if got, w := rec.PerfettoTrace(), ref.PerfettoTrace(); !bytes.Equal(got, w) {
		t.Fatalf("compact PerfettoTrace differs from the whole-event reference (%d vs %d bytes)", len(got), len(w))
	}
}

// residentBytes is what the log holds: its chunks, its float pages and its
// escape slice.
func residentBytes(l *eventLog) int {
	if l.dir == nil {
		return 0
	}
	return len(l.dir.chunks)*int(unsafe.Sizeof(recordChunk{})) +
		len(l.dir.pages)*int(unsafe.Sizeof(floatPage{})) +
		cap(l.dir.escapes)*int(unsafe.Sizeof(serve.Event{}))
}

// storedFloats counts the float fields of evs with a nonzero bit pattern.
func storedFloats(evs []serve.Event) int {
	n := 0
	for _, ev := range evs {
		_, b := eventBits(ev)
		for _, v := range b[1:] {
			if v != 0 {
				n++
			}
		}
	}
	return n
}

func TestRecordIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(record{}); n != 32 {
		t.Fatalf("a record is %d bytes, want 32", n)
	}
}

// TestEventLogMatchesFlatReference: a stream spanning more than three
// chunks reads back through every accessor exactly as appended.
func TestEventLogMatchesFlatReference(t *testing.T) {
	want := synthStream(0, 3*chunkRecords+123)
	rec := NewRecorder()
	recordAll(rec, want)
	if n := len(rec.log.dir.chunks); n != 4 {
		t.Fatalf("%d events span %d chunks, want 4", len(want), n)
	}
	checkLog(t, rec, want)
	if n := rec.CountKind(serve.EvAdmit); n == 0 {
		t.Fatal("synthetic stream records no admissions")
	}
}

// edgeEvents covers what the compact layout must not lose: every kind
// (and two outside the enum), ints outside int32 in each int field, a
// Policy above 255, and NaN payloads, ±Inf and -0 in each float field.
func edgeEvents() []serve.Event {
	var evs []serve.Event
	for k := 0; k <= int(serve.EvHandoff)+1; k++ {
		evs = append(evs, serve.Event{TimeSec: float64(k), Kind: serve.EventKind(k), ReqID: k, Tokens: 3 * k,
			Hist: -k, Replica: k % 2, Policy: serve.PreemptPolicy(k % 3), Reason: serve.PreemptReason(k),
			Drop: serve.DropReason(k), SLOMet: k%2 == 1, PrefillSec: 1e-3 * float64(k), DecodeSec: 2e-3})
	}
	evs = append(evs, serve.Event{Kind: serve.EvFinish, Tokens: math.MaxUint8 + 1, Policy: math.MaxUint8})
	big := []serve.Event{
		{Kind: serve.EvArrive, ReqID: math.MaxInt32 + 1},
		{Kind: serve.EvAdmit, Tokens: math.MinInt32 - 1},
		{Kind: serve.EvPrefillChunk, Hist: math.MaxInt64},
		{Kind: serve.EvCrash, Replica: math.MinInt64, XferSec: 2},
		{Kind: serve.EvPreempt, Policy: math.MaxUint8 + 1, Bytes: 7},
		{Kind: serve.EvPreempt, Policy: -1},
		{Kind: serve.EvSwapOut, ReqID: math.MaxInt32, Tokens: math.MinInt32, Bytes: 4096, XferSec: 1e-3},
	}
	evs = append(evs, big...)
	specials := []float64{
		math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff0_0000_0000_0001), math.Float64frombits(0xfff8_dead_beef_0001),
		math.SmallestNonzeroFloat64, -math.MaxFloat64,
	}
	for i, v := range specials {
		ev := serve.Event{TimeSec: v, Kind: serve.EvDecodeRound, ReqID: -1, Tokens: i}
		fs := [...]*float64{
			&ev.Bytes, &ev.XferSec, &ev.PrefillSec, &ev.DecodeSec, &ev.SwapSec,
			&ev.ClearPrefillSec, &ev.ClearDecodeSec, &ev.ClearSwapSec,
		}
		for j, f := range fs {
			if (i+j)%3 != 0 {
				*f = v
			}
		}
		evs = append(evs, ev)
	}
	return evs
}

// TestEventLogEdgeValues: the edge events read back bit for bit, both
// alone and straddling a chunk boundary in a stream of two float pages.
func TestEventLogEdgeValues(t *testing.T) {
	edges := edgeEvents()
	rec := NewRecorder()
	recordAll(rec, edges)
	checkLog(t, rec, edges)
	if n := len(rec.log.dir.escapes); n != 6 {
		t.Fatalf("%d events escaped, want the 6 that do not narrow", n)
	}

	// Fill to just short of the chunk boundary, then the edges.
	want := synthStream(0, chunkRecords-len(edges)/2)
	for i := range want {
		want[i].PrefillSec = 1 // with Bytes and XferSec: three floats a row
	}
	want = append(want, edges...)
	rec = NewRecorder()
	recordAll(rec, want)
	if len(rec.log.dir.chunks) != 2 || len(rec.log.dir.pages) != 2 {
		t.Fatalf("the stream spans %d chunks and %d pages, want 2 of each", len(rec.log.dir.chunks), len(rec.log.dir.pages))
	}
	checkLog(t, rec, want)
}

// TestEventLogAppendAfterEvents: Events() is a snapshot that later events
// extend, whether it was taken within the first chunk or across several.
func TestEventLogAppendAfterEvents(t *testing.T) {
	for _, first := range []int{chunkRecords - 5, 2*chunkRecords + 7} {
		want := synthStream(0, first)
		rec := NewRecorder()
		recordAll(rec, want)
		snap := rec.Events()
		kept := append([]serve.Event(nil), snap...)

		more := synthStream(first, chunkRecords+11)
		recordAll(rec, more)
		want = append(want, more...)
		checkLog(t, rec, want)
		if !sameEvents(snap, kept) {
			t.Fatalf("first=%d: events recorded after Events() rewrote its earlier result", first)
		}
		// A second call reuses (and extends) the cache rather than
		// decoding the log again.
		if a, b := rec.Events(), rec.Events(); &a[0] != &b[0] {
			t.Fatalf("first=%d: repeated Events() calls rebuilt the copy", first)
		}
		// The copy is private: appending to it leaves the cache alone.
		got := rec.Events()
		_ = append(got, serve.Event{Kind: serve.EvCrash})
		recordAll(rec, synthStream(len(want), 1))
		if ev := rec.Events()[len(want)]; ev.Kind == serve.EvCrash {
			t.Fatalf("first=%d: an append to an Events() result reached the cache", first)
		}
		rec.Recycle()
	}
}

// TestEventLogCapacityBound: appending never moves a recorded record, and
// the log holds at most one record chunk plus one float page more than its
// 32 B per event and 8 B per stored float.
func TestEventLogCapacityBound(t *testing.T) {
	rec := NewRecorder()
	evs := synthStream(0, 4*chunkRecords+1)
	for i := range evs {
		evs[i].DecodeSec = float64(i%3) * 1e-3 // a float on two rows in three
	}
	var firsts []*record // each chunk's first record, as first recorded
	stored := 0
	for i, ev := range evs {
		rec.Event(ev)
		stored += storedFloats(evs[i : i+1])
		need := 32*(i+1) + 8*stored
		if got := residentBytes(&rec.log); got > need+int(unsafe.Sizeof(recordChunk{}))+int(unsafe.Sizeof(floatPage{})) {
			t.Fatalf("after %d events the log holds %d bytes for %d needed, more than one chunk and one page of slack", i+1, got, need)
		}
		if i%chunkRecords == 0 {
			firsts = append(firsts, &rec.log.dir.chunks[i/chunkRecords][0])
		}
	}
	for c, p := range firsts {
		if q := &rec.log.dir.chunks[c][0]; p != q || q.timeSec != evs[c*chunkRecords].TimeSec {
			t.Fatalf("chunk %d moved or changed after later appends", c)
		}
	}
	checkLog(t, rec, evs)
}

// The fuzz encoding of one event: a control byte, then TimeSec as 8 bytes;
// ReqID, Tokens, Hist, Replica and Policy each as 8 bytes when their
// control bit is set, else as one signed byte; Kind, Reason and Drop as a
// byte each; a float mask byte and 8 bytes per float it names. Control bit
// 5 is SLOMet. Missing bytes read as zero.
type fuzzReader struct{ b []byte }

func (r *fuzzReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *fuzzReader) word() uint64 {
	var w [8]byte
	for i := range w {
		w[i] = r.byte()
	}
	return binary.LittleEndian.Uint64(w[:])
}

func (r *fuzzReader) int(wide bool) int {
	if wide {
		return int(r.word())
	}
	return int(int8(r.byte()))
}

func fuzzEvents(data []byte) []serve.Event {
	r := &fuzzReader{data}
	var evs []serve.Event
	for len(r.b) > 0 {
		ctl := r.byte()
		ev := serve.Event{TimeSec: math.Float64frombits(r.word())}
		ev.ReqID, ev.Tokens = r.int(ctl&1 != 0), r.int(ctl&2 != 0)
		ev.Hist, ev.Replica = r.int(ctl&4 != 0), r.int(ctl&8 != 0)
		ev.Policy = serve.PreemptPolicy(r.int(ctl&16 != 0))
		ev.SLOMet = ctl&32 != 0
		ev.Kind, ev.Reason, ev.Drop = serve.EventKind(r.byte()), serve.PreemptReason(r.byte()), serve.DropReason(r.byte())
		mask := r.byte()
		fs := [...]*float64{
			&ev.Bytes, &ev.XferSec, &ev.PrefillSec, &ev.DecodeSec, &ev.SwapSec,
			&ev.ClearPrefillSec, &ev.ClearDecodeSec, &ev.ClearSwapSec,
		}
		for i, f := range fs {
			if mask&(1<<i) != 0 {
				*f = math.Float64frombits(r.word())
			}
		}
		evs = append(evs, ev)
	}
	return evs
}

// encodeFuzzEvents is fuzzEvents' inverse, for seeding the corpus.
func encodeFuzzEvents(evs []serve.Event) []byte {
	var out []byte
	word := func(v uint64) { out = binary.LittleEndian.AppendUint64(out, v) }
	for _, ev := range evs {
		ints := [...]int{ev.ReqID, ev.Tokens, ev.Hist, ev.Replica, int(ev.Policy)}
		var ctl byte
		for i, v := range ints {
			if int(int8(v)) != v {
				ctl |= 1 << i
			}
		}
		if ev.SLOMet {
			ctl |= 32
		}
		out = append(out, ctl)
		word(math.Float64bits(ev.TimeSec))
		for i, v := range ints {
			if ctl&(1<<i) != 0 {
				word(uint64(v))
			} else {
				out = append(out, byte(int8(v)))
			}
		}
		out = append(out, byte(ev.Kind), byte(ev.Reason), byte(ev.Drop))
		_, b := eventBits(ev)
		var mask byte
		for i, v := range b[1:] {
			if v != 0 {
				mask |= 1 << i
			}
		}
		out = append(out, mask)
		for _, v := range b[1:] {
			if v != 0 {
				word(v)
			}
		}
	}
	return out
}

// FuzzEventLog records an arbitrary event sequence into the compact log
// and into the reference log, repeated past a chunk boundary when the
// first byte is odd: every reader must agree with the reference bit for
// bit. The seeds carry what the mutator will not produce on its own: NaN,
// ±Inf and -0 floats, ints outside int32 and a Policy above 255.
func FuzzEventLog(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeFuzzEvents(edgeEvents()))
	f.Add(append([]byte{1}, encodeFuzzEvents(synthStream(0, 40))...))
	f.Fuzz(func(t *testing.T, data []byte) {
		seq := fuzzEvents(data)
		want := seq
		if len(data) > 0 && data[0]&1 != 0 && len(seq) > 0 {
			for len(want) <= chunkRecords {
				want = append(want, seq...)
			}
		}
		rec := NewRecorder()
		ref := &refLog{}
		for _, ev := range want {
			rec.Event(ev)
			ref.append(ev)
		}
		checkLog(t, rec, ref.events())
		rec.Recycle()
	})
}

// roundMix is a recorded stream's shape, per 100 events: the sgx-overload
// workload's round-heavy mix, 69 decode rounds with two nonzero costs (the
// raw and the clear decode cost), lifecycle rows, and swap rows that carry
// Bytes and XferSec.
func roundMix() []serve.Event {
	var evs []serve.Event
	add := func(n int, ev serve.Event) {
		for range n {
			ev.TimeSec += 1e-3
			evs = append(evs, ev)
		}
	}
	add(69, serve.Event{Kind: serve.EvDecodeRound, ReqID: -1, Tokens: 12, Hist: 11, DecodeSec: 4.1e-2, ClearDecodeSec: 3.3e-2})
	add(10, serve.Event{Kind: serve.EvPrefillChunk, Tokens: 512, Hist: 1024})
	add(5, serve.Event{Kind: serve.EvAdmit, Tokens: 2048, Hist: 256})
	add(5, serve.Event{Kind: serve.EvArrive, Tokens: 2048, Hist: 128})
	add(3, serve.Event{Kind: serve.EvFirstToken})
	add(3, serve.Event{Kind: serve.EvFinish, Tokens: 128, SLOMet: true})
	add(2, serve.Event{Kind: serve.EvPreempt, Tokens: 900, Policy: serve.PreemptAuto, Reason: serve.ReasonDecodeStall})
	add(2, serve.Event{Kind: serve.EvSwapOut, Tokens: 900, Bytes: 4.6e8, XferSec: 2.1e-2})
	add(1, serve.Event{Kind: serve.EvSwapIn, Tokens: 900, Bytes: 4.6e8, XferSec: 2.1e-2})
	return evs
}

// BenchmarkRecorderEvent records a 200k-event round-heavy stream into a
// fresh recorder per iteration, as a cold run does, and reports the
// per-event time, allocated bytes and resident bytes.
func BenchmarkRecorderEvent(b *testing.B) {
	const events = 200_000
	evs := roundMix()
	var before, after runtime.MemStats
	resident := 0
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for range b.N {
		rec := NewRecorder()
		for i := range events {
			rec.Event(evs[i%len(evs)])
		}
		resident = residentBytes(&rec.log)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	perRun := float64(b.N) * events
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perRun, "ns/event")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/perRun, "B/event")
	b.ReportMetric(float64(resident)/events, "resident-B/event")
}
