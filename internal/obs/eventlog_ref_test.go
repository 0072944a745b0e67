package obs

import (
	"bytes"
	"reflect"
	"testing"

	"cllm/internal/dtype"
	"cllm/internal/gramine"
	"cllm/internal/hw"
	"cllm/internal/model"
	"cllm/internal/perf"
	"cllm/internal/serve"
	"cllm/internal/tee"
	"cllm/internal/trace"
	"cllm/internal/workload"
)

// refChunkEvents is the reference log's chunk capacity: 4096 whole
// serve.Events (512 KiB).
const refChunkEvents = 4096

// refLog is the reference event log: whole 128-B serve.Events in
// fixed-size chunks, filled in order, the storage the recorder used before
// it kept compact records. The differential tests require the recorder's
// readers to agree with it exactly.
type refLog struct {
	chunks []*[refChunkEvents]serve.Event
	tail   int // recorded events in the last chunk
}

func (l *refLog) append(ev serve.Event) {
	if len(l.chunks) == 0 || l.tail == refChunkEvents {
		l.chunks = append(l.chunks, new([refChunkEvents]serve.Event))
		l.tail = 0
	}
	l.chunks[len(l.chunks)-1][l.tail] = ev
	l.tail++
}

// events returns the stream as one fresh slice.
func (l *refLog) events() []serve.Event {
	var out []serve.Event
	for i, c := range l.chunks {
		n := refChunkEvents
		if i == len(l.chunks)-1 {
			n = l.tail
		}
		out = append(out, c[:n]...)
	}
	return out
}

// countKind counts the reference stream's events of kind k.
func (l *refLog) countKind(k serve.EventKind) int {
	n := 0
	for _, ev := range l.events() {
		if ev.Kind == k {
			n++
		}
	}
	return n
}

// refObserver records a run's event stream into a reference log.
type refObserver struct{ log refLog }

func (o *refObserver) Event(ev serve.Event) { o.log.append(ev) }
func (o *refObserver) Sample(serve.Sample)  {}

// overloadSetup is the sgx-overload-observed shape at test size: llama2-7b
// in an SGX enclave with room for 8192 KV tokens under bursty agentic
// traffic, with automatic preemption (so swap transfers carry Bytes and
// XferSec), shedding admission, two retries, a scripted crash and a
// clear-hardware coster (so decode rounds carry both cost triples).
func overloadSetup(t *testing.T, requests int) (serve.Backend, serve.Config) {
	t.Helper()
	m, err := model.Lookup("llama2-7b")
	if err != nil {
		t.Fatal(err)
	}
	wl := trace.Workload{Model: m, Kind: dtype.BF16}
	enclave := int64(trace.WeightFootprint(wl)) + 8192*m.KVCacheBytesPerToken(wl.Kind.Size())
	sgx, err := tee.SGX(gramine.DefaultManifest("llama2-7b.bin", enclave, 64))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := workload.ParseScenario("bursty+agentic", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	be := serve.Backend{CPU: perf.CPURun{CPU: hw.EMR1(), Platform: sgx, Sockets: 1, AMX: true}}
	cfg := serve.Config{Workload: wl, Scenario: &sc, Requests: requests, Seed: 1}
	cfg.MaxBatch = 16
	cfg.ChunkTokens = 512
	cfg.PreemptPolicy = serve.PreemptAuto
	cfg.Faults = serve.FaultConfig{
		Admission: serve.AdmitShed,
		RetryMax:  2,
		Plan:      []serve.FailPoint{{Replica: 0, TimeSec: 600}},
	}
	cfg.QuantileMode = serve.QuantileSketch
	cfg.EpochRequests = 256
	if cfg.ClearCoster, err = serve.NewClearStepCoster(be, cfg); err != nil {
		t.Fatal(err)
	}
	return be, cfg
}

// TestEventLogMatchesReferenceOnOverloadRun records a real overload run
// spanning several chunks into both the recorder and the reference log:
// the stream, every kind count and both Perfetto renderings must agree
// byte for byte.
func TestEventLogMatchesReferenceOnOverloadRun(t *testing.T) {
	be, cfg := overloadSetup(t, 600)
	rec := NewRecorder()
	attrib, err := NewAttribution(0, true)
	if err != nil {
		t.Fatal(err)
	}
	ref := &refObserver{}
	cfg.Observer = Multi(rec, attrib, ref)
	if _, err := serve.Run(be, cfg); err != nil {
		t.Fatal(err)
	}
	if n := len(ref.log.chunks); n < 3 {
		t.Fatalf("the run spans %d reference chunks, want at least 3", n)
	}
	if c, p := len(rec.log.dir.chunks), len(rec.log.dir.pages); c < 3 || p < 3 {
		t.Fatalf("the run spans %d record chunks and %d float pages, want at least 3 of each", c, p)
	}
	want := ref.log.events()
	if got := rec.Len(); got != len(want) {
		t.Fatalf("Len = %d, want %d", got, len(want))
	}
	if got := rec.Events(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Events() differs from the reference stream (%d vs %d events)", len(got), len(want))
	}
	for k := serve.EvArrive; k <= serve.EvHandoff; k++ {
		if got, w := rec.CountKind(k), ref.log.countKind(k); got != w {
			t.Fatalf("CountKind(%v) = %d, want %d", k, got, w)
		}
	}
	for _, k := range []serve.EventKind{serve.EvDecodeRound, serve.EvSwapOut, serve.EvCrash, serve.EvShed} {
		if ref.log.countKind(k) == 0 {
			t.Fatalf("the overload run emitted no %v events", k)
		}
	}
	whole := flatRecorder(want)
	if got, w := rec.PerfettoTrace(), whole.PerfettoTrace(); !bytes.Equal(got, w) {
		t.Fatalf("PerfettoTrace differs from the reference (%d vs %d bytes)", len(got), len(w))
	}
	if got, w := rec.PerfettoTraceWithCounters(attrib), whole.PerfettoTraceWithCounters(attrib); !bytes.Equal(got, w) {
		t.Fatalf("PerfettoTraceWithCounters differs from the reference (%d vs %d bytes)", len(got), len(w))
	}
}
