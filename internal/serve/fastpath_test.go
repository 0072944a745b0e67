package serve

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"unsafe"

	"cllm/internal/dtype"
	"cllm/internal/mem"
	"cllm/internal/tee"
	"cllm/internal/trace"
)

// TestReqStateSize guards per-request memory: a run keeps one reqState per
// request, so growing it raises peak RSS on every long run. The KV slot
// index lives in padding for that reason. A change that needs a bigger
// reqState must raise this bound deliberately.
func TestReqStateSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("size bound is for 64-bit platforms")
	}
	if got := unsafe.Sizeof(reqState{}); got > 160 {
		t.Fatalf("reqState is %d bytes, bound 160", got)
	}
}

// TestSchedulerShape guards the scheduler struct: run counters belong in
// its Report ledger and each off-by-default feature's state behind its one
// pointer, so the struct stays at most 32 fields and a default replica (no
// faults, no topology, no observer) allocates none of the feature state.
func TestSchedulerShape(t *testing.T) {
	if n := reflect.TypeOf(scheduler{}).NumField(); n > 32 {
		t.Fatalf("scheduler has %d fields, bound 32", n)
	}
	cfg := tinyConfig(10, 16)
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	p := newPool(cfg)
	if err := p.Add(0, cpuBackend(tee.TDX()), cfg.Seed); err != nil {
		t.Fatal(err)
	}
	s := p.reps[0]
	src, err := materialize(cfg, s.noise.RNG())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.drive(src, lone{s}); err != nil {
		t.Fatal(err)
	}
	if s.faults != nil || s.handoff != nil || s.attr != nil {
		t.Fatalf("default replica allocated feature state: faults %v, handoff %v, attr %v", s.faults, s.handoff, s.attr)
	}
}

// TestReqDeque exercises the ring buffer through wraps and growth in both
// directions.
func TestReqDeque(t *testing.T) {
	mk := func(id int) *reqState { return &reqState{req: Request{ID: id}} }
	var d reqDeque
	if d.Len() != 0 || d.Front() != nil || d.PopFront() != nil {
		t.Fatal("empty deque misbehaves")
	}
	// Interleave pushes and pops so head walks around the ring while the
	// buffer grows.
	var want []int
	for i := 0; i < 100; i++ {
		d.PushBack(mk(i))
		want = append(want, i)
		if i%3 == 0 {
			d.PushFront(mk(1000 + i))
			want = append([]int{1000 + i}, want...)
		}
		if i%5 == 0 {
			got := d.PopFront()
			if got.req.ID != want[0] {
				t.Fatalf("pop %d, want %d", got.req.ID, want[0])
			}
			want = want[1:]
		}
	}
	if d.Len() != len(want) {
		t.Fatalf("len %d, want %d", d.Len(), len(want))
	}
	if d.Front().req.ID != want[0] {
		t.Fatalf("front %d, want %d", d.Front().req.ID, want[0])
	}
	for _, id := range want {
		if got := d.PopFront().req.ID; got != id {
			t.Fatalf("drain pop %d, want %d", got, id)
		}
	}
	if d.Len() != 0 {
		t.Fatalf("deque not drained: %d left", d.Len())
	}
}

// earliestScan is the deadline index's reference: the front-to-back
// strict-< scan admission ran before the index existed, so the first of
// equal deadlines from the front wins.
func earliestScan(d *reqDeque) (*reqState, int) {
	if d.Len() == 0 {
		return nil, -1
	}
	best, bestIdx := d.At(0), 0
	for i := 1; i < d.Len(); i++ {
		if st := d.At(i); st.deadline < best.deadline {
			best, bestIdx = st, i
		}
	}
	return best, bestIdx
}

// TestDeadlineIndexMatchesScan drives an indexed deque through random
// PushBack, PushFront, PopFront and RemoveAt calls — with few distinct
// deadlines, so ties are common, and with removed requests rejoining at
// either end as preempted and retried ones do — and after every call
// requires Earliest to pick the request and position the scan picks.
func TestDeadlineIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := reqDeque{edf: new(edfIndex)}
	var out []*reqState // requests outside the queue, free to rejoin
	for id := 0; id < 64; id++ {
		out = append(out, &reqState{req: Request{ID: id}})
	}
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(5); {
		case (op == 0 || op == 1) && len(out) > 0:
			k := rng.Intn(len(out))
			st := out[k]
			out = append(out[:k], out[k+1:]...)
			if op == 0 {
				st.deadline = float64(rng.Intn(8)) // arrival or retry: a new deadline
				d.PushBack(st)
			} else {
				d.PushFront(st) // preemption: the deadline stays
			}
		case op == 2 && d.Len() > 0:
			out = append(out, d.PopFront())
		case op == 3 && d.Len() > 0:
			out = append(out, d.RemoveAt(rng.Intn(d.Len())))
		case op == 4 && d.Len() > 0:
			// Admission moves the earliest request to the front.
			_, i := d.Earliest()
			d.PushFront(d.RemoveAt(i))
		}
		want, wantIdx := earliestScan(&d)
		got, gotIdx := d.Earliest()
		if got != want || gotIdx != wantIdx {
			t.Fatalf("step %d: index picks %v at %d, scan %v at %d", step, reqID(got), gotIdx, reqID(want), wantIdx)
		}
		if n := len(d.edf.heap); n != d.Len() {
			t.Fatalf("step %d: heap holds %d requests, queue %d", step, n, d.Len())
		}
	}
}

func reqID(st *reqState) int {
	if st == nil {
		return -1
	}
	return st.req.ID
}

// preemptionHeavyConfig is a KV-starved deployment — the EPC caps the pool
// at a few requests' worth of KV — that forces repeated youngest-victim
// preemption under a fast open-loop burst.
func preemptionHeavyConfig() (Backend, Config) {
	m := tinyModel()
	wl := trace.Workload{Model: m, Kind: dtype.BF16, InputLen: 64, OutputLen: 32}
	p := tee.Baremetal()
	p.Name = "tiny-enclave"
	p.EPC = mem.EPC{
		Size:             int64(trace.WeightFootprint(wl)) + 160*m.KVCacheBytesPerToken(2),
		PageInCostFactor: 1,
	}
	cfg := Config{Workload: wl, Rate: 50, Requests: 32, Seed: 3, BlockTokens: 16}
	cfg.Trace = fixedLengthTrace(cfg)
	return cpuBackend(p), cfg
}

// TestPreemptionKeepsFIFOAdmitOrder is the deque-switch regression test:
// a preemption-heavy run must admit requests first-come-first-served —
// preempted requests rejoin the queue front without reshuffling anyone's
// first admission — and produce the identical audit trail on every run.
func TestPreemptionKeepsFIFOAdmitOrder(t *testing.T) {
	be, cfg := preemptionHeavyConfig()
	rep, order, err := runAudited(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Preemptions == 0 {
		t.Fatal("config exercised no preemptions; regression test is vacuous")
	}
	// Synthetic Poisson arrivals get ascending IDs in arrival order, so
	// FIFO first-admission means the audit trail is strictly ascending.
	if !sort.IntsAreSorted([]int(order)) {
		t.Fatalf("admission order not FIFO under preemption: %v", order)
	}
	rep2, order2, err := runAudited(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, order2) {
		t.Fatalf("admit order not deterministic: %v vs %v", order, order2)
	}
	if !reflect.DeepEqual(rep, rep2) {
		t.Fatal("preemption-heavy run not deterministic")
	}
}

// TestSharedCosterDoesNotPerturbRuns: a run costing through a pre-warmed
// shared table equals a run building its own — memoization is invisible in
// the results.
func TestSharedCosterDoesNotPerturbRuns(t *testing.T) {
	be := cpuBackend(tee.TDX())
	cfg := tinyConfig(10, 24)
	fresh, err := Run(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	coster, err := NewStepCoster(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	be.Coster = coster
	warm1, err := Run(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm2, err := Run(be, cfg) // second run hits the table everywhere
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, warm1) || !reflect.DeepEqual(fresh, warm2) {
		t.Fatal("shared costing table changed run results")
	}
}

// TestMismatchedCosterRejected: a shared costing table built for a
// different model must fail the run loudly instead of silently pricing it
// with the wrong operator traces.
func TestMismatchedCosterRejected(t *testing.T) {
	be := cpuBackend(tee.Baremetal())
	tinyCfg := tinyConfig(10, 8)
	coster, err := NewStepCoster(be, tinyCfg)
	if err != nil {
		t.Fatal(err)
	}
	be.Coster = coster
	if _, err := Run(be, tinyCfg); err != nil {
		t.Fatalf("matching coster rejected: %v", err)
	}
	bigCfg := tinyCfg
	bigCfg.Workload.Model = mustLookup(t, "llama2-7b")
	if _, err := Run(be, bigCfg); err == nil {
		t.Fatal("mismatched coster accepted — run would be priced with the wrong model's traces")
	}
}
