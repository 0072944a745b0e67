package serve

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"cllm/internal/sim"
	"cllm/internal/tee"
)

// pairDispatcher builds two replicas and alternates arrivals between them.
type pairDispatcher struct {
	be Backend
	n  int
}

func (d *pairDispatcher) Start(p *Pool) error {
	for id := range 2 {
		if err := p.Add(id, d.be, p.cfg.Seed+int64(id)); err != nil {
			return err
		}
	}
	return nil
}

func (d *pairDispatcher) Dispatch(p *Pool, a Arrival) {
	p.Submit(d.n%2, a)
	d.n++
}

// TestReportTwiceIsEqual: a report compacts its replica's ledger in place
// once every request has left it, and the doc comments promise that
// building the report again gives the same one — for a lone replica, for
// a cut with requests still in flight (no compaction), and for
// Pool.Aggregate.
func TestReportTwiceIsEqual(t *testing.T) {
	be := cpuBackend(tee.TDX())
	cfg := tinyConfig(2000, 200)
	cfg.TTFTSLOSec = 0.02
	cfg.Faults = FaultConfig{Admission: AdmitShed, RetryMax: 1}
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	p, err := Drive(cfg, &pairDispatcher{be: be})
	if err != nil {
		t.Fatal(err)
	}
	a := p.Aggregate(func(int) bool { return true })
	if a.Completed == 0 || a.Dropped == 0 {
		t.Fatalf("completed %d, dropped %d: want both nonzero so the fold skips dropped slots", a.Completed, a.Dropped)
	}
	if b := p.Aggregate(func(int) bool { return true }); !reflect.DeepEqual(a, b) {
		t.Fatalf("Pool.Aggregate differs on a second call:\n%+v\n%+v", a, b)
	}
	for id, s := range p.reps {
		if x, y := s.report(), s.report(); !reflect.DeepEqual(x, y) {
			t.Fatalf("replica %d: report differs on a second call:\n%+v\n%+v", id, x, y)
		}
	}

	// Cut mid-run: live slots keep the ledger uncompacted.
	cut := tinyConfig(60, 200)
	if err := cut.normalize(); err != nil {
		t.Fatal(err)
	}
	p = newPool(cut)
	if err := p.Add(0, be, cut.Seed); err != nil {
		t.Fatal(err)
	}
	s := p.reps[0]
	src, err := newArrivalSource(cut, false)
	if err != nil {
		t.Fatal(err)
	}
	p.d = lone{s}
	mid := p.release(src, 100, 0)
	if _, err := p.eng.RunUntil(sim.Time(mid), cut.maxSteps()); err != nil {
		t.Fatal(err)
	}
	if s.led.live == 0 {
		t.Fatal("no request in flight at the cut; the test is vacuous")
	}
	if x, y := s.report(), s.report(); !reflect.DeepEqual(x, y) {
		t.Fatalf("report cut mid-run differs on a second call:\n%+v\n%+v", x, y)
	}
}

// ownerTally attributes each request to the replica it arrived on and
// sums round tokens per replica, from the event stream alone.
type ownerTally struct {
	owner       map[int]int // request ID → replica it arrived on
	finished    map[int][]int
	roundTokens map[int]int
	finishToks  map[int]int
	handoff     func(Event) // called at each EvHandoff when set
}

func newOwnerTally() *ownerTally {
	return &ownerTally{owner: map[int]int{}, finished: map[int][]int{}, roundTokens: map[int]int{}, finishToks: map[int]int{}}
}

func (o *ownerTally) Event(ev Event) {
	switch ev.Kind {
	case EvArrive:
		o.owner[ev.ReqID] = ev.Replica
	case EvDecodeRound:
		o.roundTokens[ev.Replica] += ev.Tokens
	case EvHandoff:
		if o.handoff != nil {
			o.handoff(ev)
		}
	case EvFinish:
		own := o.owner[ev.ReqID]
		o.finished[own] = append(o.finished[own], ev.ReqID)
		o.finishToks[own] += ev.Tokens
	}
}

func (o *ownerTally) Sample(Sample) {}

// TestLedgerOwnerAccounting: under disaggregation a request finishes on a
// decode replica, but its outcome and tokens stay with the prefill replica
// that accepted it. Each replica's Requests and TotalTokens must be those
// of the requests it accepted, and mid-run cuts — requests queued on a
// decode replica or crossing the handoff — must neither lose nor double
// count a token.
func TestLedgerOwnerAccounting(t *testing.T) {
	var reps []*scheduler
	var cuts, busy int
	cut := func(*sim.Engine) {
		produced, total := 0, 0
		if reps[1].outstanding()+reps[2].outstanding() > 0 {
			busy++
		}
		for _, s := range reps {
			produced += s.producedTot
			total += s.report().TotalTokens
		}
		if total != produced {
			t.Errorf("cut at t=%.4f: reports count %d tokens, replicas produced %d", float64(reps[0].eng.Now()), total, produced)
		}
		cuts++
	}
	tally := newOwnerTally()
	// Cut halfway through every KV handoff, and every 50 ms.
	tally.handoff = func(ev Event) { reps[0].eng.Schedule(sim.Time(ev.XferSec/2), cut) }
	fleetTestHook = func(r []*scheduler, _ []Role) {
		reps = r
		for k := 1; k <= 40; k++ {
			r[0].eng.ScheduleAt(sim.Time(0.05*float64(k)), cut)
		}
	}
	defer func() { fleetTestHook = nil }()
	cfg := tinyConfig(40, 80)
	cfg.Workload.OutputLen = 24
	cfg.Observer = tally
	rep := runDisagg(t, cfg)
	t.Logf("%d cuts, %d with requests queued or running on a decode replica", cuts, busy)
	if cuts < 40+rep.Aggregate.HandoffsOut || busy == 0 || rep.Aggregate.HandoffsOut == 0 || rep.Aggregate.Completed != 80 {
		t.Fatalf("busy cuts %d, handoffs %d, completed %d: want a handed-off run that completes", busy, rep.Aggregate.HandoffsOut, rep.Aggregate.Completed)
	}
	for i, r := range rep.PerReplica {
		var ids []int
		toks := 0
		for _, m := range r.Requests {
			ids = append(ids, m.ID)
			toks += m.OutputTokens
		}
		want := slices.Clone(tally.finished[i])
		slices.Sort(want)
		if !slices.Equal(ids, want) || !slices.IsSorted(ids) {
			t.Errorf("replica %d (%s): Requests %v, want the requests it accepted in arrival order %v", i, rep.Roles[i], ids, want)
		}
		if r.TotalTokens != toks || r.TotalTokens != tally.finishToks[i] {
			t.Errorf("replica %d (%s): TotalTokens %d, its requests' outputs %d, their finish events %d",
				i, rep.Roles[i], r.TotalTokens, toks, tally.finishToks[i])
		}
	}
	if rep.PerReplica[0].Completed != 80 || rep.PerReplica[1].TotalTokens != 0 {
		t.Fatalf("prefill replica completed %d, decode replica 1 counts %d tokens; want 80 and 0",
			rep.PerReplica[0].Completed, rep.PerReplica[1].TotalTokens)
	}
}

// TestLedgerRetriesPerReplica: on a fleet whose replicas shed, retry and
// crash, each replica's TotalTokens is every token it produced — retried
// work included — so it equals the sum of its round events, and its
// Requests are the requests it finished, in arrival order.
func TestLedgerRetriesPerReplica(t *testing.T) {
	cfg := tinyConfig(400, 300)
	cfg.Faults = FaultConfig{Admission: AdmitShed, RetryMax: 2, Plan: []FailPoint{{Replica: 1, TimeSec: 0.3}}, Policy: FailLost}
	tally := newOwnerTally()
	cfg.Observer = tally
	f, err := NewFleet(Unified(cpuBackend(tee.TDX()), FleetConfig{Replicas: 2}))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aggregate.Retries == 0 || rep.Aggregate.Crashes == 0 {
		t.Fatalf("retries %d, crashes %d: want both", rep.Aggregate.Retries, rep.Aggregate.Crashes)
	}
	for i, r := range rep.PerReplica {
		if r.TotalTokens != tally.roundTokens[i] {
			t.Errorf("replica %d: TotalTokens %d, its round events sum to %d", i, r.TotalTokens, tally.roundTokens[i])
		}
		var ids []int
		for _, m := range r.Requests {
			ids = append(ids, m.ID)
		}
		want := slices.Clone(tally.finished[i])
		slices.Sort(want)
		if !slices.Equal(ids, want) {
			t.Errorf("replica %d: Requests %v, want %v", i, ids, want)
		}
	}
}

// lastFinish reads the live heap once, at the run's last finish.
type lastFinish struct {
	n, left int
	heap    uint64
}

func (o *lastFinish) Event(ev Event) {
	if ev.Kind != EvFinish {
		return
	}
	if o.n++; o.n == o.left {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		o.heap = ms.HeapAlloc
	}
}

func (o *lastFinish) Sample(Sample) {}

// TestExactModeLedgerMemory bounds what an exact lone run retains per
// finished request: its outcome in the ledger (64 B plus a 1-byte tag),
// not its scheduler state. The live heap at the last finish is measured at
// two request counts; their difference per request cancels the fixed
// costs.
func TestExactModeLedgerMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("memory check is not -short friendly")
	}
	retained := func(n int) uint64 {
		cfg := tinyConfig(50, n)
		o := &lastFinish{left: n}
		cfg.Observer = o
		rep, err := Run(cpuBackend(tee.Baremetal()), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Completed != n || o.heap == 0 {
			t.Fatalf("%d requests: %d completed; the heap was not read at the last finish", n, rep.Completed)
		}
		return o.heap
	}
	const small, large = 50_000, 250_000
	a, b := retained(small), retained(large)
	per := (float64(b) - float64(a)) / (large - small)
	t.Logf("live heap at the last finish: %.1f MiB at %d requests, %.1f MiB at %d: %.1f B per request",
		float64(a)/(1<<20), small, float64(b)/(1<<20), large, per)
	if per > 96 {
		t.Fatalf("exact run retains %.1f B per finished request, bound 96", per)
	}
}
