package serve

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"cllm/internal/dtype"
	"cllm/internal/sim"
	"cllm/internal/tee"
	"cllm/internal/trace"
	"cllm/internal/workload"
)

// checkBatch verifies the scheduler's decode bookkeeping at a round
// boundary: prefilling counts the running rows mid-prefill; every other
// running row is on the decode clock exactly once or waits among its
// pending joins, and the clock holds nothing else; every running or queued
// row's kv.cap is the coverage of the holding it points at. It checks the
// clock itself: read cyclically from head its rows' block boundaries
// ascend and each lies within BlockTokens rounds (so the rows at the front
// of the cycle are the ones that grow next), nextDue is the earliest due
// tick, ctxBase the stored context sum and, under prefix sharing, the
// cached dedup (once refreshed) equals a fresh dedupSaved. Counts are read
// through the clock, never from generated directly.
func (s *scheduler) checkBatch() error {
	c := &s.clock
	pending := c.rows[cap(c.rows)-c.pending : cap(c.rows)]
	pre := 0
	for _, r := range s.running {
		switch {
		case r.prefilling():
			pre++
			if r.phase != phaseRunning {
				return fmt.Errorf("request %d is mid-prefill in phase %d", r.req.ID, r.phase)
			}
		case r.phase == phaseDecoding:
			if n := countRow(c.rows, r); n != 1 {
				return fmt.Errorf("decoding request %d is on the clock %d times", r.req.ID, n)
			}
		case r.phase != phaseRunning || countRow(pending, r) != 1:
			return fmt.Errorf("prefilled request %d in phase %d is neither on the clock nor joining it", r.req.ID, r.phase)
		}
	}
	if pre != s.prefilling {
		return fmt.Errorf("prefilling count %d, but %d running rows are mid-prefill", s.prefilling, pre)
	}
	if len(c.rows)+c.pending+pre != len(s.running) {
		return fmt.Errorf("clock holds %d rows and %d joins, the running batch %d prefilled rows",
			len(c.rows), c.pending, len(s.running)-pre)
	}
	for _, r := range c.rows {
		if r.phase != phaseDecoding {
			return fmt.Errorf("clock row %d is in phase %d", r.req.ID, r.phase)
		}
	}
	checkCap := func(r *reqState) error {
		h := &s.kv.slots[r.kv.slot]
		if r.kv.slot != 0 && h.owner != r.req.ID {
			return fmt.Errorf("request %d points at slot %d owned by request %d", r.req.ID, r.kv.slot, h.owner)
		}
		if want := s.kv.cover(h); r.kv.cap != want {
			return fmt.Errorf("request %d caches %d covered tokens, its holding covers %d", r.req.ID, r.kv.cap, want)
		}
		return nil
	}
	for _, r := range s.running {
		if err := checkCap(r); err != nil {
			return err
		}
	}
	for i := 0; i < s.queue.Len(); i++ {
		if err := checkCap(s.queue.At(i)); err != nil {
			return err
		}
	}
	now, bt := c.tick-c.syncTick, s.cfg.BlockTokens
	ctx, due := 0, math.MaxInt
	prev := now
	for k := range c.rows {
		r := c.at(k)
		b := c.boundary(r)
		if b < now || b > now+bt {
			return fmt.Errorf("request %d reaches its block boundary %d rounds from now, want 0..%d", r.req.ID, b-now, bt)
		}
		if b < prev {
			return fmt.Errorf("clock out of boundary order at request %d (%d after %d)", r.req.ID, b, prev)
		}
		prev = b
		ctx += r.req.InputLen + r.generated
		due = min(due, c.dueAt(r))
	}
	if ctx != c.ctxBase {
		return fmt.Errorf("clock context base %d, its rows store %d", c.ctxBase, ctx)
	}
	if len(c.rows) > 0 && due != c.nextDue {
		return fmt.Errorf("clock next-due tick %d, its rows are next due at %d", c.nextDue, due)
	}
	if s.cfg.PrefixSharing && c.shared >= 0 {
		slots := make([]int32, 0, len(c.rows))
		for _, r := range c.rows {
			slots = append(slots, r.kv.slot)
		}
		if fresh := s.kv.dedupSaved(slots); fresh != c.shared {
			return fmt.Errorf("cached dedup %d tokens, a fresh dedupSaved %d", c.shared, fresh)
		}
	}
	return nil
}

// count is r's output-token count read through the clock: a row on it
// stores its count as of syncTick.
func (c *decodeClock) count(r *reqState) int {
	if r.phase == phaseDecoding {
		return r.generated + c.tick - c.syncTick
	}
	return r.generated
}

func countRow(rows []*reqState, r *reqState) int {
	n := 0
	for _, x := range rows {
		if x == r {
			n++
		}
	}
	return n
}

// batchChecker is an observer that runs checkBatch on the emitting replica
// at every round boundary and recounts every row's tokens from scratch:
// from the running batch it saw at the replica's previous boundary, the
// preemptions since and the round's batch size it derives which rows
// decoded and which prefills completed, and requires each row's count
// (read through the clock) to have moved by exactly that. The decoded rows'
// contexts must also sum to the round's fused context sum plus the tokens
// they just produced. It keeps the first failure.
type batchChecker struct {
	reps          []*scheduler
	rounds        int
	recounted     int
	err           error
	seen          map[int]*replicaSeen
	generatedOver map[*reqState]int // per-row count at its replica's last boundary
}

// replicaSeen is one replica's state at its last round boundary.
type replicaSeen struct {
	running   []*reqState
	prefilled []bool // running[i] was fully prefilled
	attempt   []int
	preempted map[int]bool // request IDs preempted since
}

func (c *batchChecker) Event(ev Event) {
	if c.err != nil {
		return
	}
	if c.seen == nil {
		c.seen, c.generatedOver = map[int]*replicaSeen{}, map[*reqState]int{}
	}
	seen := c.seen[ev.Replica]
	if seen == nil {
		seen = &replicaSeen{preempted: map[int]bool{}}
		c.seen[ev.Replica] = seen
	}
	switch ev.Kind {
	case EvPreempt:
		seen.preempted[ev.ReqID] = true
		return
	case EvDecodeRound:
	default:
		return
	}
	c.rounds++
	s := c.reps[ev.Replica]
	err := s.checkBatch()
	if err == nil {
		err = c.recount(s, seen)
	}
	if err != nil {
		c.err = fmt.Errorf("replica %d, round %d at %.6gs: %w", ev.Replica, c.rounds, ev.TimeSec, err)
	}
}

// recount checks every row of the previous boundary's running batch
// against its recounted tokens, then snapshots the batch for the next one.
func (c *batchChecker) recount(s *scheduler, seen *replicaSeen) error {
	aborted := s.faults != nil && s.faults.abortRound
	completed := map[*reqState]bool{}
	if !aborted {
		for _, cw := range s.round.chunks {
			if cw.hist+cw.tokens == cw.r.prefillTarget {
				completed[cw.r] = true
			}
		}
	}
	batch, ctx, decoded := s.round.shape.batch, 0, 0
	for i, r := range seen.running {
		want := c.generatedOver[r]
		if seen.prefilled[i] && !seen.preempted[r.req.ID] && decoded < batch {
			decoded++
			if !aborted {
				want++
			}
			ctx += r.req.InputLen + c.count(r)
		}
		if completed[r] {
			want++
		}
		if r.attempt != seen.attempt[i] {
			continue // a retry restarted it from scratch
		}
		if got := c.count(r); got != want {
			return fmt.Errorf("request %d counts %d tokens, a recount gives %d", r.req.ID, got, want)
		}
		c.recounted++
	}
	if decoded != batch {
		return fmt.Errorf("round batch %d, but only %d rows were decodable", batch, decoded)
	}
	if !aborted {
		ctx -= decoded
	}
	if ctx != s.round.shape.ctxSum {
		return fmt.Errorf("fused context sum %d, the batch's rows sum to %d", s.round.shape.ctxSum, ctx)
	}
	seen.running = append(seen.running[:0], s.running...)
	seen.prefilled, seen.attempt = seen.prefilled[:0], seen.attempt[:0]
	for _, r := range s.running {
		seen.prefilled = append(seen.prefilled, !r.prefilling())
		seen.attempt = append(seen.attempt, r.attempt)
		c.generatedOver[r] = c.count(r)
	}
	clear(seen.preempted)
	return nil
}

// count reads r's tokens through the clock of whichever replica runs it (a
// handed-off request may have moved on).
func (c *batchChecker) count(r *reqState) int {
	if r.phase == phaseDecoding {
		for _, s := range c.reps {
			if countRow(s.clock.rows, r) > 0 {
				return s.clock.count(r)
			}
		}
	}
	return r.generated
}

func (c *batchChecker) Sample(Sample) {}

// decodeCase is one point of the decode-bookkeeping config space.
type decodeCase struct {
	chunk     int // ChunkTokens; 0 is monolithic prefill
	sharing   bool
	policy    PreemptPolicy
	admission AdmissionPolicy
	crashAt   float64 // fraction of the arrival span; 0 plans no crash
	disagg    bool
}

func (c decodeCase) String() string {
	return fmt.Sprintf("chunk=%d/share=%v/%s/%s/crash=%.2g/disagg=%v", c.chunk, c.sharing, c.policy, c.admission, c.crashAt, c.disagg)
}

// config builds c's KV-starved load: the tiny enclave holds about two
// requests' KV, so rounds preempt, swap and re-prefill.
func (c decodeCase) config() (Backend, Config) {
	be, cfg := preemptionHeavyConfig()
	for i := range cfg.Trace {
		// Staggered lengths, so rows cross block boundaries out of
		// admission order and the youngest row can stall itself.
		cfg.Trace[i].InputLen = 40 + 17*i%41
		cfg.Trace[i].OutputLen = 16 + 11*i%29
	}
	cfg.ChunkTokens = c.chunk
	cfg.PreemptPolicy = c.policy
	cfg.Faults.Admission = c.admission
	if c.sharing {
		// Two prefix groups sharing the first half of each prompt.
		cfg.PrefixSharing = true
		for i := range cfg.Trace {
			cfg.Trace[i].PrefixID, cfg.Trace[i].PrefixLen = 1+i%2, 32
		}
	}
	if c.crashAt > 0 {
		cfg.Faults.Plan = []FailPoint{{Replica: 0, TimeSec: c.crashAt * cfg.Trace[len(cfg.Trace)-1].ArrivalSec}}
		cfg.Faults.RetryMax = 1
	}
	return be, cfg
}

// fanout hands every event and sample to each observer in turn.
type fanout []Observer

func (f fanout) Event(ev Event) {
	for _, o := range f {
		o.Event(ev)
	}
}

func (f fanout) Sample(sm Sample) {
	for _, o := range f {
		o.Sample(sm)
	}
}

// serveChecked serves cfg on be — on a one-prefill, two-decode topology
// when disagg is set — with checkBatch run after every round and o
// attached, checks conservation on every replica at the end, and returns
// the aggregate report.
func serveChecked(t *testing.T, name string, be Backend, cfg Config, disagg bool, o Observer) *Report {
	t.Helper()
	chk := &batchChecker{}
	cfg.Observer = chk
	if o != nil {
		cfg.Observer = fanout{chk, o}
	}
	var rep *Report
	if disagg {
		f, err := NewFleet(Topology{Groups: []RoleGroup{
			{Role: RolePrefill, Backend: be, Replicas: 1},
			{Role: RoleDecode, Backend: be, Replicas: 2},
		}})
		if err != nil {
			t.Fatal(err)
		}
		fleetTestHook = func(reps []*scheduler, _ []Role) { chk.reps = reps }
		defer func() { fleetTestHook = nil }()
		fr, err := f.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep = fr.Aggregate
	} else {
		if err := cfg.normalize(); err != nil {
			t.Fatal(err)
		}
		p := newPool(cfg)
		if err := p.Add(0, be, cfg.Seed); err != nil {
			t.Fatal(err)
		}
		chk.reps = p.reps
		s := p.reps[0]
		src, err := materialize(cfg, s.noise.RNG())
		if err != nil {
			t.Fatal(err)
		}
		s.kept = make([]*reqState, len(src.block))
		for i := range src.block {
			s.kept[i] = &src.block[i]
		}
		if err := p.drive(src, lone{s}); err != nil {
			t.Fatal(err)
		}
		rep = s.report()
	}
	if chk.err != nil {
		t.Fatalf("%s: %v", name, chk.err)
	}
	if chk.rounds == 0 || chk.recounted == 0 {
		t.Fatalf("%s: checked %d rounds and %d row recounts; want both nonzero", name, chk.rounds, chk.recounted)
	}
	for i, s := range chk.reps {
		if err := s.kv.CheckConservation(); err != nil {
			t.Fatalf("%s: replica %d: %v", name, i, err)
		}
	}
	return rep
}

// runDecodeCase serves c's load under checkBatch and returns the report.
func runDecodeCase(t *testing.T, c decodeCase) *Report {
	t.Helper()
	be, cfg := c.config()
	return serveChecked(t, c.String(), be, cfg, c.disagg, nil)
}

// decodeCases is TestDecodeBookkeeping's config space: monolithic and
// chunked prefill × prefix sharing × every preemption policy × FIFO and
// shedding admission × a scripted crash, plus a disaggregated topology.
func decodeCases() []decodeCase {
	var out []decodeCase
	for _, chunk := range []int{0, 16} {
		for _, sharing := range []bool{false, true} {
			for _, policy := range []PreemptPolicy{PreemptRecompute, PreemptSwap, PreemptAuto} {
				cases := []decodeCase{{disagg: true}}
				for _, admission := range []AdmissionPolicy{AdmitFIFO, AdmitShed} {
					for _, crashAt := range []float64{0, 0.5} {
						cases = append(cases, decodeCase{admission: admission, crashAt: crashAt})
					}
				}
				for _, c := range cases {
					c.chunk, c.sharing, c.policy = chunk, sharing, policy
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// TestDecodeBookkeeping drives the decode clock, the prefilling count, the
// per-row KV coverage and the fused context sum through decodeCases,
// checking them and recounting every row after every round. The config
// space must reach decode-pass preemptions, swaps, crashes and handoffs,
// or the check is vacuous.
func TestDecodeBookkeeping(t *testing.T) {
	var preempt, swaps, crashes, handoffs int
	for _, c := range decodeCases() {
		rep := runDecodeCase(t, c)
		preempt += rep.Preemptions
		swaps += rep.SwapOuts
		crashes += rep.Crashes
		handoffs += rep.HandoffsOut
	}
	if preempt == 0 || swaps == 0 || crashes == 0 || handoffs == 0 {
		t.Fatalf("config space reached %d preemptions, %d swap-outs, %d crashes, %d handoffs; want all nonzero",
			preempt, swaps, crashes, handoffs)
	}
}

// streamRecorder renders every event and sample it sees, in order.
type streamRecorder struct{ buf bytes.Buffer }

func (r *streamRecorder) Event(ev Event)   { fmt.Fprintf(&r.buf, "%+v\n", ev) }
func (r *streamRecorder) Sample(sm Sample) { fmt.Fprintf(&r.buf, "%+v\n", sm) }

// chatShapedConfig is a small chat-single: llama2-7b in bf16 on one TDX
// replica under the poisson+chat mix, exact quantiles, every optional
// feature off.
func chatShapedConfig(t *testing.T) (Backend, Config) {
	sc, err := workload.ParseScenario("poisson+chat", 0.7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workload: trace.Workload{Model: mustLookup(t, "llama2-7b"), Kind: dtype.BF16}, Scenario: &sc, Requests: 300, Seed: 1}
	return cpuBackend(tee.TDX()), cfg
}

// TestClockMatchesPerRowPasses serves decodeCases and a chat-shaped load
// twice — through the decode clock, and with perRowTestHook sending every
// round down the per-row passes — and requires identical reports and
// identical event and sample streams.
func TestClockMatchesPerRowPasses(t *testing.T) {
	type run struct {
		name   string
		be     Backend
		cfg    Config
		disagg bool
	}
	var runs []run
	for _, c := range decodeCases() {
		be, cfg := c.config()
		runs = append(runs, run{c.String(), be, cfg, c.disagg})
	}
	be, cfg := chatShapedConfig(t)
	runs = append(runs, run{"chat-shaped", be, cfg, false})
	serve := func(r run, perRow bool) (*Report, []byte) {
		perRowTestHook = perRow
		defer func() { perRowTestHook = false }()
		rec := &streamRecorder{}
		rep := serveChecked(t, r.name, r.be, r.cfg, r.disagg, rec)
		return rep, rec.buf.Bytes()
	}
	for _, r := range runs {
		clockRep, clockEvents := serve(r, false)
		rowRep, rowEvents := serve(r, true)
		if !bytes.Equal(clockEvents, rowEvents) {
			t.Fatalf("%s: event streams differ between the clock and the per-row passes", r.name)
		}
		if !reflect.DeepEqual(clockRep, rowRep) {
			t.Fatalf("%s: reports differ between the clock and the per-row passes:\n%+v\n%+v", r.name, clockRep, rowRep)
		}
	}
}

// TestReportSettlesTheClock cuts a chat-shaped run while rows are still
// decoding and builds the report there: its token total must equal the
// tokens the replica produced, and match the per-row passes' report.
func TestReportSettlesTheClock(t *testing.T) {
	be, cfg := chatShapedConfig(t)
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	cut := func(perRow bool) *Report {
		perRowTestHook = perRow
		defer func() { perRowTestHook = false }()
		p := newPool(cfg)
		if err := p.Add(0, be, cfg.Seed); err != nil {
			t.Fatal(err)
		}
		s := p.reps[0]
		src, err := materialize(cfg, s.noise.RNG())
		if err != nil {
			t.Fatal(err)
		}
		d := lone{s}
		for i := range src.block {
			st := &src.block[i]
			s.kept = append(s.kept, st)
			p.eng.ScheduleAt(sim.Time(st.req.ArrivalSec), func(*sim.Engine) { d.Dispatch(p, Arrival{st}) })
		}
		if _, err := p.eng.RunUntil(sim.Time(src.block[len(src.block)/2].req.ArrivalSec), cfg.maxSteps()); err != nil {
			t.Fatal(err)
		}
		if !perRow && len(s.clock.rows) == 0 {
			t.Fatal("no row is decoding at the cut; the test is vacuous")
		}
		rep := s.report()
		if rep.TotalTokens != s.producedTot {
			t.Fatalf("perRow=%v: report counts %d tokens, the replica produced %d", perRow, rep.TotalTokens, s.producedTot)
		}
		return rep
	}
	if a, b := cut(false), cut(true); !reflect.DeepEqual(a, b) {
		t.Fatalf("reports cut mid-run differ between the clock and the per-row passes:\n%+v\n%+v", a, b)
	}
}

// FuzzDecodeRounds runs checkBatch after every round of a KV-starved
// serving run whose config the input picks from the same axes as
// TestDecodeBookkeeping, with the chunk size and crash time free.
func FuzzDecodeRounds(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0))
	f.Add(uint8(16), uint8(0b0111), uint8(128))
	f.Add(uint8(5), uint8(0b1010), uint8(200))
	f.Add(uint8(64), uint8(0b10000), uint8(0))
	f.Fuzz(func(t *testing.T, chunk, flags, crash uint8) {
		c := decodeCase{
			chunk:   int(chunk),
			sharing: flags&1 != 0,
			policy:  PreemptPolicy((flags >> 1) % 3),
		}
		if flags&0b1000 != 0 {
			c.disagg = true
		} else {
			c.crashAt = float64(crash) / 128
			if flags&0b10000 != 0 {
				c.admission = AdmitShed
			}
		}
		runDecodeCase(t, c)
	})
}
