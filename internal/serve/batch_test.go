package serve

import (
	"fmt"
	"testing"
)

// checkBatch verifies the scheduler's decode bookkeeping at a round
// boundary: prefilling counts the running rows mid-prefill; a decode list
// not marked stale is exactly the fully-prefilled running rows in
// admission order; every running or queued row's kv.cap is the coverage of
// the holding it points at; and the context sum the decode pass fused into
// the round's shape is the batch's — the rows have produced one token each
// since, unless a crash aborted the round.
func (s *scheduler) checkBatch() error {
	pre := 0
	for _, r := range s.running {
		if r.prefilling() {
			pre++
		}
	}
	if pre != s.prefilling {
		return fmt.Errorf("prefilling count %d, but %d running rows are mid-prefill", s.prefilling, pre)
	}
	if !s.decodeStale {
		i := 0
		for _, r := range s.running {
			if r.prefilling() {
				continue
			}
			if i >= len(s.decoding) || s.decoding[i] != r {
				return fmt.Errorf("decode list diverges from the running batch at row %d (request %d)", i, r.req.ID)
			}
			i++
		}
		if i != len(s.decoding) {
			return fmt.Errorf("decode list holds %d rows, the running batch %d decoding rows", len(s.decoding), i)
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
	if s.shape.batch > len(s.decoding) {
		return fmt.Errorf("round batch %d exceeds the decode list's %d rows", s.shape.batch, len(s.decoding))
	}
	produced := s.shape.batch
	if s.faults != nil && s.faults.abortRound {
		produced = 0
	}
	sum := 0
	for _, r := range s.decoding[:s.shape.batch] {
		sum += r.ctxTokens()
	}
	if sum != s.shape.ctxSum+produced {
		return fmt.Errorf("fused context sum %d, the batch's rows sum to %d before this round's %d tokens",
			s.shape.ctxSum, sum-produced, produced)
	}
	return nil
}

// batchChecker is an observer that runs checkBatch on the emitting
// replica at every round boundary and keeps the first failure.
type batchChecker struct {
	reps   []*scheduler
	rounds int
	err    error
}

func (c *batchChecker) Event(ev Event) {
	if ev.Kind != EvDecodeRound || c.err != nil {
		return
	}
	c.rounds++
	if err := c.reps[ev.Replica].checkBatch(); err != nil {
		c.err = fmt.Errorf("replica %d, round %d at %.6gs: %w", ev.Replica, c.rounds, ev.TimeSec, err)
	}
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

// runDecodeCase serves a KV-starved load under c — the tiny enclave holds
// about two requests' KV, so rounds preempt, swap and re-prefill — with
// checkBatch run after every round, and conservation checked on every
// replica at the end. It returns the aggregate report.
func runDecodeCase(t *testing.T, c decodeCase) *Report {
	t.Helper()
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
	chk := &batchChecker{}
	cfg.Observer = chk
	var rep *Report
	if c.disagg {
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
		t.Fatalf("%v: %v", c, chk.err)
	}
	if chk.rounds == 0 {
		t.Fatalf("%v: no round was checked", c)
	}
	for i, s := range chk.reps {
		if err := s.kv.CheckConservation(); err != nil {
			t.Fatalf("%v: replica %d: %v", c, i, err)
		}
	}
	return rep
}

// TestDecodeBookkeeping drives the persistent decode list, the prefilling
// count, the per-row KV coverage and the fused context sum through
// monolithic and chunked prefill × prefix sharing × every preemption
// policy × FIFO and shedding admission × a scripted crash, plus a
// disaggregated topology, checking them after every round. The config
// space must reach decode-pass preemptions, swaps, crashes and handoffs,
// or the check is vacuous.
func TestDecodeBookkeeping(t *testing.T) {
	var preempt, swaps, crashes, handoffs int
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
					rep := runDecodeCase(t, c)
					preempt += rep.Preemptions
					swaps += rep.SwapOuts
					crashes += rep.Crashes
					handoffs += rep.HandoffsOut
				}
			}
		}
	}
	if preempt == 0 || swaps == 0 || crashes == 0 || handoffs == 0 {
		t.Fatalf("config space reached %d preemptions, %d swap-outs, %d crashes, %d handoffs; want all nonzero",
			preempt, swaps, crashes, handoffs)
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
