package serve

// Fault injection: deterministic, seeded replica failures with TEE-priced
// recovery. A crash destroys the replica's device state — the running
// batch's KV entries, parked swap copies and the prefix cache all die with
// the TEE whose keys sealed them — and the replica is down for the
// platform's full cold start (ColdStartSec: boot + weight load + TD
// accept/enclave build + attestation RTT), so the same MTBF costs SGX, TDX
// and cGPU fleets visibly different unavailability. Crash times come from
// a scripted plan or a per-replica Poisson process on a private RNG
// stream: failure timing never perturbs arrival or step-noise draws, and
// the schedule is identical whatever the worker count or epoch size.

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"cllm/internal/enum"
	"cllm/internal/sim"
)

// FailurePolicy selects what happens to in-flight requests when their
// replica crashes.
type FailurePolicy int

const (
	// FailRequeue (default): the victims lose their KV state but rejoin
	// the queue front and recompute after recovery — the client held its
	// connection across the failover.
	FailRequeue FailurePolicy = iota
	// FailLost: the victims are lost with the replica — they re-enter
	// through the retry path when they have budget, and otherwise leave
	// the run as failure-lost drops.
	FailLost
)

var failurePolicies = enum.Table[FailurePolicy]{
	Names:  []string{FailRequeue: "requeue", FailLost: "lost"},
	Alias:  map[string]FailurePolicy{"": FailRequeue},
	Prefix: "serve", Noun: "failure policy", Type: "FailurePolicy",
}

// String names the policy as the CLI spells it.
func (p FailurePolicy) String() string { return failurePolicies.String(p) }

// ParseFailurePolicy resolves a CLI failure-policy name.
func ParseFailurePolicy(s string) (FailurePolicy, error) { return failurePolicies.Parse(s) }

// FailPoint is one scripted crash: replica Replica fails at TimeSec on the
// simulated clock. Points naming a replica that is already down are
// absorbed by the ongoing recovery.
type FailPoint struct {
	Replica int
	TimeSec float64
}

// ParseFailPlan parses the CLI crash script: comma-separated
// "replica@seconds" points ("0@30,1@45.5"); a bare "seconds" crashes
// replica 0.
func ParseFailPlan(s string) ([]FailPoint, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var plan []FailPoint
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		rep, at := 0, tok
		if i := strings.IndexByte(tok, '@'); i >= 0 {
			r, err := strconv.Atoi(strings.TrimSpace(tok[:i]))
			if err != nil || r < 0 {
				return nil, fmt.Errorf("serve: bad fail-plan replica in %q (want replica@seconds)", tok)
			}
			rep, at = r, strings.TrimSpace(tok[i+1:])
		}
		sec, err := strconv.ParseFloat(at, 64)
		if err != nil || math.IsNaN(sec) || math.IsInf(sec, 0) || sec < 0 {
			return nil, fmt.Errorf("serve: bad fail-plan time in %q (want replica@seconds)", tok)
		}
		plan = append(plan, FailPoint{Replica: rep, TimeSec: sec})
	}
	return plan, nil
}

// faultState is a replica's fault-injection state, allocated only when
// Config.Faults sets MTBFSec or a Plan. armed marks the crash stream as
// scheduled and rng is its private Poisson stream; recoverySec is the
// priced cold start; lastProgress is the last request-outcome instant
// (the report's makespan); abortRound discards the round a crash
// interrupted.
type faultState struct {
	armed        bool
	abortRound   bool
	rng          *rand.Rand
	recoverySec  float64
	lastProgress float64
}

// armFailures schedules this replica's crash stream. It is called lazily
// from the first submit — after the replica index is assigned on every
// construction path — and the first arrival time is deterministic, so the
// schedule is too.
func (s *scheduler) armFailures() {
	if s.faults.armed {
		return
	}
	s.faults.armed = true
	if len(s.cfg.Faults.Plan) > 0 {
		now := float64(s.eng.Now())
		for _, fp := range s.cfg.Faults.Plan {
			if fp.Replica != s.replica || fp.TimeSec < now {
				continue
			}
			s.eng.ScheduleAt(sim.Time(fp.TimeSec), func(*sim.Engine) { s.crash() })
		}
		return
	}
	s.faults.rng = rand.New(rand.NewSource(int64(mix64(uint64(s.cfg.Seed)*0x9e3779b97f4a7c15 + uint64(s.replica) + 1))))
	s.scheduleNextCrash()
}

// scheduleNextCrash draws the next Poisson failure from the private
// failure stream. One crash is pending at a time; recovery draws the next.
func (s *scheduler) scheduleNextCrash() {
	dt := s.faults.rng.ExpFloat64() * s.cfg.Faults.MTBFSec
	s.eng.Schedule(sim.Time(dt), func(*sim.Engine) { s.crash() })
}

// crash fails the replica now: the running batch is evicted with its KV
// state destroyed, parked swap copies and the prefix cache are discarded,
// and the replica is down until the cold-start recovery completes.
func (s *scheduler) crash() {
	if s.down || s.err != nil {
		return
	}
	s.down = true
	s.rep.Crashes++
	s.rep.DowntimeSec += s.faults.recoverySec
	if s.obs != nil {
		s.event(Event{Kind: EvCrash, ReqID: -1, Tokens: len(s.running), XferSec: s.faults.recoverySec})
	}
	if s.iterating {
		// The in-flight round dies with the device: finishIteration will
		// discard its commits, but the attribution stream still needs the
		// round boundary, so close the interval with an empty round here.
		s.faults.abortRound = true
		if s.obs != nil {
			s.event(Event{Kind: EvDecodeRound, ReqID: -1, Tokens: 0})
		}
	}
	// Evict the running batch through the normal preemption machinery
	// (events, counters, front-requeue) with the swap path bypassed — the
	// device KV cannot be parked off a dead replica.
	lost := len(s.running)
	for len(s.running) > 0 {
		s.preempt(s.running[len(s.running)-1], ReasonCrash)
	}
	// Parked swap copies and the prefix cache die with the TEE: the keys
	// that sealed them are gone after the rebuild.
	for i := 0; i < s.queue.Len(); i++ {
		st := s.queue.At(i)
		if !st.swapped {
			continue
		}
		s.kv.swapIn(&st.kv)
		st.swapped, st.swappedTokens = false, 0
		st.prefilled, st.prefillTarget = 0, 0
	}
	s.kv.FlushCache()
	if s.cfg.Faults.Policy == FailLost {
		// The crash-preempted victims sit at the queue front; under
		// FailLost they leave the queue for the retry path or the
		// failure-lost drop.
		for ; lost > 0; lost-- {
			st := s.queue.PopFront()
			if int(st.attempt) < s.cfg.Faults.RetryMax {
				s.scheduleRetry(st)
				continue
			}
			s.dropQueued(st, DropFailureLost, st.ctxTokens())
		}
	}
	s.eng.Schedule(sim.Time(s.faults.recoverySec), func(*sim.Engine) { s.recoverReplica() })
}

// recoverReplica completes the cold start: the replica is servable again,
// and under Poisson failures the next crash is drawn.
func (s *scheduler) recoverReplica() {
	if s.err != nil {
		return
	}
	s.down = false
	if s.obs != nil {
		s.event(Event{Kind: EvRecover, ReqID: -1, XferSec: s.faults.recoverySec})
	}
	if s.cfg.Faults.MTBFSec > 0 {
		s.scheduleNextCrash()
	}
	s.kick()
}

// scheduleRetry re-enters a shed or failure-lost request into the arrival
// stream after its exponential backoff. The retry restarts from scratch:
// produced tokens are wasted work (still counted in TotalTokens through
// the owner's ledger) and the computed state is gone. Jitter is deterministic
// per (request, attempt) — no shared RNG stream, so retries never perturb
// noise or arrival draws.
func (s *scheduler) scheduleRetry(st *reqState) {
	st.attempt++
	st.phase = phaseWaiting
	s.owner(st).led.tokens += st.generated
	st.generated = 0
	st.prefilled, st.prefillTarget = 0, 0
	st.firstTokenAt = 0
	back := s.cfg.Faults.RetryBackoffSec * math.Pow(2, float64(st.attempt-1))
	j := float64(mix64(uint64(st.req.ID)*0x9e3779b97f4a7c15+uint64(st.attempt))>>11) / float64(uint64(1)<<53)
	back *= 1 + 0.5*j
	s.eng.Schedule(sim.Time(back), func(*sim.Engine) { s.resubmit(st) })
}

// resubmit is the backoff's completion: the request rejoins the queue as a
// fresh arrival (EvRetry rather than EvArrive, so offered-request counts
// stay one per request) with its deadline renewed from the re-entry time.
func (s *scheduler) resubmit(st *reqState) {
	if s.err != nil || st.phase != phaseWaiting {
		return
	}
	s.rep.Retries++
	if s.cfg.Faults.Admission != AdmitFIFO {
		st.deadline = float64(s.eng.Now()) + st.req.Class.deadlineMult()*s.cfg.TTFTSLOSec
	}
	if s.obs != nil {
		s.event(Event{Kind: EvRetry, ReqID: st.req.ID, Tokens: st.req.InputLen, Hist: int(st.attempt)})
	}
	s.queue.PushBack(st)
	s.progress()
	s.kick()
}

// progress records the last request-outcome instant. With failures
// enabled the engine keeps ticking on crash/recovery events long after the
// last request left the run; the report measures throughput to the last
// progress instant instead of the last engine event.
func (s *scheduler) progress() {
	if s.faults != nil {
		s.faults.lastProgress = float64(s.eng.Now())
	}
}
