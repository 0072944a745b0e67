package serve

// Admission control and SLO-tiered request classes. The continuous-batching
// scheduler historically admitted FIFO and only ever dropped a request when
// it could never fit the KV pool; under overload that lets every class's
// tail blow past its SLO together. The policies here spend drops where they
// buy goodput: requests carry a class-tiered deadline, admission orders the
// queue earliest-deadline-first, and the shed policy declines work whose
// deadline is already infeasible instead of serving it late.

import (
	"strings"

	"cllm/internal/enum"
)

// AdmissionPolicy selects how the scheduler admits queued requests.
type AdmissionPolicy int

const (
	// AdmitFIFO is the historical arrival-order admission with no deadline
	// checks — the default; its scheduler path is byte-identical to prior
	// releases.
	AdmitFIFO AdmissionPolicy = iota
	// AdmitDeadline admits in earliest-deadline-first order and drops
	// requests whose deadline has already expired while queued
	// (DropDeadlineExpired) — late work is abandoned, but nothing is
	// declined ahead of time.
	AdmitDeadline
	// AdmitShed is AdmitDeadline plus proactive shedding: a request whose
	// deadline cannot be met even if admitted now (queue position plus its
	// own prefill time overrun the deadline) is declined at admission
	// (EvShed), retried if it has budget, else dropped as
	// DropAdmissionShed.
	AdmitShed
)

var admissionPolicies = enum.Table[AdmissionPolicy]{
	Names:  []string{AdmitFIFO: "fifo", AdmitDeadline: "deadline", AdmitShed: "shed"},
	Alias:  map[string]AdmissionPolicy{"": AdmitFIFO, "edf": AdmitDeadline},
	Prefix: "serve", Noun: "admission policy", Type: "AdmissionPolicy",
}

// String names the policy as the CLI spells it.
func (p AdmissionPolicy) String() string { return admissionPolicies.String(p) }

// ParseAdmissionPolicy resolves a CLI admission-policy name.
func ParseAdmissionPolicy(s string) (AdmissionPolicy, error) { return admissionPolicies.Parse(s) }

// RequestClass tiers requests by latency sensitivity. Classes map from the
// workload mixes' shape names (chat → interactive, rag → standard,
// agent → background); unshaped synthetic or trace arrivals default to
// ClassStandard.
type RequestClass uint8

const (
	// ClassStandard is the default tier (RAG-style interactive-but-patient
	// traffic).
	ClassStandard RequestClass = iota
	// ClassInteractive is latency-critical chat: the tightest deadline and
	// the last to be preempted under decode-priority scheduling.
	ClassInteractive
	// ClassBackground is deferred agentic work: the loosest deadline and
	// the first preemption victim.
	ClassBackground
	// NumClasses bounds per-class report arrays.
	NumClasses = 3
)

var requestClasses = enum.Table[RequestClass]{
	Names:  []string{ClassStandard: "standard", ClassInteractive: "interactive", ClassBackground: "background"},
	Prefix: "serve", Noun: "request class", Type: "RequestClass",
}

// String names the class as the exporters spell it.
func (c RequestClass) String() string { return requestClasses.String(c) }

// deadlineMult scales the base deadline per class: interactive requests
// get the base itself, standard 4×, background 16×.
func (c RequestClass) deadlineMult() float64 {
	switch c {
	case ClassInteractive:
		return 1
	case ClassBackground:
		return 16
	}
	return 4
}

// victimRank orders preemption victims under decode-priority scheduling:
// higher ranks are evicted first.
func (c RequestClass) victimRank() int {
	switch c {
	case ClassBackground:
		return 2
	case ClassStandard:
		return 1
	}
	return 0
}

// classOfShape maps a workload shape name to its request class by prefix
// ("chat-short" → interactive, "agent-final" → background); unknown or
// empty shapes are standard.
func classOfShape(shape string) RequestClass {
	switch {
	case strings.HasPrefix(shape, "chat"):
		return ClassInteractive
	case strings.HasPrefix(shape, "agent"):
		return ClassBackground
	}
	return ClassStandard
}

// DropReason labels why a request left the run unserved.
type DropReason uint8

const (
	// DropKVExhausted: the request could never fit the KV pool — the
	// historical (and zero-value) drop.
	DropKVExhausted DropReason = iota
	// DropAdmissionShed: admission control declined it (AdmitShed) and its
	// retry budget was exhausted.
	DropAdmissionShed
	// DropDeadlineExpired: its deadline passed while it queued.
	DropDeadlineExpired
	// DropFailureLost: a replica crash destroyed its KV state under
	// FailLost and its retry budget was exhausted.
	DropFailureLost
	// NumDropReasons bounds per-reason report arrays.
	NumDropReasons = 4
)

var dropReasons = enum.Table[DropReason]{
	Names: []string{DropKVExhausted: "kv-exhausted", DropAdmissionShed: "admission-shed",
		DropDeadlineExpired: "deadline-expired", DropFailureLost: "failure-lost"},
	Type: "DropReason",
}

// String names the reason as the exporters spell it.
func (r DropReason) String() string { return dropReasons.String(r) }

// admitNext drives deadline-aware admission: the earliest-deadline queued
// request is moved to the queue front for the FIFO admission machinery to
// consume unchanged. Requests whose deadline already passed while queued
// are dropped (deadline-expired; the EDF minimum expiring does not imply
// the rest did, so the scan repeats). Under AdmitShed a request that could
// not meet its deadline even admitted alone right now — its own remaining
// prefill overruns it — is declined instead of served late. The queue's
// deadline index finds each candidate (the first from the front on equal
// deadlines). Returns nil once the queue drains.
func (s *scheduler) admitNext(now float64) *reqState {
	for s.queue.Len() > 0 {
		best, bestIdx := s.queue.Earliest()
		if now > best.deadline {
			s.queue.RemoveAt(bestIdx)
			s.dropQueued(best, DropDeadlineExpired, best.ctxTokens())
			continue
		}
		if s.cfg.Faults.Admission == AdmitShed {
			pt, err := s.coster.ChunkTime(1, best.ctxTokens(), 0)
			if err != nil {
				s.fail(err)
				return nil
			}
			if now+pt > best.deadline {
				s.queue.RemoveAt(bestIdx)
				s.shed(best)
				continue
			}
		}
		if bestIdx != 0 {
			s.queue.RemoveAt(bestIdx)
			s.queue.PushFront(best)
		}
		return best
	}
	return nil
}

// shed declines a queued request at admission time: retried after backoff
// when it has budget, dropped as admission-shed otherwise. EvShed is
// telemetry either way — the terminal outcome is the EvRetry or EvDrop
// that follows.
func (s *scheduler) shed(st *reqState) {
	s.rep.Sheds++
	if s.obs != nil {
		s.event(Event{Kind: EvShed, ReqID: st.req.ID, Tokens: st.req.InputLen})
	}
	if int(st.attempt) < s.cfg.Faults.RetryMax {
		s.scheduleRetry(st)
		return
	}
	s.dropQueued(st, DropAdmissionShed, st.ctxTokens())
}

// dropQueued removes a queued request from the run: its parked swap copy
// (if any) is discarded, the drop is counted under its reason, and the
// terminal EvDrop is emitted. The caller has already dequeued it.
func (s *scheduler) dropQueued(st *reqState, reason DropReason, tokens int) {
	if st.swapped {
		s.kv.swapIn(&st.kv) // discard the parked copy
		st.swapped, st.swappedTokens = false, 0
	}
	st.phase = phaseDropped
	s.rep.DroppedByReason[reason]++
	s.dropped(st)
	if s.obs != nil {
		s.event(Event{Kind: EvDrop, ReqID: st.req.ID, Tokens: tokens, Drop: reason})
	}
	s.progress()
}

// victim selects the preemption victim: the youngest running sequence by
// default; under deadline-aware admission, the youngest of the lowest-
// priority class still running (decode-priority scheduling — background
// work yields before interactive decodes stall).
func (s *scheduler) victim() *reqState {
	best := s.running[len(s.running)-1]
	if s.cfg.Faults.Admission == AdmitFIFO {
		return best
	}
	bestRank := best.req.Class.victimRank()
	for i := len(s.running) - 2; i >= 0; i-- {
		if r := s.running[i]; r.req.Class.victimRank() > bestRank {
			best, bestRank = r, r.req.Class.victimRank()
		}
	}
	return best
}
