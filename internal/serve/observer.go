package serve

import "cllm/internal/enum"

// EventKind labels one scheduler lifecycle event.
type EventKind uint8

const (
	// EvArrive: a request reached this replica's queue (dispatch instant).
	// Tokens is its prompt length, Hist its requested output length.
	EvArrive EventKind = iota + 1
	// EvAdmit: the request joined the running batch. Emitted on every
	// admission, including re-admissions after preemption; the first EvAdmit
	// of a request is its queue-delay endpoint. Tokens is the prefill
	// target, Hist the tokens already computed (prefix hits + swap restore).
	EvAdmit
	// EvPrefillChunk: a committed prefill chunk — Tokens new prompt tokens
	// over Hist cached ones. Emitted at the round end that committed it.
	EvPrefillChunk
	// EvFirstToken: the request produced its first output token.
	EvFirstToken
	// EvDecodeRound: one scheduling round committed; Tokens is every output
	// token the round produced (decode batch plus prefill completions) and
	// Hist the decode batch size. ReqID is -1: the event is per-round, not
	// per-request, and summing Tokens over rounds reproduces the report's
	// TotalTokens exactly. PrefillSec/DecodeSec/SwapSec carry the round's
	// raw (pre-noise) costed components, and ClearPrefillSec/ClearDecodeSec/
	// ClearSwapSec the same shapes priced on the clear-hardware twin when
	// Config.ClearCoster is set — the attribution layer's inputs.
	EvDecodeRound
	// EvPreempt: the request was evicted from the batch (Policy says what
	// the run does with victims, Reason why this victim was taken). Tokens
	// is the computed KV entries at stake. A following EvSwapOut at the same
	// instant means they were parked rather than released.
	EvPreempt
	// EvSwapOut: Tokens computed KV entries were parked in the host swap
	// pool — Bytes moved, XferSec of priced transfer time.
	EvSwapOut
	// EvSwapIn: a parked copy was restored on re-admission. Tokens counts
	// entries actually transferred (entries re-acquired from shared prefix
	// blocks skip the copy, so Tokens can be 0).
	EvSwapIn
	// EvDrop: the request left the run unserved. Drop carries the reason
	// taxonomy (KV exhaustion, admission shed, deadline expiry, failure
	// loss); Tokens is kind-specific (see the emitting sites).
	EvDrop
	// EvFinish: the request completed; Tokens is its output length and
	// SLOMet whether it met both latency SLOs.
	EvFinish
	// EvCrash: the replica failed (fault injection). ReqID is -1 — the
	// event is per-replica; Tokens counts the in-flight requests that lost
	// their KV state, XferSec the recovery time ahead (the platform cold
	// start).
	EvCrash
	// EvRecover: the crashed replica finished its TEE cold start (boot,
	// weight load, enclave/TD rebuild, attestation) and resumed serving.
	// ReqID is -1; XferSec echoes the downtime just paid.
	EvRecover
	// EvShed: admission control declined the request (deadline infeasible
	// or already expired). Telemetry only — the terminal outcome is a
	// following EvDrop, or an EvRetry if budget remains.
	EvShed
	// EvRetry: a shed or failure-lost request re-entered the arrival
	// stream after its backoff. Tokens is its prompt length, Hist the
	// retry attempt number (1-based).
	EvRetry
	// EvHandoff: a prefill-role replica launched the request's KV handoff
	// toward the decode stage (disaggregated topologies). Emitted on the
	// source replica right after the round that produced the first token.
	// Tokens is the computed KV entries leaving, Bytes their payload, and
	// XferSec the priced source-drain plus NIC transfer time; the
	// decode-side ingest is priced separately by the admitting round (the
	// destination's EvAdmit/EvSwapIn pair closes the transfer).
	EvHandoff
)

var eventKinds = enum.Table[EventKind]{
	Names: []string{EvArrive: "arrive", EvAdmit: "admit", EvPrefillChunk: "prefill-chunk",
		EvFirstToken: "first-token", EvDecodeRound: "decode-round", EvPreempt: "preempt",
		EvSwapOut: "swap-out", EvSwapIn: "swap-in", EvDrop: "drop", EvFinish: "finish",
		EvCrash: "crash", EvRecover: "recover", EvShed: "shed", EvRetry: "retry", EvHandoff: "handoff"},
	Type: "EventKind",
}

// String names the kind as the exporters spell it.
func (k EventKind) String() string { return eventKinds.String(k) }

// PreemptReason says which capacity pass evicted the victim.
type PreemptReason uint8

const (
	ReasonNone PreemptReason = iota
	// ReasonPrefillStall: a mid-prefill sequence could not grow its cache.
	ReasonPrefillStall
	// ReasonDecodeStall: a fully-prefilled sequence could not append one
	// token's KV entry.
	ReasonDecodeStall
	// ReasonCrash: a replica failure destroyed the batch's KV state — every
	// running sequence is evicted at once (fault injection).
	ReasonCrash
)

var preemptReasons = enum.Table[PreemptReason]{
	Names: []string{ReasonNone: "none", ReasonPrefillStall: "prefill-stall",
		ReasonDecodeStall: "decode-stall", ReasonCrash: "crash"},
	Type: "PreemptReason",
}

// String names the reason as the exporters spell it.
func (r PreemptReason) String() string { return preemptReasons.String(r) }

// Event is one lifecycle event on the deterministic sim clock. It is
// passed by value — observers must copy what they keep.
type Event struct {
	// TimeSec is the simulated time of the event.
	TimeSec float64
	Kind    EventKind
	// Replica indexes the emitting scheduler within its fleet (0 for
	// single-replica runs).
	Replica int
	// ReqID is the subject request, or -1 for per-round events.
	ReqID int
	// Tokens and Hist are kind-specific token counts (see the kinds).
	Tokens int
	Hist   int
	// Bytes is the KV payload a swap transfer moves; XferSec its priced
	// transfer time at the backend's swap bandwidth.
	Bytes   float64
	XferSec float64
	// Policy and Reason qualify preemption events.
	Policy PreemptPolicy
	Reason PreemptReason
	// Drop qualifies EvDrop events with the drop-reason taxonomy (zero =
	// DropKVExhausted, the historical meaning).
	Drop DropReason
	// SLOMet qualifies finish events.
	SLOMet bool
	// Round-costing components, set on EvDecodeRound only: the round's raw
	// (pre-noise) prefill/decode/swap-transfer model costs, and — when the
	// run carries a clear-hardware counterfactual coster — the same step
	// shapes priced with every TEE mechanism neutralized. The noise-scaled
	// round duration is the gap between consecutive round timestamps; the
	// components give its split and the Clear side its TEE tax.
	PrefillSec      float64
	DecodeSec       float64
	SwapSec         float64
	ClearPrefillSec float64
	ClearDecodeSec  float64
	ClearSwapSec    float64
}

// Sample is one per-round gauge snapshot, taken at the end of every
// committed scheduling round. Token counters are cumulative over the run
// so windowed rates difference cleanly.
type Sample struct {
	TimeSec float64
	Replica int
	// QueueDepth and Running are the waiting and running request counts.
	QueueDepth int
	Running    int
	// KVBlocksInUse / KVBlocksCached / SwapBlocksInUse are the device pool's
	// active and reclaimable-cached block counts and the host swap pool's
	// occupancy.
	KVBlocksInUse   int
	KVBlocksCached  int
	SwapBlocksInUse int
	// TotalTokens is the cumulative output tokens produced; HitTokens and
	// MissTokens the cumulative prefix-cache outcomes.
	TotalTokens int
	HitTokens   int
	MissTokens  int
}

// Observer receives the scheduler's lifecycle event stream and gauge
// samples. Nil disables observation: every emission site is behind a nil
// check, so the disabled path is branch-only and allocation-free — the
// root TestWorkCounts allocation pins hold with no observer attached.
//
// Observers are invoked synchronously on the simulation goroutine. One
// run — including a whole RunFleet sharing one engine — never calls an
// observer concurrently, and replica interleaving on the shared clock is
// deterministic, so identical seeds yield identical streams. Do NOT
// attach one observer to concurrent runs (the harness's parallel sweep
// cells): those race. Leave Observer nil there. SizeFleetForSLO runs its
// candidate fleets serially and detaches the observer itself.
type Observer interface {
	Event(Event)
	Sample(Sample)
}
