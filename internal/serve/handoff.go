package serve

import (
	"fmt"

	"cllm/internal/hw"
	"cllm/internal/sim"
	"cllm/internal/trace"
)

// handoffDispatcher moves a request's computed KV cache from a
// prefill-role replica to a decode-role replica. The transfer is priced
// mechanistically per edge, leg by leg:
//
//	drain  = source StepCoster.SwapTime(tokens)   — the prefill side's
//	         swap-out bandwidth: a cGPU pays the AES-GCM bounce buffer
//	         (CGPUPCIeBWFactor × PCIe), a CPU TEE its encrypted-DRAM
//	         memcpy (MemEncryptBWFactor × HostSwapBytesPerSec).
//	nic    = hw.NICHandoffSetupSec + bytes/hw.NICBytesPerSec — the
//	         cross-replica interconnect, attested-TLS setup plus wire time.
//	ingest = priced by the decode replica's admission round via the
//	         existing swapped-restore path (the parked copy transfers into
//	         device blocks at the decode side's swap-in bandwidth, showing
//	         up as that replica's SwapIns).
//
// The source's device blocks stay pinned until the drain completes (an
// async copy out of live memory), then free for the next prompt. The
// decode replica is picked when the transfer lands — load-aware policies
// see the queue depths of that instant, and the choice is deterministic
// because the engine is.
type handoffDispatcher struct {
	eng   *sim.Engine
	stage *stageLB // decode-stage dispatcher
}

// handoffState is a prefill-role replica's side of disaggregated serving,
// allocated only on those replicas: d launches each request's handoff
// right after its first token, and q defers the launches until the round's
// events are emitted, so the attribution round span closes before the
// request changes hands.
type handoffState struct {
	d *handoffDispatcher
	q []*reqState
}

// initiate prices and launches one handoff. Called by the prefill
// scheduler after the round that produced the request's first token has
// emitted its events (see finishIteration's deferral), so EvHandoff
// always follows that round's EvDecodeRound at the same timestamp.
func (d *handoffDispatcher) initiate(src *scheduler, r *reqState) {
	tokens := r.computedTokens()
	bytes := trace.KVSwapBytes(src.cfg.Workload, tokens)
	drain, err := src.coster.SwapTime(tokens)
	if err != nil {
		src.fail(err)
		return
	}
	nic := hw.NICHandoffSetupSec + bytes/hw.NICBytesPerSec
	// In transit the request is queued nowhere: its tokens sit in its
	// owner's ledger until it lands.
	src.owner(r).led.tokens += r.generated
	src.rep.HandoffsOut++
	src.rep.HandoffTokens += tokens
	src.rep.HandoffBytes += bytes
	if src.obs != nil {
		src.event(Event{Kind: EvHandoff, ReqID: r.req.ID, Tokens: tokens, Bytes: bytes, XferSec: drain + nic})
	}
	d.eng.Schedule(sim.Time(drain), func(*sim.Engine) {
		src.kv.release(&r.kv)
		src.kick()
	})
	d.eng.Schedule(sim.Time(drain+nic), func(*sim.Engine) {
		d.ingest(src, r, tokens)
	})
}

// ingest lands the transfer on a decode replica: the KV copy parks in the
// replica's staging (host swap) pool and the request enters its queue as
// a swapped request — admission restores it through the same
// swapped-restore path a swap-to-host preemption uses, pricing the ingest
// copy in the admitting round and consulting the decode side's prefix
// cache. A full staging pool forces the fallback: the decode replica
// recomputes the prompt from scratch and the transfer was wasted work.
//
// A KV slot indexes one replica's BlockManager only, so the source's drain
// must have returned the request's slot before the decode side takes a
// new one; a request still holding a slot here fails the run.
func (d *handoffDispatcher) ingest(src *scheduler, r *reqState, tokens int) {
	src.owner(r).led.tokens -= r.generated
	j := d.stage.pick(r.req)
	dst := d.stage.reps[j]
	if r.kv.slot != 0 {
		dst.fail(fmt.Errorf("serve: request %d reaches decode replica %d still holding KV slot %d of prefill replica %d",
			r.req.ID, dst.replica, r.kv.slot, src.replica))
		return
	}
	if dst.kv.swapOut(&r.kv, r.req.ID, tokens) {
		r.swapped = true
		r.swappedTokens = tokens
	} else {
		dst.rep.HandoffFallbacks++
		r.swapped = false
		r.swappedTokens = 0
	}
	r.prefilled, r.prefillTarget = 0, 0
	r.phase = phaseWaiting
	dst.submitHandoff(r)
}
