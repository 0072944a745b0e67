package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"cllm/internal/obs"
	"cllm/internal/serve"
	"cllm/internal/stats"
)

// check verifies one run's outcome and returns every failed check. The
// checks hold for any correct simulation of the workload, whatever its
// speed; a failed check fails the rep.
func check(r *rig, out *outcome, requests int) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	a := out.agg
	if got := a.Completed + a.Dropped + a.Unfinished; got != requests {
		fail("completed %d + dropped %d + unfinished %d = %d, want %d offered",
			a.Completed, a.Dropped, a.Unfinished, got, requests)
	}
	if a.Unfinished == 0 && (a.KVBlocksInUseAtEnd != 0 || a.SwapBlocksAtEnd != 0) {
		fail("nothing unfinished but %d KV blocks and %d swap blocks still held", a.KVBlocksInUseAtEnd, a.SwapBlocksAtEnd)
	}
	if r.rec != nil {
		if mis := obs.ReconcileReport(r.rec.Events(), a); len(mis) > 0 {
			fail("event stream does not reconcile with the report (%d mismatches, first: %s)", len(mis), mis[0])
		}
	}
	if out.auto != nil {
		sum := 0
		for _, u := range out.auto.Usage {
			sum += u.Dispatched
		}
		if sum != requests {
			fail("autoscaler dispatched %d requests, want %d", sum, requests)
		}
	}
	return bad
}

// digest hashes the simulated outputs of a run: every report value, never
// a pointer (a sketch prints as its address under %v, so sketches and the
// per-request ledger are hashed field by field). Two runs of one workload
// and seed must agree on it, whatever the host did.
func digest(out *outcome) string {
	h := sha256.New()
	hashReport(h, out.agg)
	if f := out.fleet; f != nil {
		for _, r := range f.PerReplica {
			hashReport(h, r)
		}
		fmt.Fprintf(h, "|%s|%s|%v|%v", f.Policy, f.Topology, f.Roles, f.Dispatch)
	}
	if out.auto != nil {
		a := *out.auto
		a.Aggregate = nil
		fmt.Fprintf(h, "|%+v", a)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

func hashReport(h hash.Hash, r *serve.Report) {
	c := *r
	reqs := c.Requests
	sketches := [...]*stats.Sketch{c.TTFTSketch, c.TPOTSketch, c.LatencySketch}
	c.Requests, c.TTFTSketch, c.TPOTSketch, c.LatencySketch = nil, nil, nil, nil
	fmt.Fprintf(h, "%+v", c)
	var buf [8 * 8]byte
	for _, m := range reqs {
		b := buf[:0]
		b = binary.LittleEndian.AppendUint64(b, uint64(m.ID))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.TTFT))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.TPOT))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.Latency))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.QueueDelay))
		b = binary.LittleEndian.AppendUint64(b, uint64(m.OutputTokens))
		b = binary.LittleEndian.AppendUint64(b, uint64(m.Preemptions))
		if m.SLOMet {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		h.Write(b)
	}
	for _, sk := range sketches {
		if sk == nil || sk.Count() == 0 {
			continue
		}
		fmt.Fprintf(h, "|%d %v %v %v %d %v %v", sk.Count(), sk.Sum(), sk.Min(), sk.Max(), sk.Buckets(),
			sk.Quantile(0.5), sk.Quantile(0.99))
	}
}
