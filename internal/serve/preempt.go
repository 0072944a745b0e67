package serve

import "cllm/internal/enum"

// PreemptPolicy selects what happens to a sequence's KV cache when the
// scheduler preempts it under pool exhaustion.
type PreemptPolicy int

const (
	// PreemptRecompute releases the victim's blocks and re-prefills its
	// whole context on re-admission (vLLM's default). Cheap on platforms
	// with fast prefill compute, expensive where prefill is slow.
	PreemptRecompute PreemptPolicy = iota
	// PreemptSwap copies the victim's computed KV entries into a bounded
	// host swap pool at the backend's swap bandwidth and copies them back
	// on re-admission instead of recomputing. Falls back to recompute when
	// the pool is full (or the victim has no computed entries yet).
	PreemptSwap
	// PreemptAuto picks, per preemption, whichever of swap and recompute
	// the memoized cost model estimates cheaper for the victim's context —
	// swap wins on CPU TEEs and long contexts (memcpy beats slow prefill),
	// recompute wins on cGPU short contexts (bounce-buffer bandwidth
	// dominates).
	PreemptAuto
)

var preemptPolicies = enum.Table[PreemptPolicy]{
	Names:  []string{PreemptRecompute: "recompute", PreemptSwap: "swap", PreemptAuto: "auto"},
	Alias:  map[string]PreemptPolicy{"": PreemptRecompute},
	Prefix: "serve", Noun: "preemption policy", Type: "PreemptPolicy",
}

// String names the policy as the CLI spells it.
func (p PreemptPolicy) String() string { return preemptPolicies.String(p) }

// ParsePreemptPolicy resolves a CLI policy name.
func ParsePreemptPolicy(s string) (PreemptPolicy, error) { return preemptPolicies.Parse(s) }
