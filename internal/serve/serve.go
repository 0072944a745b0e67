// Package serve is the multi-request serving layer of the reproduction: an
// open-loop, trace- or Poisson-driven continuous-batching scheduler running
// on the discrete-event engine (internal/sim), with a paged KV-cache
// allocator sized against the platform's usable memory and per-iteration
// step durations from the mechanistic roofline (internal/perf). TEE
// mechanisms flow through unchanged — TDX memory encryption, SGX enclave
// limits and cGPU bounce buffers all reshape the throughput–latency curve —
// and the report prices SLO-compliant serving via internal/cloud. The paper
// measures one request at a time; this package answers its headline
// question ("what does protection cost per token?") under production load,
// where batching amortizes protection overheads differently.
package serve

import (
	"fmt"
	"math"

	"cllm/internal/cloud"
	"cllm/internal/enum"
	"cllm/internal/perf"
	"cllm/internal/stats"
	"cllm/internal/trace"
	"cllm/internal/workload"
)

// QuantileMode selects how a run summarizes per-request latency metrics.
type QuantileMode int

const (
	// QuantileExact retains every completed request's metrics and computes
	// interpolated percentiles over the full sample — bit-identical to the
	// historical behavior, with memory linear in the request count.
	QuantileExact QuantileMode = iota
	// QuantileSketch streams metrics into DDSketch-style summaries
	// (stats.Sketch) with a documented relative-error bound and memory
	// independent of the request count, and runs the simulation in arrival
	// epochs so 10⁸-request runs complete with a flat heap. Reports carry
	// no per-request slice; quantiles come from the sketches.
	QuantileSketch
)

var quantileModes = enum.Table[QuantileMode]{
	Names:  []string{QuantileExact: "exact", QuantileSketch: "sketch"},
	Alias:  map[string]QuantileMode{"": QuantileExact},
	Prefix: "serve", Noun: "quantile mode", Type: "QuantileMode",
}

// String names the mode as the CLI spells it.
func (m QuantileMode) String() string { return quantileModes.String(m) }

// ParseQuantileMode resolves a CLI mode name.
func ParseQuantileMode(s string) (QuantileMode, error) { return quantileModes.Parse(s) }

// DefaultEpochRequests is the arrival-epoch size sketch-mode sharded runs
// use unless configured: large enough that epoch handoff overhead
// vanishes, small enough that per-epoch arrival buffers stay in cache.
const DefaultEpochRequests = 65536

// Request is one arrival in the offered load.
type Request struct {
	// ID must be unique across the trace.
	ID int
	// ArrivalSec is the arrival time on the simulated clock.
	ArrivalSec float64
	// InputLen is the prompt length in tokens.
	InputLen int
	// OutputLen is the number of tokens the request generates.
	OutputLen int
	// PrefixID labels the request's shared prompt prefix: requests with
	// equal nonzero PrefixID model byte-identical content over their first
	// PrefixLen tokens (a RAG system prompt plus document set), which the
	// prefix cache can serve from shared KV blocks. Zero means no shared
	// prefix.
	PrefixID int
	// PrefixLen is the shared prefix length in tokens (at most InputLen).
	PrefixLen int
	// Class tiers the request for deadline-aware admission and
	// decode-priority scheduling (zero = ClassStandard). Scenario loads
	// derive it from the workload shape name (chat → interactive,
	// agent → background); explicit traces may set it directly. Ignored
	// under AdmitFIFO.
	Class RequestClass
}

// Backend selects the hardware/TEE combination the server runs on. Exactly
// one of CPU or GPU is used; the embedded Workload fields other than
// Model/Kind are ignored (the scheduler shapes batches itself).
type Backend struct {
	IsGPU bool
	CPU   perf.CPURun
	GPU   perf.GPURun
	// Coster optionally shares a memoized step-costing table across runs:
	// repeated sweeps over the same backend and model (fleet sizing,
	// autoscale policy grids, benchmark loops) then re-cost identical
	// iteration shapes from the table instead of walking the roofline op by
	// op. Nil means each run builds its own (see NewStepCoster). The coster
	// must have been built for this backend and the run's model/datatype;
	// it is safe for concurrent use and never changes results — memoized
	// keys return bit-identical float64s.
	Coster *perf.StepCoster
}

// NewStepCoster builds the memoized per-step costing table for a backend
// under cfg's model and datatype. Run/RunFleet build one
// automatically when be.Coster is nil; callers that sweep many runs over
// one backend (SizeFleetForSLO's candidates, autoscale classes and their
// capacity probes, benchmark harnesses) should build it once and share it
// via Backend.Coster.
func NewStepCoster(be Backend, cfg Config) (*perf.StepCoster, error) {
	wl := trace.Workload{Model: cfg.Workload.Model, Kind: cfg.Workload.Kind}
	if be.IsGPU {
		g := be.GPU
		g.Workload = wl
		return perf.NewGPUStepCoster(g)
	}
	c := be.CPU
	if c.Sockets <= 0 {
		c.Sockets = 1
	}
	c.Workload = wl
	return perf.NewCPUStepCoster(c)
}

// NewClearStepCoster builds the counterfactual coster for TEE-tax
// attribution: the backend's memoized step-costing table with the platform
// replaced by its clear-hardware twin (tee.Platform.Clear) — same silicon,
// every TEE mechanism neutralized. Costing a step here answers "what would
// this exact shape have cost without confidential computing". Like
// NewStepCoster it is safe to share across replicas and runs of the same
// model/datatype via Config.ClearCoster. For unprotected
// backends the twin is the platform itself, so the clear costs it emits
// equal the real raw costs and the attributed tax is exactly zero.
func NewClearStepCoster(be Backend, cfg Config) (*perf.StepCoster, error) {
	if be.IsGPU {
		be.GPU.Platform = be.GPU.Platform.Clear()
	} else {
		be.CPU.Platform = be.CPU.Platform.Clear()
	}
	be.Coster = nil
	return NewStepCoster(be, cfg)
}

// HourlyUSD is one replica's rent at the default price book: a GPU
// backend rents a confidential-GPU instance; a CPU backend rents every
// core of each socket it runs (CoresPerSocket × max(Sockets, 1) vCPUs)
// plus 128 GiB of memory.
func (b Backend) HourlyUSD() (float64, error) {
	prices := cloud.DefaultPrices()
	if b.IsGPU {
		return prices.CGPUHour, nil
	}
	return prices.HourlyCost(cloud.CPUInstance{VCPUs: b.CPU.CPU.CoresPerSocket * max(b.CPU.Sockets, 1), MemGiB: 128})
}

// platformName returns the TEE platform label of the backend.
func (b Backend) platformName() string {
	if b.IsGPU {
		return b.GPU.Platform.Name
	}
	return b.CPU.Platform.Name
}

// protected reports whether the backend runs under TEE guarantees.
func (b Backend) protected() bool {
	if b.IsGPU {
		return b.GPU.Platform.Protected
	}
	return b.CPU.Platform.Protected
}

// KVBudgetBytes returns the bytes available to the paged KV cache: the
// platform's usable memory minus resident weights. SGX is capped by the
// enclave size (spilling the cache past the EPC would thrash, so the
// scheduler treats the enclave as the hard ceiling); GPUs by HBM; other
// CPU platforms by installed DRAM on the sockets in use.
func (b Backend) KVBudgetBytes(w trace.Workload) (int64, error) {
	weights := int64(trace.WeightFootprint(w))
	var usable int64
	if b.IsGPU {
		usable = b.GPU.GPU.HBMBytes
	} else {
		sockets := b.CPU.Sockets
		if sockets <= 0 {
			sockets = 1
		}
		usable = b.CPU.CPU.MemPerSocketBytes * int64(sockets)
		if epc := b.CPU.Platform.EPC.Size; epc > 0 && epc < usable {
			usable = epc
		}
	}
	budget := usable - weights
	if budget <= 0 {
		return 0, fmt.Errorf("serve: %s cannot hold %d weight bytes (usable %d)", b.platformName(), weights, usable)
	}
	return budget, nil
}

// Config tunes one serving run.
type Config struct {
	// Workload supplies the model and datatype; InputLen/OutputLen are the
	// mean prompt and generation lengths of synthetic arrivals.
	Workload trace.Workload
	// Rate is the Poisson arrival rate in requests/s (open loop).
	Rate float64
	// Requests is the number of synthetic arrivals to generate.
	Requests int
	// Trace supplies explicit arrivals instead of Poisson synthesis.
	Trace []Request
	// Scenario synthesizes arrivals from a workload traffic scenario (an
	// arrival process crossed with a request-shape mix) instead of the
	// plain Poisson process above. Requests still bounds the number of
	// arrivals; Rate, the Workload mean lengths and the Prefix* knobs are
	// ignored in favor of the scenario's own shapes.
	// Trace takes precedence when both are set.
	Scenario *workload.Scenario
	// Seed drives arrivals, length jitter and the step-noise model.
	Seed int64
	// Knobs are the settings every front end shares (see Knobs).
	Knobs
	// BlockTokens is the paged-KV block size in tokens (default 16).
	BlockTokens int
	// Observer, when non-nil, receives the per-request lifecycle event
	// stream and per-round gauge samples (see Observer). Nil — the default —
	// keeps the scheduler's fast path branch-only and allocation-free. Not
	// for concurrent runs: see the interface's contract.
	Observer Observer
	// ClearCoster, when non-nil alongside Observer, prices every round's
	// step shapes a second time on the platform's clear-hardware twin (see
	// tee.Platform.Clear and NewClearStepCoster) and emits the results on
	// the round event — the counterfactual side of TEE-tax attribution. It
	// never influences scheduling or timing: the real coster alone drives
	// the simulation. Ignored when Observer is nil.
	ClearCoster *perf.StepCoster
}

// Knobs are the per-replica serving knobs, declared once for the simulator
// and the public API (cllm.ServeConfig embeds them too). Zero selects each
// knob's default; Config.Validate rejects a negative or out-of-range one.
type Knobs struct {
	// MaxBatch caps concurrently running sequences (default 32).
	MaxBatch int
	// ChunkTokens caps new prompt tokens processed per scheduler iteration
	// (chunked prefill): long prompts are split into budgeted chunks
	// interleaved with decode steps, bounding the TPOT stall a monolithic
	// prefill would impose on in-flight decodes. 0 disables chunking.
	ChunkTokens int
	// PrefixSharing enables the block-level prefix cache: requests with
	// equal PrefixID reuse the shared prefix's KV blocks (refcounted, LRU
	// eviction) instead of recomputing and re-storing them.
	PrefixSharing bool
	// PrefixGroups makes synthetic arrivals share prompt prefixes: each
	// request draws one of this many prefix identities. 0 disables.
	PrefixGroups int
	// PrefixFrac is the shared fraction of the mean prompt length for
	// synthetic prefix groups, in [0, 1) (0 = 0.5 when PrefixGroups is set).
	PrefixFrac float64
	// PreemptPolicy selects what a preemption does with the victim's KV
	// cache: PreemptRecompute (default, vLLM-style full re-prefill),
	// PreemptSwap (copy to a host swap pool as large as the device KV pool,
	// at the backend's swap bandwidth, and copy back on resume), or
	// PreemptAuto (per preemption, whichever the memoized
	// transfer-vs-recompute estimate prices cheaper).
	PreemptPolicy PreemptPolicy
	// TTFTSLOSec and TPOTSLOSec are the SLO targets (defaults 5s / 0.5s).
	// TTFTSLOSec is also the interactive-class admission deadline under
	// AdmitDeadline/AdmitShed (standard requests get 4×, background 16× —
	// see RequestClass).
	TTFTSLOSec float64
	TPOTSLOSec float64
	// QuantileMode selects the latency summary: QuantileExact (default)
	// retains per-request samples and is bit-identical to prior behavior;
	// QuantileSketch streams them into bounded-memory sketches and shards
	// the simulation into arrival epochs (see EpochRequests).
	QuantileMode QuantileMode
	// SketchAlpha is the sketch's relative-error bound in (0, 1); 0 means
	// stats.DefaultSketchAlpha (1%). Ignored under QuantileExact.
	SketchAlpha float64
	// EpochRequests is the arrival-epoch size for sharded simulation: the
	// run schedules this many arrivals at a time, drains the engine to the
	// epoch's last arrival, and hands the warm scheduler/KV state to the
	// next epoch. 0 means DefaultEpochRequests under QuantileSketch and
	// monolithic execution under QuantileExact; setting it explicitly
	// under QuantileExact forces the sharded path (whose output is
	// byte-identical to monolithic — tests pin this).
	EpochRequests int
	// Faults groups the fault-injection, admission-control and retry knobs
	// (see FaultConfig).
	Faults FaultConfig
}

// FaultConfig groups the serving run's resilience knobs: fault injection,
// queue-admission policy and the retry budget. It embeds in Knobs as
// Faults.
type FaultConfig struct {
	// MTBFSec injects replica failures as a Poisson process with this
	// mean time between failures (simulated seconds, per replica, drawn
	// from a private seeded stream). 0 — the default — disables fault
	// injection. A crash destroys the replica's device state (running
	// batch KV, parked swap copies, prefix cache) and takes the replica
	// down for the platform's full TEE cold start (ColdStartSec: boot +
	// weight load + TD accept/enclave build + attestation RTT).
	MTBFSec float64
	// Plan injects scripted crashes instead: each point names a replica
	// index and a crash time on the simulated clock. Mutually exclusive
	// with MTBFSec. Points hitting an already-down replica are absorbed
	// by the ongoing recovery.
	Plan []FailPoint
	// Policy selects what happens to in-flight requests at a crash:
	// FailRequeue (default) requeues them for recompute after recovery;
	// FailLost loses them (retried when RetryMax allows, else dropped as
	// failure-lost).
	Policy FailurePolicy
	// Admission selects the admission policy: AdmitFIFO (default,
	// byte-identical to prior releases), AdmitDeadline (EDF with expired
	// requests dropped), or AdmitShed (EDF plus proactive shedding of
	// infeasible deadlines). See AdmissionPolicy.
	Admission AdmissionPolicy
	// RetryMax is the per-request retry budget for shed and failure-lost
	// requests (0 — the default — disables retries: those requests drop).
	RetryMax int
	// RetryBackoffSec is the base of the exponential retry backoff
	// (base × 2^(attempt−1), plus deterministic per-request jitter up to
	// +50%); 0 defaults to 1s. Setting it needs RetryMax > 0.
	RetryBackoffSec float64
}

// horizonSec bounds simulated time after the last arrival: requests still
// unfinished then count as SLO misses.
const horizonSec = 3600

// maxSteps bounds a normalized run's engine events as a runaway guard:
// 4e6, scaled up to 512 events per request. Event volume scales with
// arrivals (one arrival event plus a bounded number of scheduling rounds
// per request), so 10⁸-request runs are not killed by a constant cap sized
// for sweep points. Requests already covers traces too small to matter,
// and scenario/Poisson runs default it in normalize.
func (c *Config) maxSteps() int64 {
	n := c.Requests
	if len(c.Trace) > n {
		n = len(c.Trace)
	}
	return max(4_000_000, int64(n)*512)
}

// ConfigError rejects one field of a config, named by its selector path
// (e.g. "MaxBatch", "Faults.RetryMax") so a front end can report it
// against its own spelling of the knob.
type ConfigError struct {
	Field string
	Err   error
}

func (e *ConfigError) Error() string { return e.Err.Error() }
func (e *ConfigError) Unwrap() error { return e.Err }

// FieldError returns a *ConfigError naming field, formatted as by
// fmt.Errorf.
func FieldError(field, format string, args ...any) error {
	return &ConfigError{Field: field, Err: fmt.Errorf(format, args...)}
}

// Validate reports the first field of c a run would reject, without
// running anything: it normalizes a copy.
func (c Config) Validate() error { return c.normalize() }

// normalize validates c and fills in its defaults in place. A negative
// count, length, rate or duration is rejected; zero selects the default.
// It is idempotent — no default is a sentinel that a second pass would
// read differently — so fleets, control loops and replicas may
// re-normalize a config a caller already normalized.
func (c *Config) normalize() error {
	if c.Workload.Model.Validate() != nil {
		return FieldError("Workload.Model", "serve: config needs a valid model")
	}
	for _, n := range [...]struct {
		field, what string
		v           float64
	}{
		{"Requests", "request count", float64(c.Requests)},
		{"Workload.InputLen", "mean input length", float64(c.Workload.InputLen)},
		{"Workload.OutputLen", "mean output length", float64(c.Workload.OutputLen)},
		{"MaxBatch", "batch cap", float64(c.MaxBatch)},
		{"ChunkTokens", "prefill chunk budget", float64(c.ChunkTokens)},
		{"PrefixGroups", "prefix group count", float64(c.PrefixGroups)},
		{"TTFTSLOSec", "TTFT SLO", c.TTFTSLOSec},
		{"TPOTSLOSec", "TPOT SLO", c.TPOTSLOSec},
		{"EpochRequests", "epoch size", float64(c.EpochRequests)},
		{"Faults.MTBFSec", "failure MTBF", c.Faults.MTBFSec},
		{"Faults.RetryMax", "retry budget", float64(c.Faults.RetryMax)},
		{"Faults.RetryBackoffSec", "retry backoff base", c.Faults.RetryBackoffSec},
	} {
		switch {
		case math.IsNaN(n.v) || math.IsInf(n.v, 0):
			return FieldError(n.field, "serve: %s %g is not finite", n.what, n.v)
		case n.v < 0:
			return FieldError(n.field, "serve: %s %g is negative (0 selects the default)", n.what, n.v)
		}
	}
	switch {
	case len(c.Trace) > 0:
	case c.Scenario != nil:
		if err := c.Scenario.Validate(); err != nil {
			return &ConfigError{Field: "Scenario", Err: err}
		}
		if c.Requests == 0 {
			c.Requests = 64
		}
		// The scheduler's mean-length fields feed pool sizing heuristics
		// and reports; mirror the mix so they stay meaningful.
		c.Workload.InputLen = c.Scenario.Mix.MeanInputLen()
		c.Workload.OutputLen = c.Scenario.Mix.MeanOutputLen()
		c.Rate = c.Scenario.Arrivals.MeanRate()
	default:
		if !(c.Rate > 0) || math.IsInf(c.Rate, 1) {
			return FieldError("Rate", "serve: arrival rate %g must be positive and finite", c.Rate)
		}
		if c.Requests == 0 {
			c.Requests = 64
		}
		if c.Workload.InputLen == 0 {
			c.Workload.InputLen = 128
		}
		if c.Workload.OutputLen == 0 {
			c.Workload.OutputLen = 32
		}
		if sum := c.Workload.InputLen + c.Workload.OutputLen; sum > c.Workload.Model.ContextLen {
			return FieldError("Workload.InputLen", "serve: mean request length %d exceeds %s context %d",
				sum, c.Workload.Model.Name, c.Workload.Model.ContextLen)
		}
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 32
	}
	if c.BlockTokens <= 0 {
		c.BlockTokens = 16
	}
	if err := preemptPolicies.Check(c.PreemptPolicy); err != nil {
		return &ConfigError{Field: "PreemptPolicy", Err: err}
	}
	if c.PrefixGroups > 0 {
		switch {
		case c.PrefixFrac == 0:
			c.PrefixFrac = 0.5
		case !(c.PrefixFrac >= 0 && c.PrefixFrac < 1):
			return FieldError("PrefixFrac", "serve: prefix fraction %g outside [0, 1)", c.PrefixFrac)
		}
	}
	if c.TTFTSLOSec == 0 {
		c.TTFTSLOSec = 5
	}
	if c.TPOTSLOSec == 0 {
		c.TPOTSLOSec = 0.5
	}
	if err := quantileModes.Check(c.QuantileMode); err != nil {
		return &ConfigError{Field: "QuantileMode", Err: err}
	}
	switch {
	case c.SketchAlpha == 0:
		c.SketchAlpha = stats.DefaultSketchAlpha
	case !(c.SketchAlpha > 0 && c.SketchAlpha < 1):
		return FieldError("SketchAlpha", "serve: sketch alpha %g outside (0, 1)", c.SketchAlpha)
	}
	if c.QuantileMode == QuantileSketch && c.EpochRequests == 0 {
		c.EpochRequests = DefaultEpochRequests
	}
	if c.Faults.MTBFSec > 0 && len(c.Faults.Plan) > 0 {
		return FieldError("Faults.MTBFSec", "serve: failure MTBF and fail plan are mutually exclusive (Poisson vs scripted failures)")
	}
	for _, fp := range c.Faults.Plan {
		if fp.Replica < 0 || fp.TimeSec < 0 {
			return FieldError("Faults.Plan", "serve: invalid fail-plan point %+v", fp)
		}
	}
	if err := failurePolicies.Check(c.Faults.Policy); err != nil {
		return &ConfigError{Field: "Faults.Policy", Err: err}
	}
	if err := admissionPolicies.Check(c.Faults.Admission); err != nil {
		return &ConfigError{Field: "Faults.Admission", Err: err}
	}
	switch {
	case c.Faults.RetryBackoffSec > 0 && c.Faults.RetryMax == 0:
		return FieldError("Faults.RetryBackoffSec", "serve: retry backoff needs a retry budget (RetryMax > 0)")
	case c.Faults.RetryBackoffSec == 0 && c.Faults.RetryMax > 0:
		c.Faults.RetryBackoffSec = 1
	}
	return c.checkTrace()
}

// checkTrace rejects a malformed explicit trace: an invalid request (a
// non-positive length, an arrival that is negative or not finite, a class
// outside the enum), one longer than the model's context, a duplicate ID,
// or an arrival out of time order in an epoch-sharded run. The sharded
// driver drains the engine up to each epoch's last arrival, which would
// silently reorder such a trace; unsharded runs schedule every arrival up
// front and accept any order: in-order arrivals take the engine's O(1)
// feed, out-of-order ones its heap, and both fire in time order.
func (c *Config) checkTrace() error {
	if len(c.Trace) == 0 {
		return nil
	}
	seen := make(map[int]bool, len(c.Trace))
	for _, r := range c.Trace {
		if r.InputLen <= 0 || r.OutputLen <= 0 || !(r.ArrivalSec >= 0) || math.IsInf(r.ArrivalSec, 1) {
			return FieldError("Trace", "serve: invalid trace request %+v", r)
		}
		if r.PrefixLen < 0 || r.PrefixLen > r.InputLen {
			return FieldError("Trace", "serve: request %d prefix %d outside prompt %d", r.ID, r.PrefixLen, r.InputLen)
		}
		if sum := r.InputLen + r.OutputLen; sum > c.Workload.Model.ContextLen {
			return FieldError("Trace", "serve: request %d length %d exceeds %s context %d",
				r.ID, sum, c.Workload.Model.Name, c.Workload.Model.ContextLen)
		}
		if err := requestClasses.Check(r.Class); err != nil {
			return FieldError("Trace", "%w in trace request %d", err, r.ID)
		}
		if seen[r.ID] {
			return FieldError("Trace", "serve: duplicate request ID %d in trace", r.ID)
		}
		seen[r.ID] = true
	}
	if c.EpochRequests > 0 {
		for i := 1; i < len(c.Trace); i++ {
			if c.Trace[i].ArrivalSec < c.Trace[i-1].ArrivalSec {
				return FieldError("Trace", "serve: epoch-sharded runs require a trace sorted by arrival time (request %d at %gs after %gs)",
					c.Trace[i].ID, c.Trace[i].ArrivalSec, c.Trace[i-1].ArrivalSec)
			}
		}
	}
	return nil
}

// Quantiles summarizes one latency metric across completed requests.
type Quantiles struct {
	Mean, P50, P95, P99 float64
}

// RequestMetrics is the per-request outcome.
type RequestMetrics struct {
	ID int
	// TTFT is time from arrival to first generated token (prefill done).
	TTFT float64
	// TPOT is the mean time per output token after the first.
	TPOT float64
	// Latency is arrival-to-completion.
	Latency float64
	// QueueDelay is arrival-to-admission (first admission).
	QueueDelay   float64
	OutputTokens int
	Preemptions  int
	SLOMet       bool
}

// Report is the outcome of one serving run.
type Report struct {
	Platform    string
	OfferedRate float64
	// Completed / Dropped / Unfinished partition the offered requests.
	// Unfinished ones were still queued, running, or awaiting a retry
	// backoff at the horizon. Dropped is the lumped total (kept for
	// compatibility — default output stays byte-identical);
	// DroppedByReason splits it by cause in DropReason order (kv-exhausted,
	// admission-shed, deadline-expired, failure-lost).
	Completed, Dropped, Unfinished int
	DroppedByReason                [NumDropReasons]int
	// Sheds counts admission-shed decisions including retried ones (an
	// EvShed per decision); Retries counts re-entries into the arrival
	// stream after backoff. Both zero under FIFO admission with no
	// failures.
	Sheds, Retries int
	// Crashes counts injected replica failures and DowntimeSec the total
	// recovery time they cost — the TEE recovery tax, Crashes × the
	// platform cold start.
	Crashes     int
	DowntimeSec float64
	// KV handoff ledger (disaggregated topologies only; all zero on
	// unified fleets). HandoffsOut counts handoffs a prefill-role replica
	// initiated, HandoffsIn those a decode-role replica admitted;
	// aggregates may differ by the transfers still in flight at the
	// horizon. HandoffFallbacks counts handoffs whose staging pool was
	// full at ingest, forcing a full KV recompute on the decode side.
	// HandoffTokens/HandoffBytes total the KV entries and bytes drained
	// across the interconnect (counted at the initiating side).
	HandoffsOut      int
	HandoffsIn       int
	HandoffFallbacks int
	HandoffTokens    int
	HandoffBytes     float64
	// CompletedByClass / GoodTokensByClass split completions and
	// SLO-compliant output tokens by request class in RequestClass order
	// (standard, interactive, background) — the overload experiments'
	// per-tier goodput.
	CompletedByClass  [NumClasses]int
	GoodTokensByClass [NumClasses]int
	Preemptions       int
	MakespanSec       float64
	TotalTokens       int
	// TokensPerSec is aggregate generation throughput over the makespan.
	TokensPerSec float64
	// GoodputTokensPerSec counts only tokens of SLO-compliant requests —
	// the paper's cost question, asked properly: protection you pay for is
	// only worth the tokens that arrive on time.
	GoodputTokensPerSec float64
	// GoodRequestsPerSec is the SLO-compliant request completion rate.
	GoodRequestsPerSec float64
	TTFT               Quantiles
	TPOT               Quantiles
	Latency            Quantiles
	KVBlocksTotal      int
	PeakKVBlocksInUse  int
	// KVBlocksInUseAtEnd must be zero whenever Unfinished is zero — any
	// other value is a scheduler leak (tests assert this invariant).
	// Cached (refcount-zero, reclaimable) prefix blocks are not in use;
	// they are reported in KVBlocksCachedAtEnd.
	KVBlocksInUseAtEnd  int
	KVBlocksCachedAtEnd int
	// PrefixCacheHitTokens counts prompt tokens served from shared prefix
	// blocks instead of being recomputed; PrefixCacheMissTokens counts
	// shareable prefix tokens that had to be computed (first arrival of a
	// prefix, or reuse after eviction). Both are zero without sharing.
	PrefixCacheHitTokens  int
	PrefixCacheMissTokens int
	// EvictedBlocks counts cached prefix blocks reclaimed under memory
	// pressure.
	EvictedBlocks int
	// SwapOuts / SwapIns count swap-to-host preemption transfers: victims
	// parked in the host swap pool and parked requests restored from it.
	// Both are zero under PreemptRecompute. SwapOuts can exceed SwapIns
	// only when swapped requests were still queued (or dropped) at the end
	// of the run.
	SwapOuts, SwapIns int
	// SwapPoolBlocks is the host swap pool capacity; PeakSwapBlocksInUse
	// its occupancy high-water mark. SwapBlocksAtEnd must be zero whenever
	// Unfinished is zero — a parked copy without a live request is a leak
	// (tests assert this like the device-pool invariant).
	SwapPoolBlocks      int
	PeakSwapBlocksInUse int
	SwapBlocksAtEnd     int
	Requests            []RequestMetrics
	// Sketched marks a report whose latency quantiles come from streaming
	// sketches (Config.QuantileMode == QuantileSketch): Requests is nil
	// and the Quantiles fields are within SketchAlpha relative error of
	// the exact order statistics (Mean additionally tolerates float
	// summation reordering).
	Sketched bool
	// SketchAlpha is the quantile relative-error bound of a sketched
	// report (zero otherwise).
	SketchAlpha float64
	// GoodRequests counts completed requests that met the SLO,
	// GoodOutputTokens sums their output tokens, and
	// CompletedOutputTokens sums output tokens over all completed
	// requests. Filled in both quantile modes (see Report.count), so
	// consumers need not walk the per-request slice.
	GoodRequests          int
	GoodOutputTokens      int
	CompletedOutputTokens int
	// TTFTSketch/TPOTSketch/LatencySketch are the streaming summaries
	// behind a sketched report's quantiles; nil unless Sketched. Exposed
	// so MergeReports can merge them exactly and internal/obs can
	// reconcile against them.
	TTFTSketch    *stats.Sketch
	TPOTSketch    *stats.Sketch
	LatencySketch *stats.Sketch
}

// SLOAttainment returns the fraction of offered requests that completed
// within SLO.
func (r *Report) SLOAttainment() float64 {
	offered := r.Completed + r.Dropped + r.Unfinished
	if offered == 0 {
		return 0
	}
	return float64(r.GoodRequests) / float64(offered)
}

// CostAtSLO prices SLO-compliant serving of the offered load.
type CostAtSLO struct {
	// Replicas is the fleet size needed so the offered request rate fits
	// within the per-replica SLO-compliant completion rate.
	Replicas int
	// FleetHourlyUSD is the rental price of the whole fleet.
	FleetHourlyUSD float64
	// USDPerMTok is dollars per million served output tokens with the
	// SLO-sized fleet.
	USDPerMTok float64
}

// CostAtSLO sizes a replica fleet for the offered load at this report's
// measured per-replica SLO-compliant rate, and prices it per million served
// tokens. hourlyPerReplica is the rental price of one instance.
func (r *Report) CostAtSLO(hourlyPerReplica float64) (*CostAtSLO, error) {
	replicas, err := cloud.ReplicasForRate(r.OfferedRate, r.GoodRequestsPerSec)
	if err != nil {
		return nil, err
	}
	meanOut := 0.0
	if r.Completed > 0 {
		meanOut = float64(r.CompletedOutputTokens) / float64(r.Completed)
	}
	offeredTokens := r.OfferedRate * meanOut
	usd, err := cloud.ServingCost(hourlyPerReplica, replicas, offeredTokens)
	if err != nil {
		return nil, err
	}
	return &CostAtSLO{
		Replicas:       replicas,
		FleetHourlyUSD: hourlyPerReplica * float64(replicas),
		USDPerMTok:     usd,
	}, nil
}

// count folds one completed request's outcome into the report's
// completion and goodput counters — the only place they are updated, for
// exact reports and the sketch-mode ledger alike.
func (r *Report) count(m RequestMetrics, class RequestClass) {
	r.Completed++
	r.CompletedByClass[class]++
	r.CompletedOutputTokens += m.OutputTokens
	if m.SLOMet {
		r.GoodRequests++
		r.GoodOutputTokens += m.OutputTokens
		r.GoodTokensByClass[class] += m.OutputTokens
	}
}

// finish derives the report's rates from its counters and makespan, and
// its latency quantiles from the per-request outcomes (exact) or the
// streaming sketches (sketched). Every Report — per replica or merged —
// is finished here.
func (r *Report) finish() {
	if r.MakespanSec > 0 {
		r.TokensPerSec = float64(r.TotalTokens) / r.MakespanSec
		r.GoodputTokensPerSec = float64(r.GoodOutputTokens) / r.MakespanSec
		r.GoodRequestsPerSec = float64(r.GoodRequests) / r.MakespanSec
	}
	if r.Sketched {
		r.TTFT = sketchQuantiles(r.TTFTSketch)
		r.TPOT = sketchQuantiles(r.TPOTSketch)
		r.Latency = sketchQuantiles(r.LatencySketch)
		return
	}
	xs := make([]float64, len(r.Requests))
	for i, m := range r.Requests {
		xs[i] = m.TTFT
	}
	r.TTFT = quantiles(xs)
	for i, m := range r.Requests {
		xs[i] = m.Latency
	}
	r.Latency = quantiles(xs)
	// Single-token requests have no decode phase, so no TPOT sample.
	xs = xs[:0]
	for _, m := range r.Requests {
		if m.OutputTokens > 1 {
			xs = append(xs, m.TPOT)
		}
	}
	r.TPOT = quantiles(xs)
}

// reportPercentiles are the percentiles a Report's Quantiles carry.
var reportPercentiles = []float64{50, 95, 99}

// quantiles summarizes a sample set: the mean in sample order, then the
// interpolated percentiles of stats.PercentileSorted, selected rather
// than sorted. It reorders xs in place.
func quantiles(xs []float64) Quantiles {
	if len(xs) == 0 {
		return Quantiles{}
	}
	mean := stats.Mean(xs)
	var q [3]float64
	stats.SelectPercentiles(xs, reportPercentiles, q[:])
	return Quantiles{Mean: mean, P50: q[0], P95: q[1], P99: q[2]}
}

// sketchQuantiles summarizes a streaming sketch in the report's Quantiles
// shape. The percentile fields are rank-based bucket estimates (within
// the sketch's alpha of the exact order statistic) rather than the exact
// path's interpolated percentiles.
func sketchQuantiles(sk *stats.Sketch) Quantiles {
	if sk == nil || sk.Count() == 0 {
		return Quantiles{}
	}
	return Quantiles{
		Mean: sk.Mean(),
		P50:  sk.Quantile(0.50),
		P95:  sk.Quantile(0.95),
		P99:  sk.Quantile(0.99),
	}
}
