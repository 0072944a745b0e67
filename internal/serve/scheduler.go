package serve

import (
	"fmt"
	"math"
	"math/rand"

	"cllm/internal/perf"
	"cllm/internal/sim"
	"cllm/internal/trace"
)

// phase is a request's lifecycle state.
type phase uint8

const (
	phaseWaiting phase = iota
	phaseRunning
	phaseFinished
	phaseDropped
	// phaseHandoff marks a request that produced its first token on a
	// prefill-role replica and is now in flight to a decode replica: its KV
	// drains at the source, crosses the interconnect, and re-enters a
	// decode replica's queue (see handoff.go). Terminally it reports as
	// Unfinished — a handoff cut off by the horizon never completed.
	phaseHandoff
	// phaseDecoding marks a running, fully prefilled row on its replica's
	// decode clock: its generated count is stored as of the clock's
	// syncTick (see decodeClock). Terminally it reports as Unfinished.
	phaseDecoding
)

// reqState tracks one request through the scheduler.
type reqState struct {
	req Request
	// generated counts produced output tokens; survives preemption (the
	// delivered tokens are not un-delivered, the cache is recomputed). On
	// a phaseDecoding row it is the count as of the decode clock's
	// syncTick; only the clock reads it there (the settle rule, see
	// decodeClock).
	generated   int
	preemptions int
	// prefilled counts prompt tokens whose KV entries exist (computed this
	// admission or reused from the prefix cache); prefillTarget is where the
	// current prefill ends (prompt plus any tokens generated before a
	// preemption, which vLLM-style recompute re-prefills).
	prefilled     int
	prefillTarget int
	// swapped marks a preempted request whose computed KV entries are
	// parked in the host swap pool (swap-to-host preemption);
	// swappedTokens is how many leading entries the parked copy covers.
	// Re-admission transfers the copy back instead of recomputing it.
	// admitted marks the first admission (the queue-delay endpoint);
	// retried requests keep it across re-entries. kv is the request's
	// handle on its holding in its replica's BlockManager (slot 0: it holds
	// nothing there) with the tokens its device blocks cover; it and phase
	// sit in the two flags' padding.
	swapped  bool
	admitted bool
	phase    phase
	kv       kvRef
	// qpos and qseq place a queued request in its replica's deadline index
	// (see edfIndex): its heap position and its queue-order key. FIFO
	// admission leaves them unused.
	qpos          int32
	qseq          int64
	swappedTokens int
	admittedAt    float64 // first admission time
	firstTokenAt  float64
	finishedAt    float64
	// deadline is the absolute admission deadline under deadline-aware
	// admission (renewed per retry attempt); attempt counts retries
	// consumed from the per-request budget.
	deadline float64
	attempt  int
}

// ctxTokens is the KV-cache footprint the request needs for its next decode
// step: the full prompt plus every generated token.
func (r *reqState) ctxTokens() int { return r.req.InputLen + r.generated }

// prefilling reports whether the request is mid-prefill (chunks remain).
func (r *reqState) prefilling() bool { return r.prefilled < r.prefillTarget }

// computedTokens is how many leading KV entries exist for a running
// request right now: its committed prefill progress while mid-prefill, its
// whole context once prefilled (every decode step writes the entry of the
// token it produces). Only meaningful for admitted requests — it is what a
// swap-out can park and a recompute must rebuild.
func (r *reqState) computedTokens() int {
	if r.prefilling() {
		return r.prefilled
	}
	return r.ctxTokens()
}

// chunkWork is one request's prefill contribution to an iteration: tokens
// new prompt tokens computed on top of hist cached ones.
type chunkWork struct {
	r      *reqState
	tokens int
	hist   int
}

// scheduler runs the continuous-batching loop on the event engine: one
// iteration event per engine step, shaped like Orca/vLLM iteration-level
// scheduling — running sequences decode one token, freed capacity admits
// queued prompts (whole, or chunk by chunk under chunked prefill), and KV
// exhaustion preempts the youngest sequence. Several schedulers can share
// one engine (see RunFleet); each owns its queue, KV pool and noise stream.
type scheduler struct {
	cfg    Config
	eng    *sim.Engine
	noise  *sim.Noise
	kv     *BlockManager
	coster *perf.StepCoster
	// protected is the backend's TEE flag, which widens step noise. It is
	// all the loop needs of the Backend (the platform label goes on rep at
	// construction), so the struct is not kept.
	protected bool

	// obs receives lifecycle events and gauge samples; nil (the default)
	// disables observation, and every emission site checks that first, so
	// the disabled path stays branch-only and allocation-free. replica is
	// this scheduler's index within its fleet, for event labeling.
	obs     Observer
	replica int

	queue     reqDeque    // FIFO; preempted requests rejoin at the front
	running   []*reqState // admission order (index 0 = oldest)
	iterating bool

	// clock holds the decode rows: the fully prefilled running rows, which
	// each append one token per round. prefilling counts the running rows
	// still mid-prefill, so the continuation pass is skipped outright when
	// none is.
	clock      decodeClock
	prefilling int

	round    roundState
	finishFn func(*sim.Engine) // cached closure; one alloc per scheduler, not per round

	// producedTot counts every output token produced so far; gauge samples
	// report it cumulatively so windowed throughput differences cleanly.
	producedTot int
	// The outcome ledger the report is built from (see driver.go): kept
	// retains the states of every request submitted here, in arrival order;
	// a lone sketch-mode replica instead streams its outcomes into stream
	// (and rep) as they happen and retains nothing. submitted counts the
	// arrivals handed to this replica.
	kept      []*reqState
	stream    *streamAccum
	submitted int
	// wastedTokens counts tokens a retry discarded; exact-mode TotalTokens
	// adds them back, since they were produced.
	wastedTokens int
	// down parks the iteration loop while a crashed replica recovers; kick
	// and the load balancers read it every round, so it stays inline.
	down bool
	// Off-by-default features, each nil unless configured: fault
	// injection (failure.go), the prefill side of a KV handoff
	// (handoff.go), and clear-hardware attribution (attrState).
	faults  *faultState
	handoff *handoffState
	attr    *attrState
	// err records the first costing failure (a backend misconfiguration)
	// and errAt its simulated time; it halts the loop and fails the run
	// instead of reporting zeros as data.
	err   error
	errAt float64
	// rep is the replica's event ledger: preemptions, swaps, drops by
	// reason, sheds, retries, crashes, downtime and the handoff counters
	// are counted straight into it (plus, for a streamed replica, its
	// completions and drops). report starts from a copy.
	rep Report
}

// attrState, allocated only when Config.ClearCoster and an observer are
// both set, prices every observed round a second time on the
// counterfactual clear-hardware coster, with the TEE mechanisms
// neutralized; round holds the in-flight round's clear-twin costs for the
// round event. It never feeds the engine clock.
type attrState struct {
	clear *perf.StepCoster
	round roundCost
}

// fail records err as the replica's halting failure unless one is already
// recorded.
func (s *scheduler) fail(err error) {
	if s.err == nil {
		s.err, s.errAt = err, float64(s.eng.Now())
	}
}

// newScheduler builds one replica's scheduler on the given engine. cfg must
// already be normalized and the backend socket-defaulted (Pool.Add does
// both); the noise stream is owned by this replica. The step coster is
// be.Coster when the caller shares one across replicas (fleets, fleet
// sizing, autoscale classes), otherwise private.
func newScheduler(be Backend, cfg Config, eng *sim.Engine, noise *sim.Noise) (*scheduler, error) {
	kvBudget, err := be.KVBudgetBytes(cfg.Workload)
	if err != nil {
		return nil, err
	}
	bytesPerToken := cfg.Workload.Model.KVCacheBytesPerToken(cfg.Workload.Kind.Size())
	kv, err := newBlockManager(kvBudget, cfg.BlockTokens, bytesPerToken, cfg.PrefixSharing, cfg.MaxBatch)
	if err != nil {
		return nil, err
	}
	coster := be.Coster
	if coster == nil {
		coster, err = NewStepCoster(be, cfg)
		if err != nil {
			return nil, err
		}
	} else if !coster.CompatibleWith(cfg.Workload.Model, cfg.Workload.Kind) {
		// A shared table built for another model/datatype would silently
		// price this run with the wrong operator traces.
		return nil, fmt.Errorf("serve: shared step coster was built for a different model/datatype than %s/%s",
			cfg.Workload.Model.Name, cfg.Workload.Kind)
	}
	if cfg.PreemptPolicy != PreemptRecompute {
		// The host swap pool is as large as the device pool.
		kv.ConfigureSwapPool(kv.TotalBlocks())
	}
	s := &scheduler{cfg: cfg, eng: eng, noise: noise, kv: kv, coster: coster, protected: be.protected(), obs: cfg.Observer}
	s.rep.Platform = be.platformName()
	// Admission holds running within MaxBatch and the clock's rows are drawn
	// from it, so neither ever grows.
	rows := make([]*reqState, 2*cfg.MaxBatch)
	s.running, s.clock.rows = rows[:0:cfg.MaxBatch], rows[cfg.MaxBatch:cfg.MaxBatch]
	if cfg.Faults.Admission != AdmitFIFO {
		s.queue.edf = new(edfIndex)
	}
	if cfg.ClearCoster != nil && cfg.Observer != nil {
		if !cfg.ClearCoster.CompatibleWith(cfg.Workload.Model, cfg.Workload.Kind) {
			return nil, fmt.Errorf("serve: clear coster was built for a different model/datatype than %s/%s",
				cfg.Workload.Model.Name, cfg.Workload.Kind)
		}
		s.attr = &attrState{clear: cfg.ClearCoster}
	}
	s.finishFn = func(*sim.Engine) { s.finishIteration() }
	if cfg.Faults.MTBFSec > 0 || len(cfg.Faults.Plan) > 0 {
		s.faults = &faultState{recoverySec: ColdStartSec(be, cfg.Workload)}
	}
	return s, nil
}

// event fills the shared fields and hands ev to the observer. Callers must
// have checked s.obs != nil — keeping the check at the call site keeps the
// disabled path a single branch.
func (s *scheduler) event(ev Event) {
	ev.TimeSec = float64(s.eng.Now())
	ev.Replica = s.replica
	s.obs.Event(ev)
}

// swapEvent emits a swap transfer event with its payload and priced
// transfer time. Costing errors are ignored here: the transfer itself is
// priced (and error-checked) by iterationTime; the event is telemetry.
func (s *scheduler) swapEvent(kind EventKind, reqID, tokens int) {
	ev := Event{Kind: kind, ReqID: reqID, Tokens: tokens}
	if tokens > 0 {
		ev.Bytes = trace.KVSwapBytes(s.cfg.Workload, tokens)
		if t, err := s.coster.SwapTime(tokens); err == nil {
			ev.XferSec = t
		}
	}
	s.event(ev)
}

// submit enqueues an arrived request and wakes the iteration loop.
func (s *scheduler) submit(st *reqState) {
	if s.faults != nil {
		s.armFailures()
		s.faults.lastProgress = float64(s.eng.Now())
	}
	if s.cfg.Faults.Admission != AdmitFIFO {
		st.deadline = float64(s.eng.Now()) + st.req.Class.deadlineMult()*s.cfg.TTFTSLOSec
	}
	if s.obs != nil {
		s.event(Event{Kind: EvArrive, ReqID: st.req.ID, Tokens: st.req.InputLen, Hist: st.req.OutputLen})
	}
	s.queue.PushBack(st)
	s.kick()
}

// submitHandoff enqueues a request arriving over a KV handoff at a
// decode-role replica. Unlike submit it emits no EvArrive — the request
// arrived at the fleet exactly once, on its prefill replica, and the
// observer stream keys per-request ownership off that event. Fault
// injection and non-FIFO admission are rejected for disaggregated
// topologies, so neither hook runs here.
func (s *scheduler) submitHandoff(st *reqState) {
	s.rep.HandoffsIn++
	s.queue.PushBack(st)
	s.kick()
}

// outstanding is the replica's current load: queued plus running requests.
// Load balancers use it for least-loaded dispatch.
func (s *scheduler) outstanding() int { return s.queue.Len() + len(s.running) }

// genArrivals returns the offered load: the explicit trace when given, a
// workload scenario's synthesis when configured, otherwise Poisson arrivals
// with jittered lengths drawn from rng (so a seed fixes the whole run).
// With PrefixGroups set, synthetic requests are assigned to a random prefix
// group each and share the leading PrefixFrac×InputLen tokens within their
// group (RAG-style workloads: common system prompt and document set,
// distinct questions).
func genArrivals(cfg Config, rng *rand.Rand) ([]Request, error) {
	if len(cfg.Trace) == 0 && cfg.Scenario != nil {
		return scenarioArrivals(cfg, rng)
	}
	if len(cfg.Trace) > 0 {
		return append([]Request(nil), cfg.Trace...), nil
	}
	g := newPoissonGen(cfg, rng)
	out := make([]Request, cfg.Requests)
	for i := range out {
		out[i], _ = g.next()
	}
	return out, nil
}

// poissonGen synthesizes the Poisson arrival stream one request at a
// time. It draws from rng in exactly the order the historical batch loop
// did (inter-arrival, then prefix group and suffix jitter or input
// jitter, then output jitter), so draining it reproduces genArrivals'
// output bit for bit — the property the epoch-sharded runner relies on.
type poissonGen struct {
	cfg       Config
	rng       *rand.Rand
	prefixLen int
	t         float64
	i         int
}

func newPoissonGen(cfg Config, rng *rand.Rand) *poissonGen {
	prefixLen := 0
	if cfg.PrefixGroups > 0 {
		prefixLen = int(math.Round(cfg.PrefixFrac * float64(cfg.Workload.InputLen)))
		if prefixLen >= cfg.Workload.InputLen {
			prefixLen = cfg.Workload.InputLen - 1
		}
	}
	return &poissonGen{cfg: cfg, rng: rng, prefixLen: prefixLen}
}

// lengthJitter is the half-width of Poisson synthesis's uniform length
// jitter, as a fraction of the mean.
const lengthJitter = 0.25

func (g *poissonGen) jitter(mean int) int {
	if mean <= 0 {
		return mean
	}
	f := 1 + lengthJitter*(2*g.rng.Float64()-1)
	n := int(math.Round(float64(mean) * f))
	if n < 1 {
		n = 1
	}
	return n
}

// next returns the following arrival, or false once cfg.Requests have
// been drawn.
func (g *poissonGen) next() (Request, bool) {
	if g.i >= g.cfg.Requests {
		return Request{}, false
	}
	g.t += g.rng.ExpFloat64() / g.cfg.Rate
	var inLen int
	r := Request{ID: g.i, ArrivalSec: g.t}
	if g.prefixLen > 0 {
		// The shared prefix has one fixed length per group; only the
		// request-specific suffix jitters. Group membership is drawn at
		// random — deterministic round-robin assignment would alias with
		// round-robin dispatch in fleet runs and fake prefix affinity.
		r.PrefixID = g.rng.Intn(g.cfg.PrefixGroups) + 1
		r.PrefixLen = g.prefixLen
		suffix := g.jitter(g.cfg.Workload.InputLen - g.prefixLen)
		if suffix < 1 {
			suffix = 1
		}
		inLen = g.prefixLen + suffix
	} else {
		inLen = g.jitter(g.cfg.Workload.InputLen)
	}
	outLen := g.jitter(g.cfg.Workload.OutputLen)
	if outLen < 2 {
		outLen = 2 // keep TPOT defined
	}
	// Upward jitter on means near the context limit must not overflow it.
	r.InputLen, r.OutputLen = inLen, outLen
	g.i++
	return clampToContext(r, g.cfg.Workload.Model.ContextLen), true
}

// clampToContext enforces the model context window on a synthesized
// request: shorten the prompt first, then the generation, and never let a
// shared prefix cover (or outlive) the whole prompt.
func clampToContext(r Request, ctx int) Request {
	if over := r.InputLen + r.OutputLen - ctx; over > 0 {
		r.InputLen -= over
		if r.InputLen < 1 {
			r.InputLen = 1
		}
		if r.InputLen+r.OutputLen > ctx {
			r.OutputLen = ctx - r.InputLen
		}
	}
	if r.PrefixLen >= r.InputLen {
		r.PrefixLen = r.InputLen - 1
	}
	if r.PrefixLen <= 0 {
		r.PrefixID, r.PrefixLen = 0, 0
	}
	return r
}

// scenarioArrivals adopts a workload scenario's request stream: shapes and
// times come from the scenario; the context window is enforced by the same
// clamp the synthetic path uses.
func scenarioArrivals(cfg Config, rng *rand.Rand) ([]Request, error) {
	reqs, err := cfg.Scenario.Generate(cfg.Requests, rng)
	if err != nil {
		return nil, err
	}
	out := make([]Request, len(reqs))
	for i, wr := range reqs {
		out[i] = clampToContext(Request{
			ID: i, ArrivalSec: wr.ArrivalSec,
			InputLen: wr.InputLen, OutputLen: wr.OutputLen,
			PrefixID: wr.PrefixID, PrefixLen: wr.PrefixLen,
			Class: classOfShape(wr.Shape),
		}, cfg.Workload.Model.ContextLen)
	}
	return out, nil
}

// Arrivals synthesizes the offered load a configuration describes — trace,
// scenario, or Poisson — exactly as Run/RunFleet would see it. External
// control loops (internal/autoscale) use it to dispatch the same stream
// across a fleet they manage themselves.
func Arrivals(cfg Config) ([]Request, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	return genArrivals(cfg, rand.New(rand.NewSource(cfg.Seed)))
}

// prefixHash derives the content-identity hash of a request's shared
// prefix. Requests with equal PrefixID model byte-identical prefix content,
// so they hash equally and share one prefix-cache entry. mix64 is a
// bijection, so distinct IDs get distinct hashes: requests with different
// prefixes never share an entry, and so never alias a block.
func prefixHash(prefixID int) uint64 {
	return mix64(uint64(prefixID) + 0x9e3779b97f4a7c15)
}

// kick starts the iteration loop if it is idle. A crashed replica stays
// parked until its recovery event clears down and kicks again.
func (s *scheduler) kick() {
	if s.iterating || s.down {
		return
	}
	if len(s.running) == 0 && s.queue.Len() == 0 {
		return
	}
	s.iterating = true
	s.iterate()
}

// iterate performs one scheduling round at the current simulated time and
// schedules its completion. The round has three passes:
//
//  1. prefill continuation — running sequences mid-prefill consume the
//     iteration's chunk budget, oldest first;
//  2. decode capacity — every fully-prefilled sequence must be able to
//     append one token, preempting the youngest sequence on exhaustion
//     (reserveDecode);
//  3. admission — remaining batch slots and chunk budget admit queued
//     prompts, reusing shared prefix blocks when sharing is on.
func (s *scheduler) iterate() {
	now := float64(s.eng.Now())
	s.round.shape = roundShape{}

	// Chunk budget: new prompt tokens this iteration. 0 = monolithic
	// (unlimited) prefills.
	budget := s.cfg.ChunkTokens
	chunked := budget > 0
	chunks := s.round.chunks[:0]

	// 1. Prefill continuation pass (oldest first). A sequence that cannot
	// grow its cache preempts the youngest running sequence, possibly
	// itself. Once no running row is mid-prefill the rest would all be
	// skipped, so the pass stops — at once on most rounds.
	for i := 0; s.prefilling > 0 && i < len(s.running); i++ {
		if chunked && budget <= 0 {
			break
		}
		r := s.running[i]
		if !r.prefilling() {
			continue
		}
		chunk := r.prefillTarget - r.prefilled
		if chunked && chunk > budget {
			chunk = budget
		}
		// A chunk that completes the prompt produces the first token, whose
		// KV entry the next decode step writes — reserve its slot now so
		// the request cannot be admitted, fully prefilled, and then
		// self-preempted for want of one block.
		need := r.prefilled + chunk
		if need == r.prefillTarget {
			need++
		}
		stalled := false
		for !s.kv.grow(&r.kv, r.req.ID, need) {
			victim := s.victim()
			s.preempt(victim, ReasonPrefillStall)
			chunks = dropChunk(chunks, victim)
			if victim == r {
				stalled = true
				break
			}
		}
		if stalled {
			break // r was the youngest: everything after it is gone too
		}
		chunks = append(chunks, chunkWork{r: r, tokens: chunk, hist: r.prefilled})
		if chunked {
			budget -= chunk
		}
	}

	// 2. Decode capacity pass.
	chunks = s.reserveDecode(chunks)

	// 3. Admission pass: fill remaining batch slots while chunk budget and
	// the pool allow — FIFO by default; deadline-aware policies move the
	// earliest-deadline request to the front first (dropping or shedding
	// infeasible ones on the way, see admitNext). A request that cannot
	// fit even an empty pool is dropped — no amount of waiting makes the
	// enclave bigger.
	for s.queue.Len() > 0 && len(s.running) < s.cfg.MaxBatch {
		head := s.queue.Front()
		if s.cfg.Faults.Admission != AdmitFIFO {
			if head = s.admitNext(now); head == nil {
				break // queue drained by expiry/shedding, or a costing error
			}
		}
		target := head.ctxTokens() // prompt plus pre-preemption tokens to re-prefill
		if s.kv.BlocksFor(target+1) > s.kv.TotalBlocks() {
			s.queue.PopFront()
			s.dropQueued(head, DropKVExhausted, target)
			continue
		}
		// A fully-parked swap copy needs no chunk budget — swap-in is a
		// transfer, not prefill compute.
		restored := 0
		if head.swapped {
			restored = head.swappedTokens
		}
		if chunked && budget <= 0 && restored < target {
			break
		}
		// Reuse cached prefix blocks. At least the last prompt token is
		// always recomputed — producing the first output token needs a
		// forward pass even on a full cache hit.
		cached := 0
		if s.cfg.PrefixSharing && head.req.PrefixID != 0 {
			pl := head.req.PrefixLen
			if pl > target-1 {
				pl = target - 1
			}
			c, err := s.kv.acquirePrefix(&head.kv, head.req.ID, prefixHash(head.req.PrefixID), pl)
			if err != nil {
				s.fail(err)
				s.iterating = false
				s.round.chunks = chunks
				return
			}
			cached = c
		}
		// Tokens already computed: cache hits plus the parked swap copy
		// (self-contained, so it covers the prefix span too).
		computed := cached
		if restored > computed {
			computed = restored
		}
		chunk := target - computed
		if chunked && chunk > budget {
			chunk = budget
		}
		need := computed + chunk
		if need == target {
			need++ // first-token slot (see the continuation pass)
		}
		if !s.kv.grow(&head.kv, head.req.ID, need) {
			s.kv.release(&head.kv) // un-pin the acquired prefix; a swap copy stays parked
			break
		}
		s.kv.creditPrefixStats(head.kv.slot, cached)
		s.queue.PopFront()
		if !head.admitted {
			head.admitted = true
			head.admittedAt = now
		}
		head.phase = phaseRunning
		head.prefilled = computed
		head.prefillTarget = target
		if s.obs != nil {
			s.event(Event{Kind: EvAdmit, ReqID: head.req.ID, Tokens: target, Hist: computed})
		}
		if head.swapped {
			// Swap-in: transfer the parked copy back into the device blocks
			// just grown. Tokens resident in re-acquired shared blocks skip
			// the transfer, and republished prefix blocks are filled from
			// the copy — swapped blocks rejoin the prefix cache without
			// recompute (MarkComputed makes them hits for later sharers).
			in := restored - cached
			if in > 0 {
				s.round.shape.swapIn += in
			} else {
				in = 0
			}
			if s.obs != nil {
				s.swapEvent(EvSwapIn, head.req.ID, in)
			}
			s.kv.swapIn(&head.kv)
			s.kv.markComputed(head.kv.slot, computed)
			head.swapped, head.swappedTokens = false, 0
			s.rep.SwapIns++
		}
		s.running = append(s.running, head)
		if head.prefilling() {
			s.prefilling++
		} else {
			s.clock.join(head) // a fully restored swap copy decodes from next round
		}
		if chunk > 0 {
			chunks = append(chunks, chunkWork{r: head, tokens: chunk, hist: computed})
			if chunked {
				budget -= chunk
			}
		}
	}

	s.round.chunks = chunks
	if s.round.shape.batch == 0 && len(chunks) == 0 && s.round.shape.swapOut == 0 && s.round.shape.swapIn == 0 {
		// Nothing can make progress now; the next arrival (or nothing)
		// restarts the loop. With an empty running set the pool's active
		// blocks are free (cached blocks evict on demand), so a non-fitting
		// queue head was dropped above — no livelock.
		s.iterating = false
		return
	}

	// Without chunked prefill, a prefill runs as a dedicated prefill-only
	// iteration and in-flight decodes stall behind it — the classic
	// continuous-batching behavior whose tail-TPOT cost chunked prefill
	// exists to bound. Chunked iterations are hybrid: the chunk budget and
	// one decode step share the round. (Stalled decodes keep their grown
	// block for the next round.)
	if !chunked && len(chunks) > 0 {
		s.round.shape.batch, s.round.shape.ctxSum = 0, 0
	}

	dur, err := s.iterationTime(chunks)
	if err != nil {
		// A costing failure is a configuration bug (e.g. more sockets than
		// the CPU has); halt the loop and fail the whole run.
		s.fail(err)
		s.iterating = false
		return
	}
	dur = s.noise.Sample(dur, s.protected)
	s.eng.Schedule(sim.Time(dur), s.finishFn)
}

// reserveDecode is the decode capacity pass: every decode row must be able
// to append one token. A steady round asks the clock (reserveBoundary):
// only the rows reaching a block boundary this round enter the
// BlockManager, and the context sum comes from the clock's base. When the
// pool cannot give each of them its block, the per-row pass runs from
// settled counts in admission order: a row whose held blocks already cover
// it (ctx+1 ≤ kv.cap) costs a load and a compare, a row crossing a boundary
// grows, and on exhaustion the youngest running sequence is preempted
// (vLLM's recompute policy): its blocks are released and it requeues at the
// front, where it will re-prefill its full context later (shared prefix
// blocks may still be cached then). The pool changed, so the pass re-runs
// from the oldest row. The round's decode batch — a leading run of the
// decode rows in admission order — and its context sum go to
// s.round.shape; chunks comes back without the victims' work.
func (s *scheduler) reserveDecode(chunks []chunkWork) []chunkWork {
	c := &s.clock
	sh := &s.round.shape
	if !perRowTestHook && s.reserveBoundary() {
		sh.batch, sh.ctxSum = len(c.rows), c.ctxSum()
		return chunks
	}
	c.settle()
	ctx, i := 0, 0
	for j := 0; j < len(s.running); j++ {
		r := s.running[j]
		if r.phase != phaseDecoding {
			continue
		}
		n := r.ctxTokens()
		if n+1 <= int(r.kv.cap) || s.kv.grow(&r.kv, r.req.ID, n+1) {
			ctx += n
			i++
			continue
		}
		victim := s.victim()
		s.preempt(victim, ReasonDecodeStall)
		chunks = dropChunk(chunks, victim)
		if victim == r {
			// r stalled itself: the rows before it are this round's batch,
			// and any after it (a class-ranked victim choice leaves some)
			// wait a round.
			break
		}
		j, i, ctx = -1, 0, 0
	}
	sh.batch, sh.ctxSum = i, ctx
	c.resort() // rows grew out of the clock's order
	return chunks
}

// dropChunk cancels a preempted sequence's chunk work for this iteration.
func dropChunk(chunks []chunkWork, victim *reqState) []chunkWork {
	for i, cw := range chunks {
		if cw.r == victim {
			return append(chunks[:i], chunks[i+1:]...)
		}
	}
	return chunks
}

// dropRunning removes r from the running batch, keeping admission order,
// and books the membership change: a row mid-prefill leaves the prefilling
// count, a decode row leaves the clock. Dropping the youngest row (the
// usual preemption victim) is an O(1) pop.
func (s *scheduler) dropRunning(r *reqState) {
	if r.prefilling() {
		s.prefilling--
	} else {
		s.clock.leave(r)
	}
	if n := len(s.running); n > 0 && s.running[n-1] == r {
		s.running[n-1] = nil // release for GC; append will overwrite
		s.running = s.running[:n-1]
		return
	}
	for i, cand := range s.running {
		if cand == r {
			s.running = append(s.running[:i], s.running[i+1:]...)
			return
		}
	}
}

// preempt evicts a running sequence from the batch and requeues it at the
// front. The victim is the youngest running sequence (the youngest of the
// lowest class under deadline-aware admission, see victim). What happens
// to the victim's KV cache is the preemption policy's call: recompute
// releases it (vLLM's default), swap parks it in the host swap pool, auto
// picks whichever the memoized cost model estimates cheaper — with swap
// falling back to recompute when the pool is full or nothing is computed
// yet. Either way the victim's device blocks free, so the caller's Grow
// retry makes progress. reason labels the preemption event with the
// capacity pass that chose the victim.
func (s *scheduler) preempt(r *reqState, reason PreemptReason) {
	if r.phase == phaseDecoding {
		// The event and the swap-out read its count; resort refreshes
		// nextDue, which r may have set.
		s.clock.leave(r)
		s.clock.resort()
	}
	if s.obs != nil {
		s.event(Event{Kind: EvPreempt, ReqID: r.req.ID, Tokens: r.computedTokens(),
			Policy: s.cfg.PreemptPolicy, Reason: reason})
	}
	s.dropRunning(r)
	if reason == ReasonCrash {
		// The device KV dies with the replica: nothing to park, nothing to
		// swap — the victim recomputes from scratch.
		s.kv.release(&r.kv)
		r.prefilled = 0
		r.prefillTarget = 0
	} else if !s.trySwapOut(r) {
		s.kv.release(&r.kv)
		r.prefilled = 0
		r.prefillTarget = 0
	}
	r.phase = phaseWaiting
	r.preemptions++
	s.rep.Preemptions++
	s.queue.PushFront(r)
}

// trySwapOut parks the victim's computed KV entries in the host swap pool
// when the policy allows and the pool has room. Returns false when the
// preemption should recompute instead.
func (s *scheduler) trySwapOut(r *reqState) bool {
	if s.cfg.PreemptPolicy == PreemptRecompute || s.err != nil {
		return false
	}
	tokens := r.computedTokens()
	if tokens <= 0 {
		return false // nothing computed: recompute is free
	}
	if s.cfg.PreemptPolicy == PreemptAuto && !s.swapCheaper(r, tokens) {
		return false
	}
	if !s.kv.swapOut(&r.kv, r.req.ID, tokens) {
		return false // pool full: fall back to recompute
	}
	r.swapped = true
	r.swappedTokens = tokens
	r.prefilled = 0
	r.prefillTarget = 0
	s.rep.SwapOuts++
	s.round.shape.swapOut += tokens
	if s.obs != nil {
		s.swapEvent(EvSwapOut, r.req.ID, tokens)
	}
	return true
}

// swapCheaper is the auto policy's per-preemption estimate: park-and-
// restore (two transfers of the computed entries at the backend's swap
// bandwidth) against re-prefilling the victim's whole context from
// scratch. Both sides come from the shared memoized coster, so the
// decision is bit-identical across runs and worker counts.
func (s *scheduler) swapCheaper(r *reqState, tokens int) bool {
	swapT, err := s.coster.SwapTime(tokens)
	if err != nil {
		s.fail(err)
		return false
	}
	recT, err := s.coster.ChunkTime(1, r.ctxTokens(), 0)
	if err != nil {
		s.fail(err)
		return false
	}
	return 2*swapT < recT
}

// iterationTime costs one scheduling round with the mechanistic roofline:
// the iteration's prefill chunks (admissions, continuations and
// re-prefills) plus one decode step over the running batch. Chunks are
// costed as one batched chunk step at the mean chunk length and mean
// cached history; KV traffic is linear in totals, so the mean is exact for
// the memory-bound path, approximate for attention-FLOPs skew (same
// approximation the decode batch uses). The decode batch and swap
// transfers are already on s.round.shape; when prefix sharing is on, repeat
// reads of shared blocks are flagged so the roofline's TLB/enclave working
// set counts each shared page once.
func (s *scheduler) iterationTime(chunks []chunkWork) (float64, error) {
	sh := &s.round.shape
	if len(chunks) > 0 {
		sumTok, sumHist := 0, 0
		for _, cw := range chunks {
			sumTok += cw.tokens
			sumHist += cw.hist
		}
		sh.chunkRows = len(chunks)
		sh.chunkTok = (sumTok + len(chunks) - 1) / len(chunks)
		sh.chunkHist = sumHist / len(chunks)
	}
	if sh.batch > 0 && s.cfg.PrefixSharing {
		if sh.batch == len(s.clock.rows) {
			sh.shared = s.sharedTokens()
		} else {
			slots := s.round.slots[:0]
			for _, r := range s.running {
				if r.phase == phaseDecoding && len(slots) < sh.batch {
					slots = append(slots, r.kv.slot)
				}
			}
			s.round.slots = slots
			sh.shared = s.kv.dedupSaved(slots)
		}
	}
	rc, err := priceRound(s.coster, sh)
	if err != nil {
		return 0, err
	}
	// With an observer attached the components are kept for the round
	// event's attribution payload, and with a clear coster the same shape
	// is priced again on the clear-hardware twin. Neither feeds the engine
	// clock, so observed runs stay bit-identical to bare ones.
	if s.obs != nil {
		s.round.cost = rc
		if s.attr != nil {
			if s.attr.round, err = priceRound(s.attr.clear, sh); err != nil {
				return 0, err
			}
		}
	}
	return rc.total, nil
}

// roundShape is what one round costs depend on: a batched prefill-chunk
// step (chunkRows rows of chunkTok new tokens over chunkHist cached ones),
// a decode step over batch rows whose contexts sum to ctxSum with shared
// prefix-deduplicated tokens, and the round's coalesced swap-out and
// swap-in copies.
type roundShape struct {
	chunkRows, chunkTok, chunkHist int
	batch, ctxSum, shared          int
	swapOut, swapIn                int
}

// roundState is the in-flight round's scratch, reused across rounds: the
// iterating flag guarantees at most one round is in flight per scheduler,
// so what iterate builds is stable until finishIteration consumes it.
// chunks is the round's prefill work and shape its costed shape (swap
// transfers within one round coalesce into it, one copy per direction);
// slots is the dedup scratch; produced counts the round's tokens for the
// round event; cost holds the round's raw pre-noise costs (observer runs
// only).
type roundState struct {
	chunks   []chunkWork
	shape    roundShape
	slots    []int32
	produced int
	cost     roundCost
}

// roundCost is a round priced on one coster: its raw (pre-noise) prefill,
// decode and swap components, and their total.
type roundCost struct{ total, prefill, decode, swap float64 }

// priceRound prices sh on c. total adds prefill, decode, swap-out and
// swap-in in that order; swap is the two copies' sum. The decode step is
// priced at the batch's mean context, rounded up: KV traffic is linear in
// total context, so the mean is exact for the memory-bound path. Swap
// copies move at the backend's swap bandwidth (cGPU's encrypted bounce
// buffer, a CPU TEE's near-native memcpy).
func priceRound(c *perf.StepCoster, sh *roundShape) (roundCost, error) {
	var rc roundCost
	if sh.chunkRows > 0 {
		t, err := c.ChunkTime(sh.chunkRows, sh.chunkTok, sh.chunkHist)
		if err != nil {
			return rc, err
		}
		rc.prefill = t
		rc.total += t
	}
	if sh.batch > 0 {
		t, err := c.DecodeTime(sh.batch, (sh.ctxSum+sh.batch-1)/sh.batch, sh.shared)
		if err != nil {
			return rc, err
		}
		rc.decode = t
		rc.total += t
	}
	for _, tok := range [...]int{sh.swapOut, sh.swapIn} {
		if tok > 0 {
			t, err := c.SwapTime(tok)
			if err != nil {
				return rc, err
			}
			rc.swap += t
			rc.total += t
		}
	}
	return rc, nil
}

// finishIteration commits the round's prefill progress and token
// production at its end time. It consumes the scratch slices iterate left
// on the scheduler — at most one round is ever in flight.
func (s *scheduler) finishIteration() {
	if s.faults != nil && s.faults.abortRound {
		// A crash interrupted this round: its KV writes and token
		// production died with the device. The crash already emitted the
		// round boundary; discard the commits and let recovery restart the
		// loop (unless it already completed).
		s.faults.abortRound = false
		s.iterating = false
		if !s.down {
			s.kick()
		}
		return
	}
	now := float64(s.eng.Now())
	s.round.produced = 0
	// Prefill chunks commit their progress; a chunk that completes the
	// prompt produces the request's next token (the first, or — after
	// preemption — the one the recomputed cache enables), and the row joins
	// the decode clock at the flush below. Completed prefix blocks become
	// cache hits for later sharers.
	for _, cw := range s.round.chunks {
		r := cw.r
		if r.phase != phaseRunning { // preempted mid-round (cannot happen, but be safe)
			continue
		}
		if s.obs != nil {
			s.event(Event{Kind: EvPrefillChunk, ReqID: r.req.ID, Tokens: cw.tokens, Hist: cw.hist})
		}
		r.prefilled += cw.tokens
		s.kv.markComputed(r.kv.slot, r.prefilled)
		if !r.prefilling() {
			s.prefilling--
			s.produce(r, now)
			if r.phase == phaseRunning {
				s.clock.join(r)
			}
		}
	}
	// The decode batch: the rows that only count their token are counted
	// once, here; first tokens, finishes and handoffs go through produce.
	n := s.commitDecode(now)
	s.producedTot += n
	s.round.produced += n
	if s.clock.pending > 0 {
		s.clock.flush()
	}
	if s.obs != nil {
		ev := Event{Kind: EvDecodeRound, ReqID: -1, Tokens: s.round.produced, Hist: s.round.shape.batch,
			PrefillSec: s.round.cost.prefill, DecodeSec: s.round.cost.decode, SwapSec: s.round.cost.swap}
		if s.attr != nil {
			ev.ClearPrefillSec, ev.ClearDecodeSec, ev.ClearSwapSec = s.attr.round.prefill, s.attr.round.decode, s.attr.round.swap
		}
		s.event(ev)
		s.obs.Sample(Sample{
			TimeSec:         now,
			Replica:         s.replica,
			QueueDepth:      s.queue.Len(),
			Running:         len(s.running),
			KVBlocksInUse:   s.kv.InUse(),
			KVBlocksCached:  s.kv.CachedBlocks(),
			SwapBlocksInUse: s.kv.SwappedBlocks(),
			TotalTokens:     s.producedTot,
			HitTokens:       s.kv.HitTokens(),
			MissTokens:      s.kv.MissTokens(),
		})
	}
	if s.handoff != nil && len(s.handoff.q) > 0 {
		// Deferred handoff initiations: run them after the round event so
		// attribution's round span closes with the request still a member.
		q := s.handoff.q
		s.handoff.q = s.handoff.q[:0]
		for _, r := range q {
			s.handoff.d.initiate(s, r)
		}
	}
	s.progress()
	s.iterating = false
	s.kick()
}

// produce commits one output token of r at now, stamping its first token,
// and hands a prefill-role replica's request off after that token or
// retires a request that produced its last.
func (s *scheduler) produce(r *reqState, now float64) {
	r.generated++
	s.producedTot++
	s.round.produced++
	if r.firstTokenAt == 0 {
		r.firstTokenAt = now
		if s.obs != nil {
			s.event(Event{Kind: EvFirstToken, ReqID: r.req.ID})
		}
	}
	if s.handoff != nil && r.generated == 1 && r.generated < r.req.OutputLen {
		// Prefill-role replica: the request stops here with its first
		// token delivered. It leaves the batch now (its KV blocks stay
		// held until the source drain completes) and the dispatch layer
		// prices its handoff after this round's events are emitted.
		r.phase = phaseHandoff
		s.dropRunning(r)
		s.handoff.q = append(s.handoff.q, r)
		return
	}
	if r.generated >= r.req.OutputLen {
		s.kv.release(&r.kv)
		r.phase = phaseFinished
		r.finishedAt = now
		var m RequestMetrics
		if s.stream != nil || s.obs != nil {
			m = outcome(r, s.cfg.TTFTSLOSec, s.cfg.TPOTSLOSec)
		}
		if s.stream != nil {
			s.stream.observe(m)
			s.rep.count(m, r.req.Class)
		}
		s.dropRunning(r)
		if s.obs != nil {
			// The report's own verdict: bit-identical to the aggregate's.
			s.event(Event{Kind: EvFinish, ReqID: r.req.ID, Tokens: r.generated, SLOMet: m.SLOMet})
		}
	}
}

// report is the one place a Report is built from scheduler state. It
// starts from a copy of the replica's event ledger (s.rep), adds the KV
// pool readings and the makespan, and folds the outcome ledger: the
// retained states (exact quantiles, or folded into sketches in arrival
// order under QuantileSketch) or, for a streamed lone replica, the live
// sketches whose counts are already in the ledger. Each finished request
// goes through outcome and Report.count, and Report.finish derives the
// rates and quantiles. Call it after the engine has drained (or hit its
// horizon); calling it again rebuilds the same report.
func (s *scheduler) report() *Report {
	s.clock.settle() // rows still decoding at the horizon
	rep := new(Report)
	*rep = s.rep
	rep.OfferedRate = offeredRate(s.cfg)
	rep.MakespanSec = float64(s.eng.Now())
	if s.faults != nil && s.faults.lastProgress < rep.MakespanSec {
		// Crash/recovery events keep the engine ticking long after the
		// last request outcome; throughput is measured to the last progress
		// instant instead.
		rep.MakespanSec = s.faults.lastProgress
	}
	rep.KVBlocksTotal = s.kv.TotalBlocks()
	rep.PeakKVBlocksInUse = s.kv.PeakInUse()
	rep.KVBlocksInUseAtEnd = s.kv.InUse()
	rep.KVBlocksCachedAtEnd = s.kv.CachedBlocks()
	rep.PrefixCacheHitTokens = s.kv.HitTokens()
	rep.PrefixCacheMissTokens = s.kv.MissTokens()
	rep.EvictedBlocks = s.kv.EvictedBlocks()
	rep.SwapPoolBlocks = s.kv.SwapPoolBlocks()
	rep.PeakSwapBlocksInUse = s.kv.PeakSwapBlocks()
	rep.SwapBlocksAtEnd = s.kv.SwappedBlocks()
	if s.cfg.QuantileMode != QuantileSketch {
		// Tokens a retry discarded were still produced — they stay in the
		// throughput total (and match the per-round event sums exactly).
		rep.TotalTokens = s.wastedTokens
		rep.Requests = make([]RequestMetrics, 0, len(s.kept))
		for _, st := range s.kept {
			rep.TotalTokens += st.generated
			switch st.phase {
			case phaseDropped:
				rep.Dropped++
			case phaseFinished:
				m := outcome(st, s.cfg.TTFTSLOSec, s.cfg.TPOTSLOSec)
				rep.Requests = append(rep.Requests, m)
				rep.count(m, st.req.Class)
			default:
				rep.Unfinished++
			}
		}
		rep.finish()
		return rep
	}
	a := s.stream
	if a == nil {
		a = newStreamAccum(s.cfg.SketchAlpha)
		for _, st := range s.kept {
			switch st.phase {
			case phaseFinished:
				m := outcome(st, s.cfg.TTFTSLOSec, s.cfg.TPOTSLOSec)
				a.observe(m)
				rep.count(m, st.req.Class)
			case phaseDropped:
				rep.Dropped++
			}
		}
	}
	a.rotate()
	rep.Unfinished = s.submitted - rep.Completed - rep.Dropped
	rep.TotalTokens = s.producedTot
	rep.Sketched, rep.SketchAlpha = true, a.alpha
	rep.TTFTSketch, rep.TPOTSketch, rep.LatencySketch = a.ttft, a.tpot, a.lat
	rep.finish()
	// Epoch-size-invariant means (see streamAccum): override the sketch
	// accumulators' grouping-dependent sums.
	rep.TTFT.Mean = meanOr(a.ttftSum, a.ttft.Count())
	rep.TPOT.Mean = meanOr(a.tpotSum, a.tpot.Count())
	rep.Latency.Mean = meanOr(a.latSum, a.lat.Count())
	return rep
}

// outcome is a finished request's metrics and SLO verdict — the one place
// they are computed, for the exact report, the sketch ledger and the
// EvFinish event alike. Single-token requests have no decode phase: TPOT
// is undefined for them (left zero), so it cannot fail its SLO.
func outcome(st *reqState, ttftSLO, tpotSLO float64) RequestMetrics {
	m := RequestMetrics{
		ID:           st.req.ID,
		TTFT:         st.firstTokenAt - st.req.ArrivalSec,
		Latency:      st.finishedAt - st.req.ArrivalSec,
		QueueDelay:   st.admittedAt - st.req.ArrivalSec,
		OutputTokens: st.generated,
		Preemptions:  st.preemptions,
	}
	tpotOK := true
	if st.generated > 1 {
		m.TPOT = (st.finishedAt - st.firstTokenAt) / float64(st.generated-1)
		tpotOK = m.TPOT <= tpotSLO
	}
	m.SLOMet = m.TTFT <= ttftSLO && tpotOK
	return m
}

// Run executes one serving simulation: one replica seeded with cfg.Seed
// whose arrivals come from its own noise stream (see driver.go).
func Run(be Backend, cfg Config) (*Report, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	p := newPool(cfg)
	if err := p.Add(0, be, cfg.Seed); err != nil {
		return nil, err
	}
	s := p.reps[0]
	var src *arrivalSource
	var err error
	if cfg.QuantileMode == QuantileSketch {
		// Burn the arrival-synthesis draws out of the noise stream: the
		// exact run draws every arrival from the noise RNG before the first
		// simulated step, so its step-noise samples start that far into
		// the stream. Draining a throwaway source here, then replaying the
		// same draws lazily from a second RNG seeded identically, keeps
		// every event time bit-identical to the exact run while generating
		// arrivals epoch by epoch.
		burn, err := newArrivalSource(cfg, s.noise.RNG())
		if err != nil {
			return nil, err
		}
		for _, ok := burn.gen(); ok; _, ok = burn.gen() {
		}
		if src, err = newArrivalSource(cfg, rand.New(rand.NewSource(cfg.Seed))); err != nil {
			return nil, err
		}
		s.stream = newStreamAccum(cfg.SketchAlpha)
	} else {
		if src, err = materialize(cfg, s.noise.RNG()); err != nil {
			return nil, err
		}
		// The lone replica's ledger is the whole arrival block, in trace
		// order.
		s.kept = make([]*reqState, len(src.block))
		for i := range src.block {
			s.kept[i] = &src.block[i]
		}
	}
	if err := p.drive(src, lone{s}); err != nil {
		return nil, err
	}
	return s.report(), nil
}
