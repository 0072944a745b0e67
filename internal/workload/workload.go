// Package workload generates the traffic scenarios the serving simulator
// consumes: an arrival process (stationary Poisson, bursty MMPP, diurnal
// sinusoid, ramp, or trace replay) crossed with a request-shape mix (chat,
// RAG long-prefill, agentic many-turns). The paper measures one request at
// a time on a quiet machine; real confidential deployments face
// non-stationary load, where the cost of protection includes paying
// TEE-specific cold starts to track the arrival process (internal/autoscale
// builds on these scenarios to quantify that).
//
// Every source is deterministic under a fixed *rand.Rand, so scenario
// sweeps are reproducible and fleet comparisons see identical offered load.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
)

// Request is one generated arrival before the serving layer adopts it:
// arrival time plus the request's shape. PrefixID/PrefixLen follow the
// serving convention — equal nonzero PrefixID means byte-identical content
// over the first PrefixLen prompt tokens.
type Request struct {
	ArrivalSec          float64
	InputLen, OutputLen int
	PrefixID, PrefixLen int
	// Shape names the mix entry this request was drawn from.
	Shape string
}

// TimeStream yields one arrival time per call, non-decreasing from 0.
// Epoch-sharded simulations pull arrivals on demand from it instead of
// materializing the whole horizon.
type TimeStream func() float64

// Arrivals is an arrival process: a source of event times on the simulated
// clock. Implementations must be deterministic given the rng.
type Arrivals interface {
	// Name identifies the process in reports and CLI flags.
	Name() string
	// MeanRate is the long-run arrival rate in requests/s, used by
	// capacity planning and the statistical tests.
	MeanRate() float64
	// Stream returns the process's non-decreasing arrival times, starting
	// from 0, drawn lazily from rng.
	Stream(rng *rand.Rand) TimeStream
}

// drainTimes materializes n values from a stream, so the streamed and
// batch forms of an arrival process can never diverge.
func drainTimes(ts TimeStream, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = ts()
	}
	return out
}

// Poisson is the stationary memoryless process the simulator used before
// scenarios existed: exponential inter-arrivals at a fixed rate.
type Poisson struct {
	Rate float64 // requests/s
}

// Name implements Arrivals.
func (p Poisson) Name() string { return "poisson" }

// MeanRate implements Arrivals.
func (p Poisson) MeanRate() float64 { return p.Rate }

// Stream implements Arrivals.
func (p Poisson) Stream(rng *rand.Rand) TimeStream {
	t := 0.0
	return func() float64 {
		t += rng.ExpFloat64() / p.Rate
		return t
	}
}

// MMPP is a two-state Markov-modulated Poisson process: the arrival rate
// switches between a low and a high state with exponentially distributed
// holding times. It is the standard bursty-traffic model — inter-arrival
// CV exceeds Poisson's 1, and bursts arrive in episodes long enough that a
// reactive autoscaler must actually scale (rather than average them away).
type MMPP struct {
	// LowRate/HighRate are the per-state arrival rates (requests/s).
	LowRate, HighRate float64
	// LowHoldSec/HighHoldSec are the mean state holding times.
	LowHoldSec, HighHoldSec float64
}

// Bursty returns an MMPP calibrated so its long-run mean equals rate while
// bursts run at 4x and lulls at 1/4x, with burst episodes of ~20 s — long
// enough to overwhelm an unscaled fleet, short enough that holding peak
// capacity forever is visibly wasteful.
func Bursty(rate float64) MMPP {
	// mean = (rl·hl + rh·hh) / (hl + hh); with rl = rate/4, rh = 4·rate,
	// hl = 4·hh the mean works out to exactly rate.
	return MMPP{
		LowRate: rate / 4, HighRate: 4 * rate,
		LowHoldSec: 80, HighHoldSec: 20,
	}
}

// Name implements Arrivals.
func (m MMPP) Name() string { return "bursty" }

// MeanRate implements Arrivals.
func (m MMPP) MeanRate() float64 {
	if m.LowHoldSec+m.HighHoldSec <= 0 {
		return 0
	}
	return (m.LowRate*m.LowHoldSec + m.HighRate*m.HighHoldSec) / (m.LowHoldSec + m.HighHoldSec)
}

// Stream implements Arrivals: competing exponentials between the next
// arrival in the current state and the next state switch.
func (m MMPP) Stream(rng *rand.Rand) TimeStream {
	t := 0.0
	high := false // start in the lull so ramp-up dynamics are exercised
	return func() float64 {
		for {
			rate, hold := m.LowRate, m.LowHoldSec
			if high {
				rate, hold = m.HighRate, m.HighHoldSec
			}
			toSwitch := rng.ExpFloat64() * hold
			toArrival := math.Inf(1)
			if rate > 0 {
				toArrival = rng.ExpFloat64() / rate
			}
			if toArrival < toSwitch {
				t += toArrival
				return t
			}
			t += toSwitch
			high = !high
		}
	}
}

// Diurnal modulates a Poisson process with a sinusoid: rate(t) = Mean ×
// (1 + Amplitude·sin(2πt/PeriodSec − π/2)), starting at the trough so a
// simulation always exercises the scale-up edge. Amplitude in [0, 1).
type Diurnal struct {
	Mean      float64
	Amplitude float64
	PeriodSec float64
}

// Name implements Arrivals.
func (d Diurnal) Name() string { return "diurnal" }

// MeanRate implements Arrivals.
func (d Diurnal) MeanRate() float64 { return d.Mean }

// rateAt is the instantaneous rate.
func (d Diurnal) rateAt(t float64) float64 {
	return d.Mean * (1 + d.Amplitude*math.Sin(2*math.Pi*t/d.PeriodSec-math.Pi/2))
}

// peak is the highest instantaneous rate, the thinning envelope.
func (d Diurnal) peak() float64 { return d.Mean * (1 + d.Amplitude) }

// Stream implements Arrivals by thinning: candidates at the peak rate are
// accepted with probability rate(t)/peak.
func (d Diurnal) Stream(rng *rand.Rand) TimeStream {
	peak := d.peak()
	t := 0.0
	return func() float64 {
		for {
			t += rng.ExpFloat64() / peak
			if rng.Float64()*peak <= d.rateAt(t) {
				return t
			}
		}
	}
}

// Ramp grows the rate linearly from StartRate to EndRate over RampSec and
// holds it there — the sudden-popularity scenario autoscalers size for.
type Ramp struct {
	StartRate, EndRate float64
	RampSec            float64
}

// Name implements Arrivals.
func (r Ramp) Name() string { return "ramp" }

// MeanRate implements Arrivals: the post-ramp steady rate, which is what a
// fleet must eventually sustain.
func (r Ramp) MeanRate() float64 { return r.EndRate }

// rateAt is the instantaneous rate.
func (r Ramp) rateAt(t float64) float64 {
	if t >= r.RampSec || r.RampSec <= 0 {
		return r.EndRate
	}
	return r.StartRate + (r.EndRate-r.StartRate)*t/r.RampSec
}

// Stream implements Arrivals by thinning at the larger endpoint rate.
func (r Ramp) Stream(rng *rand.Rand) TimeStream {
	peak := math.Max(r.StartRate, r.EndRate)
	t := 0.0
	return func() float64 {
		for {
			t += rng.ExpFloat64() / peak
			if rng.Float64()*peak <= r.rateAt(t) {
				return t
			}
		}
	}
}

// Replay replays recorded arrival times (e.g. a production trace). When
// more arrivals are requested than the trace holds, it tiles the trace
// end-to-end, preserving its bursts.
type Replay struct {
	// TimesSec are the recorded arrival offsets, non-decreasing from 0.
	TimesSec []float64
}

// Name implements Arrivals.
func (r Replay) Name() string { return "replay" }

// MeanRate implements Arrivals.
func (r Replay) MeanRate() float64 {
	if len(r.TimesSec) < 2 {
		return 0
	}
	span := r.TimesSec[len(r.TimesSec)-1] - r.TimesSec[0]
	if span <= 0 {
		return 0
	}
	return float64(len(r.TimesSec)-1) / span
}

// Stream implements Arrivals, tiling the trace with the mean gap as the
// seam so the wrapped stream keeps the trace's rate. The rng is unused — a
// replay is already a fixed sample path.
func (r Replay) Stream(_ *rand.Rand) TimeStream {
	if len(r.TimesSec) == 0 {
		return func() float64 { return 0 }
	}
	seam := 1.0
	if rate := r.MeanRate(); rate > 0 {
		seam = 1 / rate
	}
	i, base, last := 0, 0.0, 0.0
	return func() float64 {
		if i == len(r.TimesSec) {
			i = 0
			base = last + seam
		}
		last = base + r.TimesSec[i] - r.TimesSec[0]
		i++
		return last
	}
}

// Shape is one request class of a traffic mix.
type Shape struct {
	// Name labels the class in reports (e.g. "chat", "rag", "agentic").
	Name string
	// Weight is the class's share of arrivals (relative; need not sum to 1).
	Weight float64
	// InputLen/OutputLen are the mean prompt and generation lengths.
	InputLen, OutputLen int
	// LengthJitter varies individual lengths uniformly within ±fraction.
	LengthJitter float64
	// PrefixGroups > 0 gives the class shared prompt prefixes: each request
	// draws one of this many prefix identities covering PrefixFrac of the
	// mean prompt (system prompt + document set for RAG, system prompt +
	// tool schemas for agents).
	PrefixGroups int
	PrefixFrac   float64
}

// Mix is a weighted set of request shapes.
type Mix []Shape

// Validate rejects unusable mixes.
func (m Mix) Validate() error {
	if len(m) == 0 {
		return fmt.Errorf("workload: empty shape mix")
	}
	total := 0.0
	for _, s := range m {
		if s.Weight < 0 {
			return fmt.Errorf("workload: shape %q has negative weight %g", s.Name, s.Weight)
		}
		if s.InputLen <= 0 || s.OutputLen <= 0 {
			return fmt.Errorf("workload: shape %q needs positive lengths, got %d/%d", s.Name, s.InputLen, s.OutputLen)
		}
		if s.PrefixGroups > 0 && (s.PrefixFrac <= 0 || s.PrefixFrac >= 1) {
			return fmt.Errorf("workload: shape %q prefix fraction %g outside (0, 1)", s.Name, s.PrefixFrac)
		}
		total += s.Weight
	}
	if total <= 0 {
		return fmt.Errorf("workload: mix weights sum to %g", total)
	}
	return nil
}

// MeanInputLen is the weighted mean prompt length of the mix.
func (m Mix) MeanInputLen() int { return m.meanLen(func(s Shape) int { return s.InputLen }) }

// MeanOutputLen is the weighted mean generation length of the mix.
func (m Mix) MeanOutputLen() int { return m.meanLen(func(s Shape) int { return s.OutputLen }) }

func (m Mix) meanLen(f func(Shape) int) int {
	sum, w := 0.0, 0.0
	for _, s := range m {
		sum += s.Weight * float64(f(s))
		w += s.Weight
	}
	if w <= 0 {
		return 0
	}
	return int(math.Round(sum / w))
}

// ChatMix is interactive chat traffic: short-to-medium prompts, moderate
// generations, a shared system prompt across a few personas.
func ChatMix() Mix {
	return Mix{
		{Name: "chat-short", Weight: 0.7, InputLen: 256, OutputLen: 128, LengthJitter: 0.3,
			PrefixGroups: 2, PrefixFrac: 0.25},
		{Name: "chat-long", Weight: 0.3, InputLen: 768, OutputLen: 224, LengthJitter: 0.3,
			PrefixGroups: 2, PrefixFrac: 0.25},
	}
}

// RAGMix is retrieval-augmented traffic: long document-stuffed prompts
// dominated by a shared prefix (system prompt + document set), short
// answers — prefill-heavy, prefix-cache friendly.
func RAGMix() Mix {
	return Mix{
		{Name: "rag", Weight: 1, InputLen: 1536, OutputLen: 160, LengthJitter: 0.2,
			PrefixGroups: 4, PrefixFrac: 0.75},
	}
}

// AgenticMix is multi-turn agent traffic: the accumulated tool-call history
// re-enters as a long prompt each turn (shared tool schemas as prefix) and
// generations are short tool invocations — decode-light, KV-heavy.
func AgenticMix() Mix {
	return Mix{
		{Name: "agent-turn", Weight: 0.8, InputLen: 1152, OutputLen: 64, LengthJitter: 0.35,
			PrefixGroups: 3, PrefixFrac: 0.4},
		{Name: "agent-final", Weight: 0.2, InputLen: 1536, OutputLen: 256, LengthJitter: 0.2,
			PrefixGroups: 3, PrefixFrac: 0.3},
	}
}

// Scenario is an arrival process crossed with a shape mix: everything a
// serving experiment needs to synthesize offered load.
type Scenario struct {
	Arrivals Arrivals
	Mix      Mix
}

// Name identifies the scenario by its arrival process (mixes carry no
// identity of their own — label the mix separately when it matters).
func (s Scenario) Name() string {
	if s.Arrivals == nil {
		return "?"
	}
	return s.Arrivals.Name()
}

// Validate rejects unusable scenarios.
func (s Scenario) Validate() error {
	if s.Arrivals == nil {
		return fmt.Errorf("workload: scenario needs an arrival process")
	}
	if r := s.Arrivals.MeanRate(); !(r > 0) || math.IsInf(r, 1) {
		return fmt.Errorf("workload: scenario %q mean rate %g is not positive and finite", s.Arrivals.Name(), r)
	}
	// Thinning draws candidates at the peak rate; an infinite peak never
	// advances the clock, so the stream would never return.
	if d, ok := s.Arrivals.(Diurnal); ok && math.IsInf(d.peak(), 0) {
		return fmt.Errorf("workload: scenario %q peak rate %g is not finite", d.Name(), d.peak())
	}
	return s.Mix.Validate()
}

// Generate draws n requests: arrival times from the process, shapes from
// the mix, deterministic under the rng. Prefix identities are disjoint
// across shapes (shape index partitions the ID space).
//
// Generate makes two passes over the rng — all n times first, then n
// shapes. The streaming Generator interleaves the two draws per request;
// both are valid deterministic sample paths of the same scenario, but
// they are not the same path, so callers comparing runs bit-for-bit must
// compare like with like.
func (s Scenario) Generate(n int, rng *rand.Rand) ([]Request, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	times := drainTimes(s.Arrivals.Stream(rng), n)
	totalW := s.Mix.totalWeight()
	out := make([]Request, n)
	for i, t := range times {
		out[i] = s.shapeRequest(t, rng, totalW)
	}
	return out, nil
}

// totalWeight sums the mix weights (already validated positive).
func (m Mix) totalWeight() float64 {
	w := 0.0
	for _, sh := range m {
		w += sh.Weight
	}
	return w
}

// shapeRequest draws one request's shape for an arrival at t. The rng
// draw order per request (shape pick, length jitters, prefix identity) is
// shared by Generate and Generator.Next.
func (s Scenario) shapeRequest(t float64, rng *rand.Rand, totalW float64) Request {
	sh, si := s.pick(rng, totalW)
	r := Request{ArrivalSec: t, Shape: sh.Name}
	jitter := func(mean int) int {
		if sh.LengthJitter <= 0 || mean <= 0 {
			return mean
		}
		f := 1 + sh.LengthJitter*(2*rng.Float64()-1)
		if v := int(math.Round(float64(mean) * f)); v >= 1 {
			return v
		}
		return 1
	}
	if sh.PrefixGroups > 0 {
		prefixLen := int(math.Round(sh.PrefixFrac * float64(sh.InputLen)))
		if prefixLen >= sh.InputLen {
			prefixLen = sh.InputLen - 1
		}
		// The shared prefix has one fixed length per shape; only the
		// request-specific suffix jitters.
		suffix := jitter(sh.InputLen - prefixLen)
		if suffix < 1 {
			suffix = 1
		}
		r.PrefixID = si*prefixIDStride + rng.Intn(sh.PrefixGroups) + 1
		r.PrefixLen = prefixLen
		r.InputLen = prefixLen + suffix
	} else {
		r.InputLen = jitter(sh.InputLen)
	}
	r.OutputLen = jitter(sh.OutputLen)
	if r.OutputLen < 2 {
		r.OutputLen = 2 // keep TPOT defined
	}
	return r
}

// Generator streams a scenario's requests one at a time, in arrival
// order, without materializing the horizon. Memory is O(1) in the number
// of requests — the bounded-memory serving runs pull their offered load
// from here. See Generate for how the two rng draw orders relate.
type Generator struct {
	s      Scenario
	ts     TimeStream
	rng    *rand.Rand
	totalW float64
}

// Stream validates the scenario and returns its streaming generator.
func (s Scenario) Stream(rng *rand.Rand) (*Generator, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &Generator{s: s, ts: s.Arrivals.Stream(rng), rng: rng, totalW: s.Mix.totalWeight()}, nil
}

// Next draws the next request.
func (g *Generator) Next() Request {
	return g.s.shapeRequest(g.ts(), g.rng, g.totalW)
}

// prefixIDStride partitions prefix identities by shape so two shapes can
// never alias a shared prefix.
const prefixIDStride = 1 << 16

// pick draws one shape by weight.
func (s Scenario) pick(rng *rand.Rand, totalW float64) (Shape, int) {
	x := rng.Float64() * totalW
	for i, sh := range s.Mix {
		x -= sh.Weight
		if x < 0 {
			return sh, i
		}
	}
	return s.Mix[len(s.Mix)-1], len(s.Mix) - 1
}

// scenarioNames lists the CLI-recognized arrival and mix names.
var arrivalNames = []string{"poisson", "bursty", "diurnal", "ramp"}
var mixNames = []string{"chat", "rag", "agentic"}

// ParseScenario resolves a CLI scenario name at the given mean rate.
// Accepted forms: an arrival process ("poisson", "bursty", "diurnal",
// "ramp") with the chat mix, a mix name ("chat", "rag", "agentic") with
// Poisson arrivals, or "arrivals+mix" (e.g. "diurnal+rag"). The result
// passes Validate, so a rate that is not positive and finite, or that
// overflows the arrival process, is rejected.
func ParseScenario(name string, rate float64) (Scenario, error) {
	arrival, mixName := "poisson", "chat"
	parts := strings.Split(strings.ToLower(strings.TrimSpace(name)), "+")
	switch len(parts) {
	case 1:
		switch {
		case slices.Contains(arrivalNames, parts[0]) || parts[0] == "mmpp":
			arrival = parts[0]
		case slices.Contains(mixNames, parts[0]):
			mixName = parts[0]
		case parts[0] == "":
			// defaults
		default:
			return Scenario{}, fmt.Errorf("workload: unknown scenario %q (arrivals: %s; mixes: %s; or arrivals+mix)",
				name, strings.Join(arrivalNames, "|"), strings.Join(mixNames, "|"))
		}
	case 2:
		arrival, mixName = parts[0], parts[1]
	default:
		return Scenario{}, fmt.Errorf("workload: scenario %q has more than one '+'", name)
	}

	var arr Arrivals
	switch arrival {
	case "poisson":
		arr = Poisson{Rate: rate}
	case "bursty", "mmpp":
		arr = Bursty(rate)
	case "diurnal":
		// One compressed "day" of 600 s: sweeps finish in simulated minutes
		// while the trough-to-peak swing still spans the 1±0.8 band.
		arr = Diurnal{Mean: rate, Amplitude: 0.8, PeriodSec: 600}
	case "ramp":
		arr = Ramp{StartRate: rate / 4, EndRate: rate, RampSec: 300}
	default:
		return Scenario{}, fmt.Errorf("workload: unknown arrival process %q (%s)", arrival, strings.Join(arrivalNames, "|"))
	}
	var mix Mix
	switch mixName {
	case "chat":
		mix = ChatMix()
	case "rag":
		mix = RAGMix()
	case "agentic":
		mix = AgenticMix()
	default:
		return Scenario{}, fmt.Errorf("workload: unknown mix %q (%s)", mixName, strings.Join(mixNames, "|"))
	}
	sc := Scenario{Arrivals: arr, Mix: mix}
	if err := sc.Validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}
