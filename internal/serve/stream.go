package serve

import (
	"cllm/internal/stats"
)

// streamAccum is the sketch-mode latency ledger: completed requests fold
// into the current epoch's sketches, and rotate() merges each finished
// epoch into the cumulative summaries — the sketch merge path is thereby
// exercised by every sketched run, not just fleet aggregation. A lone
// sketch-mode replica feeds it live as requests finish (so the run retains
// no per-request state); routed replicas fold their retained states into
// one at report time, in arrival order.
type streamAccum struct {
	alpha float64
	// Current-epoch sketches, merged into the cumulative ones at each
	// epoch boundary and reset in place.
	epochTTFT, epochTPOT, epochLat *stats.Sketch
	ttft, tpot, lat                *stats.Sketch
	// Float sums accumulated in completion order, independent of epoch
	// boundaries: the report's Mean fields come from these so results are
	// invariant to the epoch size (per-epoch sketch sums would regroup
	// float additions when the epoch size changes).
	ttftSum, tpotSum, latSum float64
}

func newStreamAccum(alpha float64) *streamAccum {
	mk := func() *stats.Sketch {
		sk, err := stats.NewSketch(alpha)
		if err != nil {
			// alpha was validated by Config.normalize; an error here is a
			// programming bug, not a runtime condition.
			panic(err)
		}
		return sk
	}
	return &streamAccum{
		alpha:     alpha,
		epochTTFT: mk(), epochTPOT: mk(), epochLat: mk(),
		ttft: mk(), tpot: mk(), lat: mk(),
	}
}

// observe folds one finished request's latencies into the current epoch;
// its counts go to the Report ledger (see Report.count).
func (a *streamAccum) observe(m RequestMetrics) {
	// Simulated times are finite by construction, so Add cannot fail.
	_ = a.epochTTFT.Add(m.TTFT)
	_ = a.epochLat.Add(m.Latency)
	a.ttftSum += m.TTFT
	a.latSum += m.Latency
	// Single-token requests have no decode phase, so no TPOT sample.
	if m.OutputTokens > 1 {
		_ = a.epochTPOT.Add(m.TPOT)
		a.tpotSum += m.TPOT
	}
}

// rotate merges the finished epoch's sketches into the cumulative ones
// and resets them for the next epoch. Bucket counts are integers, so the
// cumulative quantiles are bit-identical whatever the epoch size.
func (a *streamAccum) rotate() {
	for _, p := range [...][2]*stats.Sketch{
		{a.ttft, a.epochTTFT}, {a.tpot, a.epochTPOT}, {a.lat, a.epochLat},
	} {
		if p[1].Count() == 0 {
			continue
		}
		if err := p[0].Merge(p[1]); err != nil {
			panic(err) // same alpha by construction
		}
		p[1].Reset()
	}
}

// meanOr returns sum/count as the sketch-mode Mean (0 on empty).
func meanOr(sum float64, count int64) float64 {
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}
