// Package stats provides the summary statistics used throughout the
// benchmark harness: mean/stddev/percentiles, the Z-score outlier filter the
// paper applies to per-token latency samples (§III-D, Z > 3), violin-style
// five-number summaries, and simple linear fits for trend checks.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// Percentile returns the p-th percentile (0..100) using linear
// interpolation between closest ranks. It selects from a copy of xs.
func Percentile(xs []float64, p float64) float64 {
	var out [1]float64
	SelectPercentiles(append([]float64(nil), xs...), []float64{p}, out[:])
	return out[0]
}

// SelectPercentiles sets out[i] to the ps[i]-th percentile of xs, exactly
// as PercentileSorted computes it over xs sorted by sort.Float64s, without
// sorting: it selects only the order statistics the interpolations read,
// at most two per percentile, in ascending rank order, so each selection
// searches only the values above the last. ps must ascend. It reorders xs
// in place and does not allocate.
func SelectPercentiles(xs, ps, out []float64) {
	n := len(xs)
	from := 0 // xs[from:] holds the values above every rank selected so far
	get := func(k int) float64 {
		if k >= from {
			selectRank(xs[from:], k-from)
			from = k + 1
		}
		return xs[k]
	}
	for i, p := range ps {
		switch {
		case n == 0:
			out[i] = 0
		case p <= 0:
			out[i] = get(0)
		case p >= 100:
			out[i] = get(n - 1)
		default:
			rank := p / 100 * float64(n-1)
			lo := int(math.Floor(rank))
			hi := int(math.Ceil(rank))
			if lo == hi {
				out[i] = get(lo)
				continue
			}
			frac := rank - float64(lo)
			out[i] = get(lo)*(1-frac) + get(hi)*frac
		}
	}
}

// lessFloat is sort.Float64s's order: ascending, NaNs first.
func lessFloat(a, b float64) bool { return a < b || (a != a && b == b) }

// selectRank reorders xs so that xs[k] holds the value sort.Float64s would
// put there, with no value before it ordering after it and none after it
// ordering before. It is a quickselect with median-of-three pivots and a
// three-way partition, so runs of equal values cost one pass; should the
// pivots keep splitting badly, it sorts the remaining window instead.
func selectRank(xs []float64, k int) {
	lo, hi := 0, len(xs)
	for budget := 2*bits.Len(uint(len(xs))) + 4; hi-lo > 12; budget-- {
		if budget == 0 {
			sort.Float64s(xs[lo:hi])
			return
		}
		a, b, c := xs[lo], xs[lo+(hi-lo)/2], xs[hi-1]
		if lessFloat(b, a) {
			a, b = b, a
		}
		if lessFloat(c, b) {
			b = c
			if lessFloat(b, a) {
				b = a
			}
		}
		// Three-way partition around pivot b: [lo,lt) before it, [lt,i)
		// equal to it, (gt,hi) after it.
		lt, i, gt := lo, lo, hi-1
		for i <= gt {
			switch x := xs[i]; {
			case lessFloat(x, b):
				xs[lt], xs[i] = x, xs[lt]
				lt++
				i++
			case lessFloat(b, x):
				xs[gt], xs[i] = x, xs[gt]
				gt--
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k > gt:
			lo = gt + 1
		default:
			return // xs[k] is in the pivot's run
		}
	}
	for i := lo + 1; i < hi; i++ { // insertion sort of the last window
		for j := i; j > lo && lessFloat(xs[j], xs[j-1]); j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// PercentileSorted is Percentile over samples already sorted ascending;
// it neither copies nor allocates.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// FilterZScore removes samples with |x-mean|/stddev > z, replicating the
// paper's outlier exclusion (Z-score > 3, ≈0.64% of samples under TEEs).
// It returns the kept samples and the number removed.
func FilterZScore(xs []float64, z float64) (kept []float64, removed int) {
	if len(xs) < 3 {
		return append([]float64(nil), xs...), 0
	}
	m, sd := Mean(xs), StdDev(xs)
	if sd == 0 {
		return append([]float64(nil), xs...), 0
	}
	kept = make([]float64, 0, len(xs))
	for _, x := range xs {
		if math.Abs(x-m)/sd > z {
			removed++
			continue
		}
		kept = append(kept, x)
	}
	return kept, removed
}

// Summary is a violin-plot style five-number summary plus moments.
type Summary struct {
	N                  int
	Mean, Std          float64
	Min, P25, P50, P75 float64
	Max                float64
}

// Summarize computes a Summary of the samples.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Summary{
		N:    len(xs),
		Mean: Mean(xs),
		Std:  StdDev(xs),
		Min:  sorted[0],
		P25:  PercentileSorted(sorted, 25),
		P50:  PercentileSorted(sorted, 50),
		P75:  PercentileSorted(sorted, 75),
		Max:  sorted[len(sorted)-1],
	}
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g±%.2g [%.4g %.4g %.4g %.4g %.4g]",
		s.N, s.Mean, s.Std, s.Min, s.P25, s.P50, s.P75, s.Max)
}

// OverheadPct returns (x-base)/base in percent; the sign convention matches
// the paper (positive = slower / lower throughput than baseline).
func OverheadPct(base, x float64) float64 {
	if base == 0 {
		return 0
	}
	return (x - base) / base * 100
}

// ThroughputOverheadPct returns the throughput *reduction* in percent:
// positive when x is slower (fewer tokens/s) than base.
func ThroughputOverheadPct(base, x float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - x) / base * 100
}

// LinearFit returns slope and intercept of the least-squares line y = a*x+b.
func LinearFit(xs, ys []float64) (slope, intercept float64, err error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, 0, fmt.Errorf("stats: LinearFit needs >=2 paired points, got %d/%d", len(xs), len(ys))
	}
	mx, my := Mean(xs), Mean(ys)
	var num, den float64
	for i := range xs {
		num += (xs[i] - mx) * (ys[i] - my)
		den += (xs[i] - mx) * (xs[i] - mx)
	}
	if den == 0 {
		return 0, 0, fmt.Errorf("stats: LinearFit with constant x")
	}
	slope = num / den
	return slope, my - slope*mx, nil
}
