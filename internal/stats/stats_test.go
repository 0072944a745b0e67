package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %g, want 5", m)
	}
	if sd := StdDev(xs); sd != 2 {
		t.Errorf("StdDev = %g, want 2", sd)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Error("empty-slice moments not zero")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {-5, 1}, {105, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{1, 2}, 50); got != 1.5 {
		t.Errorf("interpolated median = %g, want 1.5", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Error("Percentile(nil) != 0")
	}
}

func TestPercentileSortedInvariant(t *testing.T) {
	if err := quick.Check(func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		p10 := Percentile(clean, 10)
		p90 := Percentile(clean, 90)
		return p10 <= p90
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestFilterZScore(t *testing.T) {
	xs := []float64{10, 10.1, 9.9, 10.05, 9.95, 10, 10.1, 9.9, 10, 10, 1000}
	kept, removed := FilterZScore(xs, 3)
	if removed != 1 {
		t.Fatalf("removed = %d, want 1", removed)
	}
	if len(kept) != len(xs)-1 {
		t.Fatalf("kept %d", len(kept))
	}
	for _, k := range kept {
		if k == 1000 {
			t.Fatal("outlier survived")
		}
	}
	// Small or constant slices pass through untouched.
	if kept, removed := FilterZScore([]float64{5, 5}, 3); removed != 0 || len(kept) != 2 {
		t.Error("small slice filtered")
	}
	if _, removed := FilterZScore([]float64{3, 3, 3, 3}, 3); removed != 0 {
		t.Error("constant slice filtered")
	}
}

// summary is a violin-plot style five-number summary plus moments.
type summary struct {
	N                  int
	Mean, Std          float64
	Min, P25, P50, P75 float64
	Max                float64
}

// summarize computes a summary of the samples.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return summary{
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
func (s summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g±%.2g [%.4g %.4g %.4g %.4g %.4g]",
		s.N, s.Mean, s.Std, s.Min, s.P25, s.P50, s.P75, s.Max)
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Errorf("bad summary: %+v", s)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
	if z := summarize(nil); z.N != 0 {
		t.Error("summarize(nil) not zero")
	}
}

func TestOverheadConventions(t *testing.T) {
	// Latency: higher is worse, positive overhead.
	if got := OverheadPct(100, 110); got != 10 {
		t.Errorf("OverheadPct = %g, want 10", got)
	}
	// Throughput: lower is worse, positive overhead.
	if got := ThroughputOverheadPct(100, 90); got != 10 {
		t.Errorf("ThroughputOverheadPct = %g, want 10", got)
	}
	if OverheadPct(0, 5) != 0 || ThroughputOverheadPct(0, 5) != 0 {
		t.Error("zero-base overheads not guarded")
	}
}

func TestLinearFit(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 2x + 1
	slope, intercept, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(slope-2) > 1e-9 || math.Abs(intercept-1) > 1e-9 {
		t.Errorf("fit = %g x + %g, want 2x+1", slope, intercept)
	}
	if _, _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Error("LinearFit with one point succeeded")
	}
	if _, _, err := LinearFit([]float64{2, 2}, []float64{1, 5}); err == nil {
		t.Error("LinearFit with constant x succeeded")
	}
}

func TestFilterZScoreProperty(t *testing.T) {
	// Filtering never increases the spread.
	if err := quick.Check(func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		kept, removed := FilterZScore(clean, 3)
		if removed == 0 {
			return true
		}
		return StdDev(kept) <= StdDev(clean)
	}, nil); err != nil {
		t.Error(err)
	}
}

// sortedPercentiles is the reference SelectPercentiles is held to: sort a
// copy, then interpolate each percentile with PercentileSorted.
func sortedPercentiles(xs, ps []float64) []float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = PercentileSorted(sorted, p)
	}
	return out
}

// samePercentile reports whether a selected percentile matches the sorted
// one bit for bit. Two zeros of either sign, and two NaNs, also match:
// sort.Float64s orders -0 and +0 (and NaNs) as ties, so which of them a
// rank lands on is not defined by the sort either.
func samePercentile(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a == 0 && b == 0) || (a != a && b != b)
}

// checkSelected compares SelectPercentiles with the sort-based reference
// on xs, and checks that it leaves xs a permutation of its input.
func checkSelected(t *testing.T, xs, ps []float64) {
	t.Helper()
	want := sortedPercentiles(xs, ps)
	work := append([]float64(nil), xs...)
	got := make([]float64, len(ps))
	SelectPercentiles(work, ps, got)
	show := fmt.Sprint(xs)
	if len(xs) > 20 {
		show = fmt.Sprintf("%d samples from %v", len(xs), xs[:20])
	}
	for i := range ps {
		if !samePercentile(got[i], want[i]) {
			t.Fatalf("p%g of %s: selected %v, sorted %v", ps[i], show, got[i], want[i])
		}
	}
	a, b := append([]float64(nil), xs...), work
	sort.Float64s(a)
	sort.Float64s(b)
	for i := range a {
		if !samePercentile(a[i], b[i]) {
			t.Fatalf("selection of %s left a different multiset", show)
		}
	}
	if len(ps) == 1 {
		if p := Percentile(xs, ps[0]); !samePercentile(p, want[0]) {
			t.Fatalf("Percentile(%s, %g) = %v, sorted %v", show, ps[0], p, want[0])
		}
	}
}

// TestSelectPercentilesMatchesSort holds the selection to the sort-based
// path on small and tied inputs, all-equal runs, NaNs and infinities, and
// random slices long enough to exercise the partitioning, under the
// report's percentile set, the extremes, and single percentiles.
func TestSelectPercentilesMatchesSort(t *testing.T) {
	pss := [][]float64{
		{50, 95, 99},
		{0, 25, 50, 75, 100},
		{-5, 0.1, 33.3, 99.9, 105},
		{50}, {95}, {99}, {0}, {100},
	}
	inputs := [][]float64{
		{},
		{7},
		{2, 1},
		{1, 1},
		{3, 1, 2},
		{2, 2, 1},
		{5, 5, 5},
		{1, 2, 2, 2, 3, 3, 1, 1, 2},
		{math.Inf(1), 1, math.Inf(-1), 0, math.NaN(), 2, math.NaN()},
	}
	for n := 1; n <= 3; n++ {
		for v := 0; v < 27; v++ {
			xs := make([]float64, n)
			for i, w := 0, v; i < n; i, w = i+1, w/3 {
				xs[i] = float64(w % 3)
			}
			inputs = append(inputs, xs)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{13, 100, 1000, 20000} {
		spread := make([]float64, n)
		few := make([]float64, n)
		equal := make([]float64, n)
		asc := make([]float64, n)
		for i := range spread {
			spread[i] = rng.ExpFloat64()
			few[i] = float64(rng.Intn(4))
			equal[i] = 0.25
			asc[i] = float64(i)
		}
		desc := make([]float64, n)
		for i := range desc {
			desc[i] = float64(n - i)
		}
		inputs = append(inputs, spread, few, equal, asc, desc)
	}
	for _, xs := range inputs {
		for _, ps := range pss {
			checkSelected(t, xs, ps)
		}
	}
}
