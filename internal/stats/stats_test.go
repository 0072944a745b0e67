package stats

import (
	"math"
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

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Errorf("bad summary: %+v", s)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
	if z := Summarize(nil); z.N != 0 {
		t.Error("Summarize(nil) not zero")
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
