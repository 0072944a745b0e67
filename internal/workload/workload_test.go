package workload

import (
	"math"
	"math/rand"
	"testing"
)

// interArrivals returns the gaps of a time series.
func interArrivals(times []float64) []float64 {
	out := make([]float64, 0, len(times)-1)
	prev := 0.0
	for _, t := range times {
		out = append(out, t-prev)
		prev = t
	}
	return out
}

// cv is the coefficient of variation (stddev/mean) of a sample.
func cv(xs []float64) float64 {
	mean, n := 0.0, float64(len(xs))
	for _, x := range xs {
		mean += x
	}
	mean /= n
	varsum := 0.0
	for _, x := range xs {
		varsum += (x - mean) * (x - mean)
	}
	return math.Sqrt(varsum/n) / mean
}

// measuredRate is arrivals per second over the generated span.
func measuredRate(times []float64) float64 {
	return float64(len(times)) / times[len(times)-1]
}

func TestSourcesHitConfiguredMeanRate(t *testing.T) {
	const n = 20000
	cases := []struct {
		src   Arrivals
		seeds int     // sample paths averaged (MMPP mixes slowly)
		tol   float64 // relative tolerance on the averaged measured rate
	}{
		{Poisson{Rate: 5}, 1, 0.05},
		{Bursty(5), 8, 0.10},
		{Diurnal{Mean: 5, Amplitude: 0.8, PeriodSec: 120}, 1, 0.05},
	}
	for _, c := range cases {
		got := 0.0
		for seed := 0; seed < c.seeds; seed++ {
			times := drainTimes(c.src.Stream(rand.New(rand.NewSource(int64(7+seed)))), n)
			if len(times) != n {
				t.Fatalf("%s: got %d times, want %d", c.src.Name(), len(times), n)
			}
			for i := 1; i < n; i++ {
				if times[i] < times[i-1] {
					t.Fatalf("%s: times not non-decreasing at %d", c.src.Name(), i)
				}
			}
			got += measuredRate(times)
		}
		got /= float64(c.seeds)
		want := c.src.MeanRate()
		if rel := math.Abs(got-want) / want; rel > c.tol {
			t.Errorf("%s: measured rate %.3f vs configured %.3f (rel err %.3f > %.3f)",
				c.src.Name(), got, want, rel, c.tol)
		}
	}
}

func TestBurstinessExceedsPoisson(t *testing.T) {
	const n = 20000
	rng := func() *rand.Rand { return rand.New(rand.NewSource(11)) }
	poissonCV := cv(interArrivals(drainTimes(Poisson{Rate: 5}.Stream(rng()), n)))
	if poissonCV < 0.9 || poissonCV > 1.1 {
		t.Fatalf("Poisson inter-arrival CV %.3f, want ~1", poissonCV)
	}
	mmppCV := cv(interArrivals(drainTimes(Bursty(5).Stream(rng()), n)))
	if mmppCV <= poissonCV*1.2 {
		t.Errorf("MMPP inter-arrival CV %.3f does not exceed Poisson's %.3f — burstiness failed to materialize", mmppCV, poissonCV)
	}
	diurnalCV := cv(interArrivals(drainTimes(Diurnal{Mean: 5, Amplitude: 0.8, PeriodSec: 60}.Stream(rng()), n)))
	if diurnalCV <= poissonCV*1.05 {
		t.Errorf("diurnal inter-arrival CV %.3f does not exceed Poisson's %.3f", diurnalCV, poissonCV)
	}
}

func TestRampRateGrows(t *testing.T) {
	r := Ramp{StartRate: 2, EndRate: 10, RampSec: 100}
	times := drainTimes(r.Stream(rand.New(rand.NewSource(3))), 4000)
	// Count arrivals in the first and last quarter of the ramp window.
	early, late := 0, 0
	for _, ts := range times {
		switch {
		case ts < 25:
			early++
		case ts >= 75 && ts < 100:
			late++
		}
	}
	if late <= 2*early {
		t.Errorf("ramp arrivals did not accelerate: %d early vs %d late", early, late)
	}
	if r.MeanRate() != 10 {
		t.Errorf("ramp MeanRate = %g, want the post-ramp rate 10", r.MeanRate())
	}
}

func TestReplayTilesTrace(t *testing.T) {
	rp := Replay{TimesSec: []float64{0, 1, 2, 3}}
	times := drainTimes(rp.Stream(nil), 10)
	if len(times) != 10 {
		t.Fatalf("replay returned %d times", len(times))
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("replay times decrease at %d: %v", i, times)
		}
	}
	if got := rp.MeanRate(); math.Abs(got-1) > 1e-9 {
		t.Errorf("replay mean rate %g, want 1", got)
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	sc, err := ParseScenario("diurnal+rag", 4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sc.Generate(500, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.Generate(500, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("generation not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c, _ := sc.Generate(500, rand.New(rand.NewSource(43)))
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestGenerateShapes(t *testing.T) {
	sc, err := ParseScenario("bursty+agentic", 6)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := sc.Generate(2000, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, r := range reqs {
		seen[r.Shape]++
		if r.InputLen <= 0 || r.OutputLen < 2 {
			t.Fatalf("bad lengths: %+v", r)
		}
		if r.PrefixLen >= r.InputLen {
			t.Fatalf("prefix covers whole prompt: %+v", r)
		}
		if (r.PrefixID == 0) != (r.PrefixLen == 0) {
			t.Fatalf("prefix ID/len disagree: %+v", r)
		}
	}
	// The 0.8/0.2 mix split should materialize roughly.
	if seen["agent-turn"] < 3*seen["agent-final"]/2 {
		t.Errorf("mix weights ignored: %v", seen)
	}
	// Prefix identities from different shapes must not collide.
	turnIDs, finalIDs := map[int]bool{}, map[int]bool{}
	for _, r := range reqs {
		if r.Shape == "agent-turn" {
			turnIDs[r.PrefixID] = true
		} else {
			finalIDs[r.PrefixID] = true
		}
	}
	for id := range turnIDs {
		if finalIDs[id] {
			t.Fatalf("prefix ID %d shared across shapes", id)
		}
	}
}

func TestParseScenario(t *testing.T) {
	for _, name := range []string{"poisson", "bursty", "mmpp", "diurnal", "ramp", "chat", "rag", "agentic", "diurnal+rag", "ramp+agentic", ""} {
		sc, err := ParseScenario(name, 3)
		if err != nil {
			t.Errorf("ParseScenario(%q): %v", name, err)
			continue
		}
		if err := sc.Validate(); err != nil {
			t.Errorf("ParseScenario(%q) invalid: %v", name, err)
		}
	}
	for _, c := range []struct {
		name string
		rate float64
	}{
		{"nope", 3},
		{"diurnal+nope", 3},
		{"a+b+c", 3},
		{"poisson", 0},
		// The mean is finite but the thinning peak Mean·(1+Amplitude) is not.
		{"diurnal", 1.5e308},
	} {
		if _, err := ParseScenario(c.name, c.rate); err == nil {
			t.Errorf("ParseScenario(%q, %g) accepted", c.name, c.rate)
		}
	}
}

func TestMixValidateAndMeans(t *testing.T) {
	if err := (Mix{}).Validate(); err == nil {
		t.Error("empty mix accepted")
	}
	if err := (Mix{{Name: "x", Weight: -1, InputLen: 10, OutputLen: 10}}).Validate(); err == nil {
		t.Error("negative weight accepted")
	}
	if err := (Mix{{Name: "x", Weight: 1, InputLen: 10, OutputLen: 10, PrefixGroups: 2, PrefixFrac: 1.5}}).Validate(); err == nil {
		t.Error("prefix fraction > 1 accepted")
	}
	m := Mix{
		{Name: "a", Weight: 1, InputLen: 100, OutputLen: 10},
		{Name: "b", Weight: 3, InputLen: 500, OutputLen: 50},
	}
	if got := m.MeanInputLen(); got != 400 {
		t.Errorf("MeanInputLen = %d, want 400", got)
	}
	if got := m.MeanOutputLen(); got != 40 {
		t.Errorf("MeanOutputLen = %d, want 40", got)
	}
}
