package workload

import (
	"math"
	"testing"
)

// FuzzParseScenario: every scenario ParseScenario accepts passes Validate
// and has a finite positive mean rate, whatever the name and rate. The
// seed corpus holds every arrival and mix name, their combinations' edge
// spellings and out-of-range rates; testdata/fuzz adds the regressions the
// fuzzer found.
func FuzzParseScenario(f *testing.F) {
	for _, name := range []string{
		"poisson", "bursty", "mmpp", "diurnal", "ramp", "chat", "rag", "agentic", "diurnal+rag", "bursty+agentic",
		" Ramp+Chat ", "", "+", "tsunami", "poisson+", "a+b+c", "rag+poisson",
	} {
		f.Add(name, 3.0)
	}
	for _, rate := range []float64{0, -1, 1e-300, 1e300} {
		f.Add("bursty", rate)
	}
	f.Fuzz(func(t *testing.T, name string, rate float64) {
		sc, err := ParseScenario(name, rate)
		if err != nil {
			return
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("ParseScenario(%q, %g) accepted an invalid scenario: %v", name, rate, err)
		}
		if r := sc.Arrivals.MeanRate(); !(r > 0) || math.IsInf(r, 1) {
			t.Fatalf("ParseScenario(%q, %g) accepted mean rate %g", name, rate, r)
		}
	})
}
