package serve

import (
	"fmt"
	"math/rand"
	"testing"

	"cllm/internal/stats"
	"cllm/internal/tee"
)

// TestQuantilesMatchPercentileReference freezes the report's summary
// arithmetic: quantiles (mean in sample order, one in-place sort) must equal
// stats.Mean plus three copying stats.Percentile calls bit for bit, on
// samples with duplicates, the n = 1 and 2 edges and a large sample.
func TestQuantilesMatchPercentileReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var cases [][]float64
	for _, n := range []int{1, 2, 3, 7, 100, 1000, 100000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.ExpFloat64() * 0.3
		}
		cases = append(cases, xs)
		dup := make([]float64, n) // heavy duplicates
		for i := range dup {
			dup[i] = float64(rng.Intn(4)) * 0.125
		}
		cases = append(cases, dup)
	}
	for _, xs := range cases {
		want := Quantiles{
			Mean: stats.Mean(xs),
			P50:  stats.Percentile(xs, 50),
			P95:  stats.Percentile(xs, 95),
			P99:  stats.Percentile(xs, 99),
		}
		if got := quantiles(append([]float64(nil), xs...)); got != want {
			t.Fatalf("n=%d: quantiles %+v, reference %+v", len(xs), got, want)
		}
	}
	if got := quantiles(nil); got != (Quantiles{}) {
		t.Fatalf("empty sample: %+v", got)
	}
}

// TestQuantilesAllocFree: quantiles sorts the caller's slice in place and
// allocates nothing.
func TestQuantilesAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	if n := testing.AllocsPerRun(20, func() { _ = quantiles(xs) }); n != 0 {
		t.Fatalf("quantiles allocates %g times per call", n)
	}
}

// checkExactCounters asserts the exact-mode counter contract: the good and
// completed counters equal their sums over Requests, and SLOAttainment is
// the SLOMet count over the offered requests.
func checkExactCounters(t *testing.T, name string, rep *Report) (met, missed int) {
	t.Helper()
	if rep.Sketched || len(rep.Requests) != rep.Completed {
		t.Fatalf("%s: not an exact report (Sketched=%v, %d requests, %d completed)",
			name, rep.Sketched, len(rep.Requests), rep.Completed)
	}
	good, goodTok, doneTok := 0, 0, 0
	for _, m := range rep.Requests {
		doneTok += m.OutputTokens
		if m.SLOMet {
			good++
			goodTok += m.OutputTokens
		}
	}
	if rep.GoodRequests != good || rep.GoodOutputTokens != goodTok || rep.CompletedOutputTokens != doneTok {
		t.Fatalf("%s: counters good=%d goodTok=%d doneTok=%d, Requests sum to %d/%d/%d",
			name, rep.GoodRequests, rep.GoodOutputTokens, rep.CompletedOutputTokens, good, goodTok, doneTok)
	}
	offered := rep.Completed + rep.Dropped + rep.Unfinished
	if want := float64(good) / float64(offered); rep.SLOAttainment() != want {
		t.Fatalf("%s: SLOAttainment %g, want %d/%d = %g", name, rep.SLOAttainment(), good, offered, want)
	}
	return good, rep.Completed - good
}

// TestExactCountersMatchRequests: in exact mode the report's counters are
// the per-request ledger's sums, for a lone replica, every fleet replica
// and the merged fleet aggregate.
func TestExactCountersMatchRequests(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(Config) (agg *Report, parts []*Report, err error)
	}{
		{"lone", func(cfg Config) (*Report, []*Report, error) {
			rep, err := Run(cpuBackend(tee.TDX()), cfg)
			return rep, nil, err
		}},
		{"fleet", func(cfg Config) (*Report, []*Report, error) {
			fr, err := RunFleet(cpuBackend(tee.TDX()), cfg, FleetConfig{Replicas: 3, Policy: LeastLoaded})
			if err != nil {
				return nil, nil, err
			}
			return fr.Aggregate, fr.PerReplica, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyConfig(400, 80)
			probe, _, err := tc.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// A TTFT SLO at the median splits completions into met and missed.
			cfg.TTFTSLOSec = probe.TTFT.P50
			agg, parts, err := tc.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if met, missed := checkExactCounters(t, "aggregate", agg); met == 0 || missed == 0 {
				t.Fatalf("%d met, %d missed; the check needs both", met, missed)
			}
			for i, r := range parts {
				checkExactCounters(t, fmt.Sprintf("replica %d", i), r)
			}
		})
	}
}
