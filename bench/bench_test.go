package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestWorkloadsEmitEveryMetric runs every workload in-process at 1% of its
// size, untraced and traced, and checks that the checks pass, the two runs
// agree on the simulated output, and every named metric is emitted and
// finite.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			n := max(1, w.requests/100)
			plain, err := untracedRep(w, n, 7)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			traced, err := tracedRep(w, n, 7, tr, "")
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range []*repResult{plain, traced} {
				if len(res.Failures) > 0 {
					t.Errorf("checks failed: %v", res.Failures)
				}
			}
			if plain.Digest != traced.Digest {
				t.Errorf("tracing changed the simulated output: digest %s untraced, %s traced", plain.Digest, traced.Digest)
			}
			wr := workloadResult{Workload: w.name, Requests: n, Metrics: map[string]metricValue{},
				Reps: []repResult{*plain}, Traced: traced}
			wr.derive()
			for _, group := range [][]metricSpec{endToEnd, perLayer} {
				for _, m := range group {
					v, ok := wr.Metrics[m.name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", m.name)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("metric %s = %v", m.name, v.Value)
					case v.Unit != m.unit:
						t.Errorf("metric %s unit %q, want %q", m.name, v.Unit, m.unit)
					}
				}
			}
			if len(wr.Metrics) != len(endToEnd)+len(perLayer) {
				t.Errorf("%d metrics emitted, %d named", len(wr.Metrics), len(endToEnd)+len(perLayer))
			}
			path := filepath.Join(t.TempDir(), "trace.json")
			if err := tr.write(path); err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct {
					Name string  `json:"name"`
					Dur  float64 `json:"dur"`
				} `json:"traceEvents"`
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(b, &doc); err != nil {
				t.Fatalf("trace is not JSON: %v", err)
			}
			names := map[string]bool{}
			for _, ev := range doc.TraceEvents {
				names[ev.Name] = true
			}
			for _, want := range []string{"setup", "arrivals", "run", "round", "replay.kv", "checks"} {
				if !names[want] {
					t.Errorf("trace has no %q span", want)
				}
			}
		})
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program's
// workload and metric tables in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(spec.Command, spec.Paths); got != "[bash bench/run.sh] [bench]" {
		t.Errorf("command and paths %s, want [bash bench/run.sh] [bench]", got)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	maxBound := 0.0
	for i, m := range spec.EndToEnd {
		want := endToEnd[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("end_to_end %d: %+v, program %+v", i, m, want)
		}
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	for i, m := range spec.PerLayer {
		want := perLayer[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per_layer %d: %+v, program %+v", i, m, want)
		}
	}
}

// TestDeriveScalesByCalibration checks that host times are reported in
// seconds of the reference runner: a rep on a host twice as slow as the
// reference (calibrate took twice as long) reports the reference speed.
func TestDeriveScalesByCalibration(t *testing.T) {
	slow := repResult{Requests: 1000, RunS: 2, SetupS: 0.002, CalS: 2 * referenceCalSec}
	wr := workloadResult{Metrics: map[string]metricValue{}, Reps: []repResult{slow}}
	wr.derive()
	if got := wr.Metrics["simreq_per_s"].Value; math.Abs(got-1000) > 1e-9 {
		t.Errorf("simreq_per_s = %v, want 1000", got)
	}
	if got := wr.Metrics["setup_s"].Value; math.Abs(got-0.001) > 1e-12 {
		t.Errorf("setup_s = %v, want 0.001", got)
	}
	if c := calibrate(); !(c > 0) {
		t.Errorf("calibrate() = %v", c)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %v, want 5.5", m)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		name   string
		cur    []float64
		higher bool
		want   string
	}{
		{"same", []float64{101, 100, 99, 100, 101}, true, "same"},
		{"worse throughput", []float64{80, 81, 79, 80, 80}, true, "worse"},
		{"better throughput", []float64{130, 131, 129, 130, 130}, true, "better"},
		{"worse time", []float64{130, 131, 129, 130, 130}, false, "worse"},
		{"noisy", []float64{60, 140, 100, 70, 130}, true, "unresolved"},
		{"noisy but all better", []float64{150, 300, 200, 160, 290}, true, "better"},
	} {
		if got, _ := verdict(tc.cur, base, tc.higher, 0.1); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}
