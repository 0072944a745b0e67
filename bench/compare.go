package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	if path == "" {
		for _, cand := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
			if _, err := os.Stat(cand); err == nil {
				path = cand
				break
			}
		}
		if path == "" {
			return nil, fmt.Errorf("no BENCHMARK.json in . or ..; pass -benchmark")
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, m := range s.EndToEnd {
		if m.Better != "higher" && m.Better != "lower" {
			return nil, fmt.Errorf("%s: metric %s: better must be higher or lower", path, m.Name)
		}
	}
	return &s, nil
}

func loadResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func (f *resultFile) workload(name string) *workloadResult {
	for i := range f.Workloads {
		if f.Workloads[i].Workload == name {
			return &f.Workloads[i]
		}
	}
	return nil
}

// verdict compares one metric's samples against a baseline's: better or
// worse when the medians differ by more than bound in that direction,
// same otherwise, and unresolved when either side's quartile spread is
// wider than bound — unless every new sample beats every baseline sample.
func verdict(cur, base []float64, higherBetter bool, bound float64) (string, float64) {
	cm, bm := median(cur), median(base)
	change := (cm - bm) / bm
	gain := change
	if !higherBetter {
		gain = -change
	}
	lo, hi := minMax(cur)
	blo, bhi := minMax(base)
	allBetter := (higherBetter && lo > bhi) || (!higherBetter && hi < blo)
	switch {
	case math.Max(spread(cur), spread(base)) > bound:
		if allBetter {
			return "better", change
		}
		return "unresolved", change
	case gain < -bound:
		return "worse", change
	case gain > bound:
		return "better", change
	}
	return "same", change
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// compareMain checks new.json against the newest baseline and against the
// best of all given baselines per (metric, workload), and exits non-zero
// on any regression.
func compareMain(files []string, specPath string) int {
	if len(files) < 2 {
		fmt.Fprintln(os.Stderr, "bench: -compare needs new.json and at least one baseline")
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	results := make([]*resultFile, len(files))
	for i, p := range files {
		if results[i], err = loadResult(p); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	cur, bases := results[0], results[1:]
	if m, b := cur.Manifest, bases[0].Manifest; m.CPUModel != b.CPUModel || m.NProc != b.NProc || m.GoVersion != b.GoVersion {
		fmt.Printf("note: runners differ: %s/%d CPUs/%s vs %s/%d CPUs/%s\n",
			m.CPUModel, m.NProc, m.GoVersion, b.CPUModel, b.NProc, b.GoVersion)
	}
	regressed := false
	fmt.Printf("%-22s %-14s %14s %14s %8s %8s  %-10s %s\n",
		"workload", "metric", "baseline", "new", "change", "bound", "verdict", "vs best baseline")
	for _, w := range cur.Workloads {
		base := bases[0].workload(w.Workload)
		if base == nil {
			fmt.Printf("%-22s missing from the baseline %s\n", w.Workload, files[1])
			continue
		}
		for _, m := range spec.EndToEnd {
			cv, bv := w.Metrics[m.Name], base.Metrics[m.Name]
			if len(cv.Samples) == 0 || len(bv.Samples) == 0 {
				fmt.Printf("%-22s %-14s missing samples\n", w.Workload, m.Name)
				regressed = true
				continue
			}
			higher := m.Better == "higher"
			v, change := verdict(cv.Samples, bv.Samples, higher, m.Bound)
			// Slow drift: the new run against the best baseline median.
			best := bv
			for _, b := range bases[1:] {
				ob := b.workload(w.Workload)
				if ob == nil || len(ob.Metrics[m.Name].Samples) == 0 {
					continue
				}
				om := ob.Metrics[m.Name]
				if (higher && om.Value > best.Value) || (!higher && om.Value < best.Value) {
					best = om
				}
			}
			bestV, _ := verdict(cv.Samples, best.Samples, higher, m.Bound)
			regressed = regressed || v == "worse" || bestV == "worse"
			fmt.Printf("%-22s %-14s %14.6g %14.6g %+7.1f%% %7.0f%%  %-10s %s\n",
				w.Workload, m.Name, bv.Value, cv.Value, 100*change, 100*m.Bound, v, bestV)
		}
		// Any increase in the failed share of reps is a regression.
		cf := float64(w.Failed) / math.Max(float64(w.Attempted), 1)
		bf := float64(base.Failed) / math.Max(float64(base.Attempted), 1)
		fv := "same"
		if cf > bf {
			fv, regressed = "worse", true
		}
		fmt.Printf("%-22s %-14s %14.6g %14.6g %8s %7.0f%%  %s\n", w.Workload, "failed_frac", bf, cf, "", 0.0, fv)
	}
	if regressed {
		fmt.Println("regression: at least one metric is worse than a baseline by more than its bound")
		return 1
	}
	return 0
}
