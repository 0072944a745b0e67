package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/metrics"
	"syscall"
	"time"
)

// procStart is the child's earliest host timestamp: set-up time runs from
// here to the first timed call, as a fresh cllm-serve process pays it.
var procStart = time.Now()

// childFlag is the hidden first argument that makes the program one timed
// rep instead of the orchestrating parent.
const childFlag = "-child-rep"

// repResult is what one child reports to the parent, as one JSON line.
type repResult struct {
	SetupS float64 `json:"setup_s"`
	RunS   float64 `json:"run_s"`
	// CalS is the parent's calibrate time around this child (see calib.go).
	CalS       float64  `json:"cal_s,omitempty"`
	Requests   int      `json:"requests"`
	PeakRSSMiB float64  `json:"peak_rss_mib"`
	Allocs     uint64   `json:"allocs"`
	Bytes      uint64   `json:"bytes"`
	GCCycles   uint64   `json:"gc_cycles"`
	GCCPUFrac  float64  `json:"gc_cpu_frac"`
	Digest     string   `json:"digest"`
	Failures   []string `json:"failures,omitempty"`
	// Layers holds the per-layer metrics; the traced rep fills it.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// childMain runs one rep in this fresh process on one simulation
// goroutine and prints its repResult.
func childMain(args []string) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	requests := fs.Int("requests", 0, "simulated requests")
	traced := fs.Bool("traced", false, "run the traced rep")
	traceOut := fs.String("trace-out", "", "Chrome trace-event file for the traced rep")
	cpuprofile := fs.String("cpuprofile", "", "CPU profile of the traced rep's run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var res *repResult
	if *traced {
		tr := newTracer()
		res, err = tracedRep(w, *requests, *seed, tr, *cpuprofile)
		if err == nil && *traceOut != "" {
			err = tr.write(*traceOut)
		}
	} else {
		res, err = untracedRep(w, *requests, *seed)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// untracedRep is one timed rep: set-up, then the run as a cllm-serve
// invocation would make it, with the Go runtime's counters read around it.
func untracedRep(w *benchWorkload, requests int, seed int64) (*repResult, error) {
	r, err := w.build(requests, seed)
	if err != nil {
		return nil, err
	}
	before := readGoMetrics()
	start := time.Now()
	out, err := r.run()
	end := time.Now()
	if err != nil {
		return nil, err
	}
	after := readGoMetrics()
	res := &repResult{
		SetupS:     start.Sub(procStart).Seconds(),
		RunS:       end.Sub(start).Seconds(),
		Requests:   requests,
		PeakRSSMiB: peakRSSMiB(),
		Allocs:     after.allocs - before.allocs,
		Bytes:      after.bytes - before.bytes,
		GCCycles:   after.cycles - before.cycles,
	}
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		res.GCCPUFrac = (after.gcCPU - before.gcCPU) / cpu
	}
	res.Failures = check(r, out, requests)
	res.Digest = digest(out)
	return res, nil
}

type goMetrics struct {
	allocs, bytes, cycles uint64
	gcCPU, totalCPU       float64
}

var goMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// readGoMetrics samples the runtime's cumulative allocation, GC-cycle and
// CPU-class counters. The CPU classes are the runtime's own estimates
// (GOMAXPROCS × wall time in total), refreshed at each GC.
func readGoMetrics() goMetrics {
	s := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) metrics.Value { return s[i].Value }
	var m goMetrics
	if v := val(0); v.Kind() == metrics.KindUint64 {
		m.allocs = v.Uint64()
	}
	if v := val(1); v.Kind() == metrics.KindUint64 {
		m.bytes = v.Uint64()
	}
	if v := val(2); v.Kind() == metrics.KindUint64 {
		m.cycles = v.Uint64()
	}
	if v := val(3); v.Kind() == metrics.KindFloat64 {
		m.gcCPU = v.Float64()
	}
	if v := val(4); v.Kind() == metrics.KindFloat64 {
		m.totalCPU = v.Float64()
	}
	return m
}

// peakRSSMiB is this process's resident-set high-water mark (Linux reports
// ru_maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
