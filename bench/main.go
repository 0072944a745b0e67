// Command bench is the simulator's benchmark: it drives four serving
// workloads through the public functions of the simulator's modules,
// measures host-side end-to-end metrics on untraced reps, and attributes
// host time to the simulator's layers from one traced rep.
//
// Every timed rep runs in a fresh child process (the program re-executes
// itself), one child at a time, each child on one simulation goroutine:
// the load on the host is one process at a time. Run it from the
// repository root with
//
//	bash bench/run.sh --workload chat-single --seed 1 --seconds 10 --trace 0
//
// or from this directory with go run . and the same flags; -h lists them.
// See README.md for the workloads, the metrics and how to compare runs.
package main

import (
	"bufio"
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == childFlag {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(parentMain(os.Args[1:]))
}

// metricSpec names one reported metric, its unit, and which way is better.
type metricSpec struct{ name, unit, better string }

const (
	higherBetter = "higher"
	lowerBetter  = "lower"
)

// endToEnd are the metrics a user of the simulator sees, measured on the
// untraced reps.
var endToEnd = []metricSpec{
	{"simreq_per_s", "1/s", higherBetter},
	{"setup_s", "s", lowerBetter},
	{"peak_rss_mib", "MiB", lowerBetter},
}

// busyLayers are the layers whose busy host time the traced rep estimates;
// the scheduler's own time is the run time minus all of them.
var busyLayers = []string{"workload", "sim", "perf", "serve.kv", "serve.fleet", "stats", "obs"}

// perLayer are the metrics of single layers, from the traced rep.
var perLayer = []metricSpec{
	{"workload.ns_per_req", "ns", lowerBetter},
	{"sim.events", "count", lowerBetter},
	{"sim.ns_per_event", "ns", lowerBetter},
	{"perf.calls", "count", lowerBetter},
	{"perf.misses", "count", lowerBetter},
	{"perf.hit_ratio", "ratio", higherBetter},
	{"perf.miss_us", "us", lowerBetter},
	{"perf.hit_ns", "ns", lowerBetter},
	{"serve.kv.peak_occupancy", "ratio", higherBetter},
	{"serve.kv.prefix_hit_ratio", "ratio", higherBetter},
	{"serve.kv.preemptions", "count", lowerBetter},
	{"serve.kv.swap_outs", "count", lowerBetter},
	{"serve.kv.evicted_blocks", "count", lowerBetter},
	{"serve.kv.dedup_us", "us", lowerBetter},
	{"serve.kv.grow_ns", "ns", lowerBetter},
	{"serve.sched.rounds", "count", lowerBetter},
	{"serve.sched.mean_batch", "count", higherBetter},
	{"serve.sched.self_s_est", "s", lowerBetter},
	{"serve.sched.round_host_us_p50", "us", lowerBetter},
	{"serve.sched.round_host_us_p99", "us", lowerBetter},
	{"serve.sched.queue_wait_p99_s", "s", lowerBetter},
	{"serve.sched.drop_frac", "ratio", lowerBetter},
	{"serve.fleet.prefix_locality", "ratio", higherBetter},
	{"serve.fleet.imbalance", "ratio", lowerBetter},
	{"serve.fleet.merge_us", "us", lowerBetter},
	{"stats.sketch_add_ns", "ns", lowerBetter},
	{"stats.sketch_merge_us", "us", lowerBetter},
	{"stats.exact_quantiles_ms", "ms", lowerBetter},
	{"obs.events", "count", lowerBetter},
	{"obs.recorder_ns_per_event", "ns", lowerBetter},
	{"obs.attrib_ns_per_event", "ns", lowerBetter},
	{"obs.export_ms", "ms", lowerBetter},
	{"obs.reconcile_ms", "ms", lowerBetter},
	{"autoscale.probe_ms", "ms", lowerBetter},
	{"autoscale.cold_starts", "count", lowerBetter},
	{"autoscale.replica_hours", "h", lowerBetter},
	{"go.allocs_per_req", "count", lowerBetter},
	{"go.bytes_per_req", "B", lowerBetter},
	{"go.gc_cycles", "count", lowerBetter},
	{"go.gc_cpu_frac", "ratio", lowerBetter},
	{"trace.overhead_frac", "ratio", lowerBetter},
	{"workload.busy_share", "ratio", lowerBetter},
	{"sim.busy_share", "ratio", lowerBetter},
	{"perf.busy_share", "ratio", lowerBetter},
	{"serve.kv.busy_share", "ratio", lowerBetter},
	{"serve.fleet.busy_share", "ratio", lowerBetter},
	{"stats.busy_share", "ratio", lowerBetter},
	{"obs.busy_share", "ratio", lowerBetter},
}

// options are the parent's settings for one invocation.
type options struct {
	seed       int64
	seconds    float64
	traced     bool
	traceOut   string
	cpuprofile string
}

func parentMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: "+workloadNames()+", or all")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same simulated inputs and outputs")
	seconds := fs.Float64("seconds", 8, "host seconds of timed reps per workload (reps start until it has passed)")
	trace := fs.Int("trace", 0, "1 adds one traced rep per workload and reports the per-layer metrics instead")
	traceOut := fs.String("trace-out", "", "write the traced rep's spans as Chrome trace-event JSON (implies -trace 1)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the traced rep's run (implies -trace 1)")
	out := fs.String("out", "", "write the JSON result file here")
	compare := fs.Bool("compare", false, "compare result files instead of running: -compare new.json base.json [older.json ...]")
	spec := fs.String("benchmark", "", "BENCHMARK.json holding the bounds -compare applies (default: ./ or ../BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareMain(fs.Args(), *spec)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	switch {
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		return 2
	case *seconds < 0 || math.IsNaN(*seconds):
		fmt.Fprintln(os.Stderr, "bench: -seconds must be non-negative")
		return 2
	}
	var selected []*benchWorkload
	if *name == "all" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	} else {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v (have %s)\n", err, workloadNames())
			return 2
		}
		selected = []*benchWorkload{w}
	}
	opt := options{
		seed: *seed, seconds: *seconds,
		traced:   *trace == 1 || *traceOut != "" || *cpuprofile != "",
		traceOut: *traceOut, cpuprofile: *cpuprofile,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	file := resultFile{Manifest: newManifest(opt, selected), Correct: true}
	for _, w := range selected {
		wr := runWorkload(ctx, w, opt, len(selected) > 1)
		printWorkload(wr)
		file.Workloads = append(file.Workloads, wr)
		file.Attempted += wr.Attempted
		file.Failed += wr.Failed
		file.Correct = file.Correct && wr.Correct
	}
	if *out != "" {
		if err := writeJSON(*out, file); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	line, err := json.Marshal(file.summary(opt.traced))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !file.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// metricValue is one metric as reported: its value (a median where there
// are samples), its unit, and the per-rep samples behind it.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// workloadResult is everything one workload's reps produced.
type workloadResult struct {
	Workload  string                 `json:"workload"`
	Requests  int                    `json:"requests"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Correct   bool                   `json:"correct"`
	Digest    string                 `json:"digest"`
	Errors    []string               `json:"errors,omitempty"`
	Notes     []string               `json:"notes,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Reps      []repResult            `json:"reps"`
	Traced    *repResult             `json:"traced,omitempty"`
}

// resultFile is the JSON result of one invocation.
type resultFile struct {
	Manifest  manifest         `json:"manifest"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Workloads []workloadResult `json:"workloads"`
}

// summaryLine is the last line the benchmark prints.
type summaryLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summary keeps the end-to-end metrics (untraced) or the per-layer ones
// (traced). With several workloads each name is prefixed by its workload.
func (f *resultFile) summary(traced bool) summaryLine {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	s := summaryLine{Correct: f.Correct, Attempted: f.Attempted, Failed: f.Failed, Metrics: map[string]metricValue{}}
	for _, w := range f.Workloads {
		for _, m := range specs {
			v, ok := w.Metrics[m.name]
			if !ok {
				continue
			}
			key := m.name
			if len(f.Workloads) > 1 {
				key = w.Workload + "/" + m.name
			}
			s.Metrics[key] = metricValue{Value: v.Value, Unit: v.Unit}
		}
	}
	return s
}

// childTimeout bounds one child; a rep that runs longer has hung.
const childTimeout = 150 * time.Second

// childGOMAXPROCS keeps each child, garbage collector included, on one
// processor: on a small shared host a second one comes and goes with the
// neighbours' load, and the GC-heavy workloads' times with it.
const childGOMAXPROCS = 1

// spawn runs one rep in a fresh child process and waits for it to end;
// cancelling ctx (an interrupt of the parent) kills the child.
func spawn(ctx context.Context, args ...string) (*repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, append([]string{childFlag}, args...)...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", childGOMAXPROCS))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("rep %v: %w", args, err)
	}
	out := bytes.TrimSpace(stdout.Bytes())
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		out = out[i+1:]
	}
	var res repResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("rep %v: unreadable result: %w", args, err)
	}
	return &res, nil
}

// perWorkloadPath gives each workload its own output file when several run.
func perWorkloadPath(path, workload string, several bool) string {
	if path == "" || !several {
		return path
	}
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + workload + ext
}

// minReps is the fewest timed reps a workload gets, however short
// -seconds is: a median needs a few.
const minReps = 3

// runWorkload runs timed reps of w until opt.seconds have passed (and at
// least minReps), then the traced rep when asked, and derives every
// metric.
func runWorkload(ctx context.Context, w *benchWorkload, opt options, several bool) workloadResult {
	wr := workloadResult{Workload: w.name, Requests: w.requests, Metrics: map[string]metricValue{}}
	base := []string{"-workload", w.name, "-seed", fmt.Sprint(opt.seed), "-requests", fmt.Sprint(w.requests)}
	record := func(res *repResult, err error) bool {
		wr.Attempted++
		switch {
		case err != nil:
			wr.Errors = append(wr.Errors, err.Error())
		case len(res.Failures) > 0:
			wr.Errors = append(wr.Errors, res.Failures...)
		case wr.Digest != "" && res.Digest != wr.Digest:
			wr.Errors = append(wr.Errors, fmt.Sprintf("simulated-output digest %s differs from %s", res.Digest, wr.Digest))
		default:
			wr.Digest = res.Digest
			return true
		}
		wr.Failed++
		return false
	}
	start := time.Now()
	for len(wr.Reps) < minReps || time.Since(start).Seconds() < opt.seconds {
		if ctx.Err() != nil || (wr.Attempted >= minReps && len(wr.Reps) == 0) {
			break // interrupted, or every rep fails: more of them measure nothing
		}
		before := calibrate()
		res, err := spawn(ctx, base...)
		after := calibrate()
		if record(res, err) {
			res.CalS = (before + after) / 2
			wr.Reps = append(wr.Reps, *res)
		}
	}
	if opt.traced && ctx.Err() == nil {
		args := append(base, "-traced",
			"-trace-out", perWorkloadPath(opt.traceOut, w.name, several),
			"-cpuprofile", perWorkloadPath(opt.cpuprofile, w.name, several))
		res, err := spawn(ctx, args...)
		if record(res, err) {
			wr.Traced = res
		}
	}
	wr.Correct = wr.Failed == 0 && len(wr.Reps) > 0 && (!opt.traced || wr.Traced != nil)
	if want, ok := recordedDigest(w.name, opt.seed); ok && wr.Digest != "" && wr.Digest != want {
		wr.Notes = append(wr.Notes, fmt.Sprintf(
			"simulated-output digest %s differs from %s recorded in baseline.json for seed %d: the simulated outputs changed",
			wr.Digest, want, opt.seed))
	}
	wr.derive()
	return wr
}

//go:embed baseline.json
var baselineJSON []byte

// recordedDigest is the simulated-output digest baseline.json records for
// a workload at a seed. A different digest means the simulator
// now computes different results, which a change meant only to speed it
// up must not do.
func recordedDigest(workload string, seed int64) (string, bool) {
	var b struct {
		Digests map[string]map[string]string `json:"digests"`
	}
	if err := json.Unmarshal(baselineJSON, &b); err != nil {
		return "", false
	}
	d, ok := b.Digests[workload][fmt.Sprint(seed)]
	return d, ok
}

// derive computes the end-to-end metrics from the untraced reps and the
// per-layer ones from the traced rep.
func (wr *workloadResult) derive() {
	if len(wr.Reps) == 0 {
		return
	}
	sample := func(f func(r repResult) float64) []float64 {
		xs := make([]float64, len(wr.Reps))
		for i, r := range wr.Reps {
			xs[i] = f(r)
		}
		return xs
	}
	put := func(name string, xs []float64) {
		wr.Metrics[name] = metricValue{Value: median(xs), Unit: unitOf(name), Samples: xs}
	}
	// Host times in seconds of the reference runner (see calibrate).
	ref := func(r repResult) float64 {
		if r.CalS <= 0 {
			return 1
		}
		return referenceCalSec / r.CalS
	}
	put("simreq_per_s", sample(func(r repResult) float64 { return float64(r.Requests) / (r.RunS * ref(r)) }))
	put("setup_s", sample(func(r repResult) float64 { return r.SetupS * ref(r) }))
	put("peak_rss_mib", sample(func(r repResult) float64 { return r.PeakRSSMiB }))
	put("go.allocs_per_req", sample(func(r repResult) float64 { return float64(r.Allocs) / float64(r.Requests) }))
	put("go.bytes_per_req", sample(func(r repResult) float64 { return float64(r.Bytes) / float64(r.Requests) }))
	put("go.gc_cycles", sample(func(r repResult) float64 { return float64(r.GCCycles) }))
	put("go.gc_cpu_frac", sample(func(r repResult) float64 { return r.GCCPUFrac }))
	if wr.Traced == nil {
		return
	}
	for name, v := range wr.Traced.Layers {
		wr.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
	}
}

// unitOf is a named metric's unit.
func unitOf(name string) string {
	for _, group := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range group {
			if m.name == name {
				return m.unit
			}
		}
	}
	return ""
}

// printWorkload prints every metric of one workload by name with its unit.
func printWorkload(wr workloadResult) {
	status := "correct"
	if !wr.Correct {
		status = "INCORRECT"
	}
	fmt.Printf("%s: %d timed reps of %d requests, %d attempted, %d failed, digest %s, %s\n",
		wr.Workload, len(wr.Reps), wr.Requests, wr.Attempted, wr.Failed, wr.Digest, status)
	for _, e := range wr.Errors {
		fmt.Printf("  error: %s\n", e)
	}
	for _, n := range wr.Notes {
		fmt.Printf("  note: %s\n", n)
	}
	for _, group := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range group {
			v, ok := wr.Metrics[m.name]
			if !ok {
				continue
			}
			note := ""
			if len(v.Samples) > 1 {
				note = fmt.Sprintf("  (median of %d reps, quartile spread %.1f%%)", len(v.Samples), 100*spread(v.Samples))
			}
			fmt.Printf("  %-34s %14.6g %-6s%s\n", m.name, v.Value, m.unit, note)
		}
	}
}

// manifest records what produced a result file, so a change of runner can
// be told apart from a change of code.
type manifest struct {
	CPUModel   string         `json:"cpu_model"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	ChildProcs int            `json:"child_gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	OSArch     string         `json:"os_arch"`
	Revision   string         `json:"vcs_revision"`
	Modified   string         `json:"vcs_modified"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Traced     bool           `json:"traced"`
	Sizes      map[string]int `json:"workload_requests"`
	Started    string         `json:"started"`
}

func newManifest(opt options, selected []*benchWorkload) manifest {
	m := manifest{
		CPUModel: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), ChildProcs: childGOMAXPROCS,
		GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
		Revision: "unknown", Modified: "unknown",
		Seed: opt.seed, Seconds: opt.seconds, Traced: opt.traced,
		Sizes: map[string]int{}, Started: time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Revision = s.Value
			case "vcs.modified":
				m.Modified = s.Value
			}
		}
	}
	for _, w := range selected {
		m.Sizes[w.name] = w.requests
	}
	return m
}

// cpuModel reads the host CPU's model name (Linux); "unknown" elsewhere.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// median is the middle value, or the mean of the middle two.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles are the first and third quartiles by the exclusive method
// (Python's statistics.quantiles(xs, n=4) default).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(xs), median(xs)
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	if m := median(xs); m != 0 {
		return math.Abs(q3-q1) / math.Abs(m)
	}
	return 0
}
