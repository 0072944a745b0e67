package main

import (
	"errors"
	"flag"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"cllm"
	"cllm/internal/serve"
)

// options is the parsed CLI state: every flag binds into exactly one
// field here, and main reads only this struct after flag parsing. The
// simulation flags bind straight into cfg (and through it, its embedded
// ServeConfig); the rest select platforms, sweep points and outputs.
type options struct {
	cfg cllm.AutoscaleConfig

	platforms    string
	autoscale    bool
	classes      string
	rateMults    string
	format       string
	traceOut     string
	metricsOut   string
	timesOut     string
	attribOut    string
	attribCSV    string
	compare      string
	compareSlack float64

	// Derived by the checks (valid after checkFlags returns nil).
	mults []float64
}

// rejection is one argv the flag binder must refuse, with a substring the
// error message must carry so misuse names the offending flag.
type rejection struct {
	args []string
	want string
}

// flagSpec binds one CLI flag: name and usage are single-sourced here,
// field names the cllm config field the flag binds (its selector path on
// cllm.AutoscaleConfig; empty for a CLI-only flag), add installs the flag
// on a FlagSet against its options destination, check validates a
// CLI-only flag, and rejects lists example argument vectors the binding
// must refuse. Config fields are range-checked by the API's own Validate
// (see checkFlags). TestFlagRejections regenerates its cases from
// rejects, so a flag Validate can reject ships its rejection examples in
// the same entry. The policy flags parse into the config's typed fields
// as they are set (see parsed), so the flag package itself rejects a bad
// spelling; their usage states the default, which -h prints only for
// plain value flags.
type flagSpec struct {
	name, field string
	usage       string
	add         func(fs *flag.FlagSet, name, usage string)
	check       func() error
	rejects     []rejection
}

// flagTable is the single source of truth for the CLI surface: every
// flag's name, default, destination and validator in one place.
func flagTable(o *options) []flagSpec {
	return []flagSpec{
		{
			name:  "platform",
			usage: "comma-separated platform list (baremetal|vm|tdx|sgx|gpu|cgpu|...)",
			add:   func(fs *flag.FlagSet, n, u string) { fs.StringVar(&o.platforms, n, "baremetal,tdx,sgx", u) },
		},
		{
			name: "system", field: "System",
			usage: "CPU testbed: EMR1 or EMR2",
			add:   func(fs *flag.FlagSet, n, u string) { fs.StringVar(&o.cfg.System, n, "EMR1", u) },
		},
		{
			name: "model", field: "Model",
			usage:   "model name (see cllm-infer -models)",
			add:     func(fs *flag.FlagSet, n, u string) { fs.StringVar(&o.cfg.Model, n, "llama2-7b", u) },
			rejects: []rejection{{args: []string{"-model", "gpt-99"}, want: "-model"}},
		},
		{
			name: "dtype", field: "DType",
			usage:   "datatype: bf16|int8|f32",
			add:     func(fs *flag.FlagSet, n, u string) { fs.StringVar(&o.cfg.DType, n, "bf16", u) },
			rejects: []rejection{{args: []string{"-dtype", "fp4"}, want: "-dtype"}},
		},
		{
			name: "rate", field: "RatePerSec",
			usage: "base (mean) arrival rate (requests/s) (default 8)",
			add:   nonZero(&o.cfg.RatePerSec, 8),
			rejects: []rejection{
				{args: []string{"-rate", "0"}, want: "-rate"},
				{args: []string{"-rate", "NaN"}, want: "-rate"},
				{args: []string{"-rate", "Inf"}, want: "-rate"},
				{args: []string{"-scenario", "diurnal", "-rate", "NaN"}, want: "-rate"},
			},
		},
		{
			name: "requests", field: "Requests",
			usage:   "arrivals per run",
			add:     func(fs *flag.FlagSet, n, u string) { fs.IntVar(&o.cfg.Requests, n, 48, u) },
			rejects: []rejection{{args: []string{"-requests", "-3"}, want: "-requests"}},
		},
		{
			name: "scenario", field: "Scenario",
			usage: "traffic scenario: poisson|bursty|diurnal|ramp, chat|rag|agentic, or arrivals+mix (empty = plain Poisson synthesis)",
			add:   func(fs *flag.FlagSet, n, u string) { fs.StringVar(&o.cfg.Scenario, n, "", u) },
			rejects: []rejection{
				{args: []string{"-scenario", "tsunami"}, want: "-scenario"},
				{args: []string{"-scenario", "diurnal", "-rate", "1.5e308"}, want: "-scenario"},
			},
		},
		{
			name: "in", field: "InputLen",
			usage:   "mean prompt tokens (ignored with -scenario)",
			add:     func(fs *flag.FlagSet, n, u string) { fs.IntVar(&o.cfg.InputLen, n, 128, u) },
			rejects: []rejection{{args: []string{"-in", "-1"}, want: "-in"}},
		},
		{
			name: "out", field: "OutputLen",
			usage:   "mean generated tokens (ignored with -scenario)",
			add:     func(fs *flag.FlagSet, n, u string) { fs.IntVar(&o.cfg.OutputLen, n, 32, u) },
			rejects: []rejection{{args: []string{"-out", "-1"}, want: "-out"}},
		},
		{
			name: "batch", field: "MaxBatch",
			usage:   "max concurrent sequences",
			add:     func(fs *flag.FlagSet, n, u string) { fs.IntVar(&o.cfg.MaxBatch, n, 32, u) },
			rejects: []rejection{{args: []string{"-batch", "-1"}, want: "-batch"}},
		},
		{
			name: "chunk-size", field: "ChunkTokens",
			usage:   "chunked-prefill budget in prompt tokens per iteration (0 = monolithic prefill)",
			add:     func(fs *flag.FlagSet, n, u string) { fs.IntVar(&o.cfg.ChunkTokens, n, 0, u) },
			rejects: []rejection{{args: []string{"-chunk-size", "-512"}, want: "-chunk-size"}},
		},
		{
			name: "prefix-share", field: "PrefixSharing",
			usage: "enable prefix-cache sharing of common prompt prefixes",
			add:   func(fs *flag.FlagSet, n, u string) { fs.BoolVar(&o.cfg.PrefixSharing, n, false, u) },
		},
		{
			name: "prefix-groups", field: "PrefixGroups",
			usage:   "synthetic shared-prefix groups (0 = independent prompts; defaults to 4 with -prefix-share)",
			add:     func(fs *flag.FlagSet, n, u string) { fs.IntVar(&o.cfg.PrefixGroups, n, 0, u) },
			rejects: []rejection{{args: []string{"-prefix-groups", "-2"}, want: "-prefix-groups"}},
		},
		{
			name: "prefix-frac", field: "PrefixFrac",
			usage: "shared fraction of the mean prompt per prefix group, in [0,1) (0 = 0.5 default)",
			add:   func(fs *flag.FlagSet, n, u string) { fs.Float64Var(&o.cfg.PrefixFrac, n, 0.5, u) },
			rejects: []rejection{
				{args: []string{"-prefix-share", "-prefix-frac", "1.5"}, want: "-prefix-frac"},
				{args: []string{"-prefix-groups", "2", "-prefix-frac", "-0.1"}, want: "-prefix-frac"},
				{args: []string{"-prefix-share", "-prefix-frac", "NaN"}, want: "-prefix-frac"},
			},
		},
		{
			name: "replicas", field: "Replicas",
			usage:   "simulated fleet size behind the load balancer",
			add:     func(fs *flag.FlagSet, n, u string) { fs.IntVar(&o.cfg.Replicas, n, 1, u) },
			rejects: []rejection{{args: []string{"-replicas", "-1"}, want: "-replicas"}},
		},
		{
			name: "lb-policy", field: "LBPolicy",
			usage:   "fleet dispatch policy: round-robin|least-loaded|prefix-affinity (default round-robin)",
			add:     parsed(&o.cfg.LBPolicy, serve.ParseLBPolicy),
			rejects: []rejection{{args: []string{"-lb-policy", "random"}, want: "-lb-policy"}},
		},
		{
			name: "topology", field: "Topology",
			usage: "role-aware fleet topology as comma-separated platform:replicas=role groups " +
				"(e.g. cgpu:2=prefill,tdx:4=decode splits prefill and decode across the TEE boundary " +
				"with a priced KV handoff between the stages); replaces -platform and -replicas",
			add: func(fs *flag.FlagSet, n, u string) { fs.StringVar(&o.cfg.Topology, n, "", u) },
			rejects: []rejection{
				{args: []string{"-topology", "cgpu:0=prefill"}, want: "-topology"},
				{args: []string{"-topology", "tdx=writer"}, want: "-topology"},
				{args: []string{"-topology", "cgpu:1=prefill"}, want: "-topology"},
				{args: []string{"-topology", "cgpu:1=prefill,tdx:2=decode", "-replicas", "2"}, want: "mutually exclusive"},
				{args: []string{"-topology", "tdx:2", "-autoscale"}, want: "-autoscale"},
				{args: []string{"-topology", "foo:1"}, want: "-topology"},
			},
		},
		{
			name: "autoscale",
			usage: "simulate an elastic heterogeneous fleet from -classes (ignores -platform, -in, -out, -prefix-groups and -prefix-frac — " +
				"the scenario's shape mixes own the request shapes; rejects -replicas, -lb-policy, -topology and the fault, admission and retry flags)",
			add: func(fs *flag.FlagSet, n, u string) { fs.BoolVar(&o.autoscale, n, false, u) },
			rejects: []rejection{
				{args: []string{"-autoscale", "-fail-mtbf", "60"}, want: "-autoscale"},
				{args: []string{"-autoscale", "-fail-plan", "30"}, want: "-autoscale"},
				{args: []string{"-autoscale", "-retry-max", "2"}, want: "-autoscale"},
				{args: []string{"-autoscale", "-fail-policy", "lost"}, want: "-autoscale"},
				{args: []string{"-autoscale", "-replicas", "2"}, want: "-autoscale"},
				{args: []string{"-autoscale", "-lb-policy", "least-loaded"}, want: "-autoscale"},
			},
		},
		{
			name: "classes", field: "Classes",
			usage: "autoscale replica classes as platform:max[:min], comma-separated (e.g. tdx:4,cgpu:2)",
			add:   func(fs *flag.FlagSet, n, u string) { fs.StringVar(&o.classes, n, "tdx:2", u) },
			check: func() error {
				classes, err := cllm.ParseClasses(o.classes)
				if err != nil {
					return fmt.Errorf("-classes: %w", err)
				}
				o.cfg.Classes = classes
				return nil
			},
			rejects: []rejection{
				{args: []string{"-classes", "tdx:-1:-2"}, want: "-classes"},
				{args: []string{"-classes", "tdx:0"}, want: "-classes"},
				{args: []string{"-classes", ","}, want: "-classes"},
				{args: []string{"-autoscale", "-classes", "foo:2"}, want: "-classes"},
			},
		},
		{
			name: "dispatch", field: "Dispatch",
			usage:   "autoscale dispatch policy: uniform|cost-aware",
			add:     func(fs *flag.FlagSet, n, u string) { fs.StringVar(&o.cfg.Dispatch, n, "cost-aware", u) },
			rejects: []rejection{{args: []string{"-dispatch", "random"}, want: "-dispatch"}},
		},
		{
			name: "no-cold-start", field: "NoColdStart",
			usage: "zero TEE cold starts (counterfactual elasticity baseline)",
			add:   func(fs *flag.FlagSet, n, u string) { fs.BoolVar(&o.cfg.NoColdStart, n, false, u) },
		},
		{
			name: "target-util", field: "TargetUtil",
			usage: "autoscaler target utilization in (0,1] (lower = more headroom) (default 0.7)",
			add:   nonZero(&o.cfg.TargetUtil, 0.7),
			rejects: []rejection{
				{args: []string{"-target-util", "2"}, want: "-target-util"},
				{args: []string{"-target-util", "0"}, want: "-target-util"},
				{args: []string{"-target-util", "NaN"}, want: "-target-util"},
			},
		},
		{
			name: "interval", field: "IntervalSec",
			usage: "autoscaler control period (seconds) (default 15)",
			add:   nonZero(&o.cfg.IntervalSec, 15),
			rejects: []rejection{
				{args: []string{"-interval", "-5"}, want: "-interval"},
				{args: []string{"-interval", "0"}, want: "-interval"},
				{args: []string{"-autoscale", "-interval", "NaN"}, want: "-interval"},
				{args: []string{"-interval", "Inf"}, want: "-interval"},
			},
		},
		{
			name: "quantile-mode", field: "QuantileMode",
			usage:   "latency quantile computation: exact (per-request samples, sorted) or sketch (streaming DDSketch + epoch-sharded simulation — flat memory at any request count) (default exact)",
			add:     parsed(&o.cfg.QuantileMode, serve.ParseQuantileMode),
			rejects: []rejection{{args: []string{"-quantile-mode", "approx"}, want: "-quantile-mode"}},
		},
		{
			name: "sketch-alpha", field: "SketchAlpha",
			usage: "sketch relative error bound in (0,1) (0 = 0.01 default; sketch mode only)",
			add:   func(fs *flag.FlagSet, n, u string) { fs.Float64Var(&o.cfg.SketchAlpha, n, 0, u) },
			rejects: []rejection{
				{args: []string{"-sketch-alpha", "-0.1"}, want: "-sketch-alpha"},
				{args: []string{"-sketch-alpha", "1"}, want: "-sketch-alpha"},
				{args: []string{"-sketch-alpha", "1.5"}, want: "-sketch-alpha"},
				{args: []string{"-quantile-mode", "sketch", "-sketch-alpha", "NaN"}, want: "-sketch-alpha"},
			},
		},
		{
			name: "epoch-requests", field: "EpochRequests",
			usage:   "arrivals scheduled per simulation epoch (0 = 4096, or one epoch for an exact-mode -trace; exact output is the same at any size)",
			add:     func(fs *flag.FlagSet, n, u string) { fs.IntVar(&o.cfg.EpochRequests, n, 0, u) },
			rejects: []rejection{{args: []string{"-epoch-requests", "-1"}, want: "-epoch-requests"}},
		},
		{
			name:  "rate-mults",
			usage: "comma-separated multipliers of -rate swept per platform",
			add:   func(fs *flag.FlagSet, n, u string) { fs.StringVar(&o.rateMults, n, "0.25,0.5,1,1.5,2", u) },
			check: func() error {
				o.mults = o.mults[:0]
				for _, f := range strings.Split(o.rateMults, ",") {
					f = strings.TrimSpace(f)
					if f == "" {
						continue
					}
					m, err := strconv.ParseFloat(f, 64)
					if err != nil || m <= 0 {
						return fmt.Errorf("-rate-mults entry %q is not a positive number", f)
					}
					o.mults = append(o.mults, m)
				}
				if len(o.mults) == 0 {
					return fmt.Errorf("-rate-mults is empty")
				}
				// The artifacts and the attribution record the ×1 point.
				recorded := o.traceOut+o.metricsOut+o.timesOut != "" || o.cfg.Attribution
				if recorded && !o.autoscale && !slices.Contains(o.mults, 1) {
					return fmt.Errorf("-rate-mults %q has no 1, the base-rate point that -trace-out, -metrics-out, -timeseries-out and -attrib record", o.rateMults)
				}
				return nil
			},
			rejects: []rejection{
				{args: []string{"-rate-mults", "0.5,-1"}, want: "-rate-mults"},
				{args: []string{"-rate-mults", "0.5,zero"}, want: "-rate-mults"},
				{args: []string{"-rate-mults", ","}, want: "-rate-mults"},
				{args: []string{"-rate-mults", "2", "-trace-out", "x.json"}, want: "-rate-mults"},
				{args: []string{"-rate-mults", "0.5,2", "-metrics-out", "x.prom"}, want: "-rate-mults"},
				{args: []string{"-rate-mults", "2", "-timeseries-out", "x.csv"}, want: "-rate-mults"},
				{args: []string{"-rate-mults", "2", "-attrib"}, want: "-rate-mults"},
			},
		},
		{
			name: "preempt", field: "PreemptPolicy",
			usage:   "preemption policy: recompute|swap|auto (swap parks KV in a host swap pool at the backend's swap bandwidth; auto picks the cheaper per preemption) (default recompute)",
			add:     parsed(&o.cfg.PreemptPolicy, serve.ParsePreemptPolicy),
			rejects: []rejection{{args: []string{"-preempt", "drop"}, want: "-preempt"}},
		},
		{
			name:  "format",
			usage: "output format: table|csv|json",
			add:   func(fs *flag.FlagSet, n, u string) { fs.StringVar(&o.format, n, "table", u) },
			check: func() error {
				if o.format != "table" && o.format != "csv" && o.format != "json" {
					return fmt.Errorf("unknown -format %q (table|csv|json)", o.format)
				}
				return nil
			},
			rejects: []rejection{{args: []string{"-format", "xml"}, want: "-format"}},
		},
		{
			name:  "trace-out",
			usage: "write a Chrome trace-event JSON timeline (Perfetto-loadable) of the first platform's base-rate run (needs 1 in -rate-mults) to this file",
			add:   func(fs *flag.FlagSet, n, u string) { fs.StringVar(&o.traceOut, n, "", u) },
		},
		{
			name:  "metrics-out",
			usage: "write a Prometheus text-format snapshot of the first platform's base-rate run (needs 1 in -rate-mults) to this file",
			add:   func(fs *flag.FlagSet, n, u string) { fs.StringVar(&o.metricsOut, n, "", u) },
		},
		{
			name:  "timeseries-out",
			usage: "write the windowed CSV time series of the first platform's base-rate run (needs 1 in -rate-mults) to this file",
			add:   func(fs *flag.FlagSet, n, u string) { fs.StringVar(&o.timesOut, n, "", u) },
		},
		{
			name: "obs-window", field: "ObserveWindowSec",
			usage: "observation time-series window in simulated seconds (0 = 1s default)",
			add:   func(fs *flag.FlagSet, n, u string) { fs.Float64Var(&o.cfg.ObserveWindowSec, n, 0, u) },
			rejects: []rejection{
				{args: []string{"-obs-window", "-1"}, want: "-obs-window"},
				{args: []string{"-obs-window", "NaN"}, want: "-obs-window"},
			},
		},
		{
			name: "attrib", field: "Attribution",
			usage: "attribute the observed run's latency to phases (queue/prefill/decode/stall/swap/handoff) and price a clear-hardware counterfactual for the per-phase TEE tax (a -topology or -classes mixing platforms has no single clear twin and reports no tax); attributes the first platform's base-rate run (needs 1 in -rate-mults), or the -autoscale run",
			add:   func(fs *flag.FlagSet, n, u string) { fs.BoolVar(&o.cfg.Attribution, n, false, u) },
		},
		{
			name:  "attrib-out",
			usage: "write the attribution report JSON to this file (requires -attrib)",
			add:   func(fs *flag.FlagSet, n, u string) { fs.StringVar(&o.attribOut, n, "", u) },
			check: func() error { return requiresAttrib(o, "-attrib-out", o.attribOut) },
			rejects: []rejection{
				{args: []string{"-attrib-out", "a.json"}, want: "-attrib-out"},
			},
		},
		{
			name:  "attrib-csv",
			usage: "write the phase-breakdown CSV to this file (requires -attrib)",
			add:   func(fs *flag.FlagSet, n, u string) { fs.StringVar(&o.attribCSV, n, "", u) },
			check: func() error { return requiresAttrib(o, "-attrib-csv", o.attribCSV) },
			rejects: []rejection{
				{args: []string{"-attrib-csv", "a.csv"}, want: "-attrib-csv"},
			},
		},
		{
			name:  "compare",
			usage: "diff the attributed run against a baseline attribution JSON (from -attrib-out); prints movements beyond the sketch error bounds and exits 1 on regression (requires -attrib)",
			add:   func(fs *flag.FlagSet, n, u string) { fs.StringVar(&o.compare, n, "", u) },
			check: func() error { return requiresAttrib(o, "-compare", o.compare) },
			rejects: []rejection{
				{args: []string{"-compare", "base.json"}, want: "-compare"},
			},
		},
		{
			name:  "compare-slack",
			usage: "extra tolerance added to the sketch error bounds when diffing with -compare",
			add:   func(fs *flag.FlagSet, n, u string) { fs.Float64Var(&o.compareSlack, n, 0.02, u) },
		},
		{
			name: "demand-alpha", field: "DemandAlpha",
			usage: "autoscaler EWMA demand-smoothing factor in (0,1]; 0 or 1 keeps the raw one-window estimator",
			add:   func(fs *flag.FlagSet, n, u string) { fs.Float64Var(&o.cfg.DemandAlpha, n, 0, u) },
			rejects: []rejection{
				{args: []string{"-demand-alpha", "3"}, want: "-demand-alpha"},
				{args: []string{"-demand-alpha", "-0.5"}, want: "-demand-alpha"},
				{args: []string{"-demand-alpha", "NaN"}, want: "-demand-alpha"},
			},
		},
		{
			name: "fail-mtbf", field: "Faults.MTBFSec",
			usage: "inject Poisson replica failures with this mean time between failures in seconds (0 = no failures); a crashed replica pays the platform's full TEE cold start before serving again",
			add:   func(fs *flag.FlagSet, n, u string) { fs.Float64Var(&o.cfg.Faults.MTBFSec, n, 0, u) },
			rejects: []rejection{
				{args: []string{"-fail-mtbf", "-1"}, want: "-fail-mtbf"},
				{args: []string{"-fail-mtbf", "60", "-fail-plan", "30"}, want: "-fail-mtbf"},
				{args: []string{"-fail-mtbf", "NaN"}, want: "-fail-mtbf"},
				{args: []string{"-fail-mtbf", "Inf"}, want: "-fail-mtbf"},
			},
		},
		{
			name: "fail-plan", field: "Faults.Plan",
			usage: "inject scripted failures instead: comma-separated replica@seconds points (bare seconds = replica 0) (default none)",
			add:   parsed(&o.cfg.Faults.Plan, serve.ParseFailPlan),
			rejects: []rejection{
				{args: []string{"-fail-plan", "a@30"}, want: "-fail-plan"},
				{args: []string{"-fail-plan", "0@-5"}, want: "-fail-plan"},
			},
		},
		{
			name: "fail-policy", field: "Faults.Policy",
			usage:   "what a crash does to in-flight requests: requeue (restart on recovery) or lost (consume retry budget or drop) (default requeue)",
			add:     parsed(&o.cfg.Faults.Policy, serve.ParseFailurePolicy),
			rejects: []rejection{{args: []string{"-fail-policy", "explode"}, want: "-fail-policy"}},
		},
		{
			name: "admission", field: "Faults.Admission",
			usage: "queue admission policy: fifo|deadline|shed (deadline = EDF order with expired-request drops; shed also rejects requests that cannot start before their deadline) (default fifo)",
			add:   parsed(&o.cfg.Faults.Admission, serve.ParseAdmissionPolicy),
			rejects: []rejection{
				{args: []string{"-admission", "lottery"}, want: "-admission"},
				{args: []string{"-admission", "shed", "-autoscale"}, want: "-autoscale"},
				{args: []string{"-admission", "shed", "-topology", "cgpu:1=prefill,tdx:1=decode"}, want: "-admission"},
			},
		},
		{
			name: "retry-max", field: "Faults.RetryMax",
			usage:   "per-request retry budget for shed and failure-lost requests (0 = no retries)",
			add:     func(fs *flag.FlagSet, n, u string) { fs.IntVar(&o.cfg.Faults.RetryMax, n, 0, u) },
			rejects: []rejection{{args: []string{"-retry-max", "-1"}, want: "-retry-max"}},
		},
		{
			name: "retry-backoff", field: "Faults.RetryBackoffSec",
			usage: "exponential retry backoff base in seconds with deterministic jitter (0 = 1s default; needs -retry-max)",
			add:   func(fs *flag.FlagSet, n, u string) { fs.Float64Var(&o.cfg.Faults.RetryBackoffSec, n, 0, u) },
			rejects: []rejection{
				{args: []string{"-retry-max", "1", "-retry-backoff", "-0.5"}, want: "-retry-backoff"},
				{args: []string{"-retry-backoff", "2"}, want: "-retry-backoff"},
			},
		},
		{
			name: "slo-ttft", field: "TTFTSLOSec",
			usage: "TTFT SLO (seconds)",
			add:   func(fs *flag.FlagSet, n, u string) { fs.Float64Var(&o.cfg.TTFTSLOSec, n, 5, u) },
			rejects: []rejection{
				{args: []string{"-slo-ttft", "-1"}, want: "-slo-ttft"},
				{args: []string{"-slo-ttft", "NaN"}, want: "-slo-ttft"},
			},
		},
		{
			name: "slo-tpot", field: "TPOTSLOSec",
			usage:   "TPOT SLO (seconds/token)",
			add:     func(fs *flag.FlagSet, n, u string) { fs.Float64Var(&o.cfg.TPOTSLOSec, n, 0.5, u) },
			rejects: []rejection{{args: []string{"-slo-tpot", "-0.5"}, want: "-slo-tpot"}},
		},
		{
			name: "sockets", field: "Sockets",
			usage:   "CPU sockets",
			add:     func(fs *flag.FlagSet, n, u string) { fs.IntVar(&o.cfg.Sockets, n, 1, u) },
			rejects: []rejection{{args: []string{"-sockets", "-1"}, want: "-sockets"}},
		},
		{
			name: "seed", field: "Seed",
			usage: "deterministic seed",
			add:   func(fs *flag.FlagSet, n, u string) { fs.Int64Var(&o.cfg.Seed, n, 1, u) },
		},
	}
}

// parsed binds a flag that parses straight into a typed config field
// (zero value = default) with serve's own parser.
func parsed[T any](dst *T, parse func(string) (T, error)) func(fs *flag.FlagSet, name, usage string) {
	return func(fs *flag.FlagSet, name, usage string) {
		fs.Func(name, usage, func(s string) (err error) {
			*dst, err = parse(s)
			return err
		})
	}
}

// nonZero binds a float flag whose default (def) the CLI states: 0 is
// refused, since the API reads 0 as "use the default" (Autoscale's elastic
// defaults, the control loop's), not as the value typed. Validate rejects
// the other out-of-range values.
func nonZero(dst *float64, def float64) func(fs *flag.FlagSet, name, usage string) {
	return func(fs *flag.FlagSet, name, usage string) {
		*dst = def
		fs.Func(name, usage, func(s string) (err error) {
			if *dst, err = strconv.ParseFloat(s, 64); err == nil && *dst == 0 {
				err = errors.New("0 is out of range (omit the flag for the default)")
			}
			return err
		})
	}
}

// requiresAttrib rejects an attribution-consuming flag set without -attrib.
func requiresAttrib(o *options, name, value string) error {
	if value != "" && !o.cfg.Attribution {
		return fmt.Errorf("%s requires -attrib (it consumes the attributed run)", name)
	}
	return nil
}

// registerFlags installs every table entry on the FlagSet.
func registerFlags(fs *flag.FlagSet, table []flagSpec) {
	for _, s := range table {
		s.add(fs, s.name, s.usage)
	}
}

// checkFlags validates the parsed flags before any simulation runs: the
// CLI-only checks in declaration order, then the config through the API's
// Validate, whose rejection it reports against the flag bound to the
// field named — or -autoscale for one an elastic run cannot honour.
// -prefix-share without -prefix-groups defaults the groups to 4 first
// (sharing without declared groups would never hit).
func checkFlags(o *options, table []flagSpec) error {
	for _, s := range table {
		if s.check == nil {
			continue
		}
		if err := s.check(); err != nil {
			return err
		}
	}
	if o.cfg.PrefixSharing && o.cfg.PrefixGroups == 0 {
		o.cfg.PrefixGroups = 4
	}
	err := o.validate()
	var ce *cllm.ConfigError
	switch {
	case errors.Is(err, cllm.ErrNotElastic):
		return fmt.Errorf("-autoscale: %w", err)
	case errors.As(err, &ce):
		for _, s := range table {
			if s.field == ce.Field {
				return fmt.Errorf("-%s: %w", s.name, err)
			}
		}
	}
	return err
}

// validate runs the validator of the run main makes: Autoscale's with
// -autoscale, else Session.Serve's plus Autoscale's on the control-loop
// flags alone, which are checked in every mode.
func (o *options) validate() error {
	if o.autoscale {
		return o.cfg.Validate()
	}
	if err := o.cfg.ServeConfig.Validate(); err != nil {
		return err
	}
	ctl := o.cfg
	ctl.ServeConfig = cllm.ServeConfig{}
	return ctl.Validate()
}
