package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"cllm"
	"cllm/internal/autoscale"
	"cllm/internal/serve"
)

// parseAndCheck binds a fresh flag table, parses args, and runs the
// validators — the exact path main takes before any simulation runs.
func parseAndCheck(args []string) (*options, error) {
	var o options
	table := flagTable(&o)
	fs := flag.NewFlagSet("cllm-serve", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	registerFlags(fs, table)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return &o, checkFlags(&o, table)
}

func TestFlagTableNamesUnique(t *testing.T) {
	var o options
	seen := map[string]bool{}
	for _, s := range flagTable(&o) {
		if s.name == "" || s.add == nil {
			t.Fatalf("flag spec %+v missing name or registration", s.name)
		}
		if seen[s.name] {
			t.Fatalf("flag -%s declared twice in the table", s.name)
		}
		seen[s.name] = true
	}
}

func TestFlagDefaultsAccepted(t *testing.T) {
	if _, err := parseAndCheck(nil); err != nil {
		t.Fatalf("default flag values rejected: %v", err)
	}
}

func TestFlagAccepts(t *testing.T) {
	cases := [][]string{
		{"-format", "csv", "-obs-window", "0.5", "-sketch-alpha", "0.05"},
		{"-format", "json", "-attrib", "-attrib-out", "a.json", "-attrib-csv", "a.csv", "-compare", "base.json"},
		{"-attrib"},
		{"-autoscale"},
		{"-autoscale", "-classes", "tdx:1,cgpu:1", "-attrib", "-attrib-out", "a.json", "-attrib-csv", "a.csv", "-compare", "base.json"},
		{"-fail-mtbf", "120", "-fail-policy", "requeue", "-admission", "shed", "-retry-max", "3", "-retry-backoff", "0.5"},
		{"-fail-plan", "0@30,1@45.5", "-fail-policy", "lost"},
		{"-fail-plan", "30"},
		{"-admission", "deadline"},
		{"-retry-max", "2"},
		{"-autoscale", "-admission", "fifo"},
		{"-autoscale", "-replicas", "1", "-lb-policy", "round-robin", "-fail-policy", "requeue"},
		{"-autoscale", "-classes", "tdx:3:2,cgpu:1:0", "-dispatch", "uniform", "-demand-alpha", "0.5", "-target-util", "1", "-interval", "5"},
		{"-topology", "cgpu:2=prefill,tdx:4=decode"},
		{"-topology", "tdx:4"},
		{"-topology", "tdx=decode,cgpu=prefill", "-lb-policy", "least-loaded"},
		{"-preempt", "auto", "-quantile-mode", "sketch", "-rate-mults", "1,2"},
		{"-replicas", "2", "-lb-policy", "rr"},
		{"-replicas", "2", "-lb-policy", "ll"},
		{"-replicas", "2", "-lb-policy", "pa"},
		{"-replicas", "2", "-lb-policy", "affinity"},
		{"-autoscale", "-lb-policy", "rr"},
		{"-prefix-share", "-prefix-frac", "0"},
		{"-prefix-frac", "1.5"},
		{"-quantile-mode", "sketch", "-epoch-requests", "64"},
	}
	for _, args := range cases {
		if _, err := parseAndCheck(args); err != nil {
			t.Errorf("flags %v rejected: %v", args, err)
		}
	}
}

// TestFlagsBindConfig checks that the simulation flags land straight in
// the AutoscaleConfig (and its ServeConfig) that main hands to cllm.
func TestFlagsBindConfig(t *testing.T) {
	o, err := parseAndCheck([]string{"-model", "llama2-13b", "-rate", "3", "-batch", "8",
		"-fail-mtbf", "60", "-classes", "tdx:3:2", "-interval", "5", "-system", "EMR2", "-seed", "9",
		"-lb-policy", "pa", "-preempt", "swap", "-quantile-mode", "sketch", "-admission", "edf"})
	if err != nil {
		t.Fatal(err)
	}
	c := o.cfg
	if c.Model != "llama2-13b" || c.RatePerSec != 3 || c.MaxBatch != 8 || c.Faults.MTBFSec != 60 ||
		c.IntervalSec != 5 || c.System != "EMR2" || c.Seed != 9 || c.TargetUtil != 0.7 {
		t.Fatalf("flags not bound into the config: %+v", c)
	}
	if c.LBPolicy != cllm.PrefixAffinity || c.PreemptPolicy != cllm.PreemptSwap ||
		c.QuantileMode != cllm.QuantileSketch || c.Faults.Admission != cllm.AdmitDeadline {
		t.Fatalf("policy flags not parsed into the typed fields: %+v", c.ServeConfig)
	}
	o, err = parseAndCheck([]string{"-fail-plan", "1@30,45", "-fail-policy", "lost"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []cllm.FailPoint{{Replica: 1, TimeSec: 30}, {TimeSec: 45}}; !reflect.DeepEqual(o.cfg.Faults.Plan, want) ||
		o.cfg.Faults.Policy != cllm.FailLost {
		t.Fatalf("fault flags bound %+v, want plan %+v and policy lost", o.cfg.Faults, want)
	}
	if want := []cllm.AutoscaleClass{{Platform: "tdx", Min: 2, Max: 3}}; !reflect.DeepEqual(c.Classes, want) {
		t.Fatalf("-classes bound %+v, want %+v", c.Classes, want)
	}
}

// TestFlagRejections regenerates its cases from the flag table: every
// spec's rejection examples must fail parse-or-check with an error that
// names the offending flag.
func TestFlagRejections(t *testing.T) {
	var o options
	for _, spec := range flagTable(&o) {
		for i, rej := range spec.rejects {
			t.Run(fmt.Sprintf("%s/%d", spec.name, i), func(t *testing.T) {
				_, err := parseAndCheck(rej.args)
				if err == nil {
					t.Fatalf("args %v accepted; want rejection mentioning %q", rej.args, rej.want)
				}
				if rej.want != "" && !strings.Contains(err.Error(), rej.want) {
					t.Fatalf("args %v rejected with %q; want it to mention %q", rej.args, err, rej.want)
				}
			})
		}
	}
}

// TestFlagValidatorsHaveRejections keeps the table honest: every field
// Validate can reject has a flag rejection example, and every CLI-only
// validator ships one too, so the rejection test exercises every
// validated flag. A flag's field is found rejectable by probing it with
// generic bad values through the flag path; each bound field must name a
// real AutoscaleConfig field, or its rejections would never map back.
func TestFlagValidatorsHaveRejections(t *testing.T) {
	var o options
	for _, spec := range flagTable(&o) {
		if spec.check != nil && len(spec.rejects) == 0 {
			t.Errorf("flag -%s has a validator but no rejection examples", spec.name)
		}
		if spec.field == "" {
			continue
		}
		if !hasField(reflect.TypeOf(cllm.AutoscaleConfig{}), spec.field) {
			t.Errorf("flag -%s binds %q, which is not an AutoscaleConfig field", spec.name, spec.field)
		}
		for _, v := range []string{"-1", "0", "2", "1.5", "nope"} {
			_, err := parseAndCheck([]string{"-" + spec.name + "=" + v})
			var ce *cllm.ConfigError
			if errors.As(err, &ce) && ce.Field == spec.field && len(spec.rejects) == 0 {
				t.Errorf("Validate rejects %s (-%s %s: %v) but the flag has no rejection examples", spec.field, spec.name, v, err)
			}
		}
	}
}

// hasField reports whether the dotted selector path names a field of t.
func hasField(t reflect.Type, path string) bool {
	for _, name := range strings.Split(path, ".") {
		f, ok := t.FieldByName(name)
		if !ok {
			return false
		}
		t = f.Type
	}
	return true
}

// TestFlagRejectionsMatchAPI: the CLI and the API reject through one
// validator. For every rejection example that Validate refuses, the same
// parsed config sent through Session.Serve (or Autoscale, for -autoscale
// runs and the control-loop fields) fails with exactly the CLI's error
// minus its flag prefix. Parse errors and CLI-only checks have no config
// to apply and are skipped.
func TestFlagRejectionsMatchAPI(t *testing.T) {
	sess, err := cllm.Open(cllm.Config{Platform: "tdx", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	serveType := reflect.TypeOf(cllm.ServeConfig{})
	var table options
	compared := 0
	for _, spec := range flagTable(&table) {
		for _, rej := range spec.rejects {
			o, cliErr := parseAndCheck(rej.args)
			var ce *cllm.ConfigError
			if o == nil || !errors.As(cliErr, &ce) {
				continue
			}
			var apiErr error
			if o.autoscale || !hasField(serveType, ce.Field) {
				_, apiErr = cllm.Autoscale(o.cfg)
			} else {
				_, apiErr = sess.Serve(o.cfg.ServeConfig)
			}
			_, want, _ := strings.Cut(cliErr.Error(), ": ")
			if apiErr == nil || apiErr.Error() != want {
				t.Errorf("args %v: CLI rejects with %q, API returns %v", rej.args, cliErr, apiErr)
			}
			compared++
		}
	}
	if compared == 0 {
		t.Fatal("no rejection example reached Validate")
	}
}

// TestUsageNamesEverySpelling: the usage of each enum flag names every
// spelling its type declares, so a value added to a spelling table cannot
// leave -help stale.
func TestUsageNamesEverySpelling(t *testing.T) {
	var o options
	usage := map[string]string{}
	for _, spec := range flagTable(&o) {
		usage[spec.name] = spec.usage
	}
	for flag, names := range map[string][]string{
		"lb-policy":     spellings[serve.LBPolicy](),
		"preempt":       spellings[serve.PreemptPolicy](),
		"quantile-mode": spellings[serve.QuantileMode](),
		"fail-policy":   spellings[serve.FailurePolicy](),
		"admission":     spellings[serve.AdmissionPolicy](),
		"dispatch":      spellings[autoscale.Dispatch](),
	} {
		if len(names) < 2 {
			t.Errorf("-%s: walked %d spellings %v, want every declared value", flag, len(names), names)
		}
		for _, name := range names {
			if !strings.Contains(usage[flag], name) {
				t.Errorf("-%s usage %q does not name the spelling %q", flag, usage[flag], name)
			}
		}
	}
}

// spellings walks an enum's values from 0 until String prints the
// undeclared form Type(n), returning the declared names in value order.
func spellings[T interface {
	~int
	String() string
}]() []string {
	var names []string
	for v := T(0); ; v++ {
		s := v.String()
		if s == fmt.Sprintf("%s(%d)", reflect.TypeOf(v).Name(), int(v)) {
			return names
		}
		names = append(names, s)
	}
}
