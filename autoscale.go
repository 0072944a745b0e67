package cllm

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"cllm/internal/autoscale"
	"cllm/internal/serve"
)

// AutoscaleClass selects one replica class of an elastic heterogeneous
// fleet: a platform plus the replica-count bounds the operator allows.
type AutoscaleClass struct {
	// Platform is a Config.Platform name (baremetal, tdx, sgx, cgpu, ...).
	Platform string
	// Min replicas start warm at t=0 (the standing fleet, default 1);
	// the scaler may activate up to Max (default 2).
	Min, Max int
}

// ParseClasses parses a CLI class list: comma-separated "platform:max" or
// "platform:max:min" entries, e.g. "tdx:4,cgpu:2" or "tdx:4:2". Min
// defaults to 1.
func ParseClasses(s string) ([]AutoscaleClass, error) {
	var out []AutoscaleClass
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		parts := strings.Split(item, ":")
		c := AutoscaleClass{Platform: strings.TrimSpace(parts[0]), Min: 1, Max: 2}
		if len(parts) > 3 {
			return nil, fmt.Errorf("cllm: class %q is not platform:max[:min]", item)
		}
		for i, dst := range []*int{&c.Max, &c.Min} {
			if len(parts) > i+1 {
				n, err := strconv.Atoi(strings.TrimSpace(parts[i+1]))
				if err != nil {
					return nil, fmt.Errorf("cllm: class %q: %w", item, err)
				}
				*dst = n
			}
		}
		if err := c.validate(); err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cllm: empty class list %q", s)
	}
	return out, nil
}

// validate rejects a class without a known platform or with replica
// bounds the scaler cannot honour.
func (c AutoscaleClass) validate() error {
	if c.Platform == "" {
		return fmt.Errorf("cllm: replica class has an empty platform")
	}
	if err := checkPlatform(c.Platform); err != nil {
		return err
	}
	switch {
	case c.Max < 1:
		return fmt.Errorf("cllm: class %s has max %d < 1", c.Platform, c.Max)
	case c.Min < 0:
		return fmt.Errorf("cllm: class %s has negative min %d", c.Platform, c.Min)
	case c.Min > c.Max:
		return fmt.Errorf("cllm: class %s has min %d > max %d", c.Platform, c.Min, c.Max)
	}
	return nil
}

// AutoscaleConfig describes an elastic serving run: a traffic scenario
// against a heterogeneous fleet of TEE replica classes behind a reactive
// target-tracking scaler.
//
// The embedded ServeConfig carries the workload, every replica's batching,
// KV-cache and preemption knobs, the SLOs, the quantile mode and the
// observation switches, exactly as in Session.Serve, with elastic
// defaults: Scenario "bursty", RatePerSec 4 and Requests 256. The scenario's
// shape mix replaces InputLen, OutputLen and the Prefix* knobs. Autoscale
// rejects the ServeConfig fields an elastic fleet cannot honour (see
// CheckElastic).
type AutoscaleConfig struct {
	ServeConfig
	// System is the CPU testbed for CPU classes (default EMR1).
	System string
	// Seed drives arrivals and every noise stream.
	Seed int64
	// Classes are the fleet's replica classes (required).
	Classes []AutoscaleClass
	// Dispatch is "uniform" or "cost-aware" (default "cost-aware").
	Dispatch string
	// IntervalSec / TargetUtil tune the control loop (defaults 15 s / 0.7).
	IntervalSec float64
	TargetUtil  float64
	// DemandAlpha smooths the scaler's demand estimate with an EWMA over
	// control windows: demand = alpha*instant + (1-alpha)*previous. 1 (or
	// the 0 default) keeps the raw one-window estimator bit-identically;
	// smaller values trade reaction speed for fewer cold starts under
	// bursty traffic.
	DemandAlpha float64
	// NoColdStart zeroes every class's cold start — the counterfactual
	// baseline quantifying what enclave build + attestation cost at scale.
	NoColdStart bool
}

// AutoscaleClassReport is one class's consumption over the run (replica
// hours, cost, peak size, dispatched requests, cold starts) plus the
// rental rate and probed capacity it was simulated with.
type AutoscaleClassReport struct {
	autoscale.ClassUsage
	HourlyUSD         float64
	CapacityReqPerSec float64
}

// AutoscaleWindow is one control-loop interval of the time series; its
// Active and Available counts are per class, in Classes order.
type AutoscaleWindow = autoscale.Window

// AutoscaleReport summarizes an elastic serving run. The embedded
// ServeReport holds the fleet-wide aggregate (request partition, drop
// taxonomy, throughput, goodput, latency quantiles, KV, prefix-cache and
// swap counters, and Observation and Attrib as in Session.Serve). Its
// fixed-fleet fields stay zero on an elastic report: the deployment
// echoes (Replicas, LBPolicy, Topology) and the SLO pricing (SLOFeasible,
// ReplicasAtSLO, FleetHourlyUSD, USDPerMTokAtSLO) — an elastic fleet is
// priced by ReplicaHours, CostUSD and USDPerMTok below.
type AutoscaleReport struct {
	ServeReport
	Scenario string
	Dispatch string
	// ReplicaHours / CostUSD total the rented fleet over the run;
	// USDPerMTok prices SLO-compliant served tokens (Inf when none).
	ReplicaHours, CostUSD, USDPerMTok float64
	ColdStarts                        int
	Classes                           []AutoscaleClassReport
	Windows                           []AutoscaleWindow
}

// Autoscale simulates cost-aware elastic serving across heterogeneous TEE
// replica classes: each class's backend is opened (and attested) like a
// Session, its cold start is derived from the platform's provisioning
// mechanisms (TD page acceptance, enclave EADD+EEXTEND, bounce-buffered
// weight upload, attestation round-trip), and a reactive target-tracking
// scaler activates and drains replicas as the scenario's arrival process
// moves.
func Autoscale(cfg AutoscaleConfig) (*AutoscaleReport, error) {
	acfg, err := cfg.lower()
	if err != nil {
		return nil, err
	}

	// Each class opens as a sub-session of a host carrying only the run's
	// testbed and seed, exactly as a Session.Serve fleet group does. Its
	// backend's coster is built before the capacity probe, so the probe and
	// every replica of the run share one costing table.
	host := &Session{cfg: Config{System: cfg.System, Seed: cfg.Seed}}
	classes := make([]autoscale.Class, len(cfg.Classes))
	var twin *Session
	for i, ac := range cfg.Classes {
		sess, be, err := host.replica(ac.Platform, cfg.ServeConfig, acfg.Serve)
		if err != nil {
			return nil, err
		}
		c := autoscale.Class{Name: ac.Platform, Backend: be, Min: ac.Min, Max: ac.Max}
		if c.HourlyUSD, err = be.HourlyUSD(); err != nil {
			return nil, err
		}
		if !cfg.NoColdStart {
			c.ColdStartSec = autoscale.ColdStartSec(be, acfg.Serve.Workload)
		}
		if c.CapacityReqPerSec, err = autoscale.ProbeCapacity(be, acfg.Serve); err != nil {
			return nil, err
		}
		classes[i], twin = c, sess
	}
	if slices.ContainsFunc(cfg.Classes, func(c AutoscaleClass) bool { return c.Platform != cfg.Classes[0].Platform }) {
		twin = nil
	}
	rec, attrib, err := cfg.observe(&acfg.Serve, twin, classes[len(classes)-1].Backend)
	if err != nil {
		return nil, err
	}

	rep, err := autoscale.Run(classes, acfg)
	if err != nil {
		return nil, err
	}

	out := &AutoscaleReport{
		ServeReport:  ServeReport{Report: *rep.Aggregate},
		Scenario:     cfg.Scenario,
		Dispatch:     rep.Dispatch,
		ReplicaHours: rep.ReplicaHours,
		CostUSD:      rep.CostUSD,
		USDPerMTok:   rep.USDPerMTok,
		ColdStarts:   rep.ColdStarts,
		Windows:      rep.Windows,
	}
	for i, u := range rep.Usage {
		out.Classes = append(out.Classes, AutoscaleClassReport{
			ClassUsage: u, HourlyUSD: classes[i].HourlyUSD, CapacityReqPerSec: classes[i].CapacityReqPerSec,
		})
	}
	out.attach(rec, attrib)
	return out, nil
}

// Validate reports the first field Autoscale would reject, without opening
// a session: after the elastic defaults, the classes, CheckElastic, the
// embedded ServeConfig as ServeConfig.Validate checks it, and the control
// loop's knobs.
func (cfg AutoscaleConfig) Validate() error {
	_, err := cfg.lower()
	return err
}

// lower fills cfg's elastic defaults in place, validates it and lowers it
// onto the control loop's config.
func (cfg *AutoscaleConfig) lower() (autoscale.Config, error) {
	if cfg.Scenario == "" {
		cfg.Scenario = "bursty"
	}
	if cfg.RatePerSec == 0 {
		cfg.RatePerSec = 4
	}
	if cfg.Requests == 0 {
		cfg.Requests = 256
	}
	acfg := autoscale.Config{Dispatch: autoscale.CostAware, IntervalSec: cfg.IntervalSec,
		TargetUtil: cfg.TargetUtil, DemandAlpha: cfg.DemandAlpha}
	if len(cfg.Classes) == 0 {
		return acfg, serve.FieldError("Classes", "cllm: autoscaling needs at least one replica class")
	}
	for _, c := range cfg.Classes {
		if err := c.validate(); err != nil {
			return acfg, &ConfigError{Field: "Classes", Err: err}
		}
	}
	if err := CheckElastic(cfg.ServeConfig); err != nil {
		return acfg, err
	}
	var err error
	if acfg.Serve, err = cfg.ServeConfig.lower(cfg.Seed); err != nil {
		return acfg, err
	}
	if cfg.Dispatch != "" {
		if acfg.Dispatch, err = autoscale.ParseDispatch(cfg.Dispatch); err != nil {
			return acfg, &ConfigError{Field: "Dispatch", Err: err}
		}
	}
	return acfg, acfg.Validate()
}

// ErrNotElastic is wrapped by every CheckElastic rejection, so a front end
// can tell "not with autoscaling" from an out-of-range value.
var ErrNotElastic = errors.New("autoscaling does not support")

// CheckElastic rejects the ServeConfig fields an elastic fleet cannot
// honour, naming the first one set: Replicas above 1, a non-default
// LBPolicy and a Topology (the classes size and route the fleet), any
// Faults setting (the scaler runs failure-free and open-door).
// AutoscaleConfig.Validate calls it.
func CheckElastic(cfg ServeConfig) error {
	var field string
	switch f := cfg.Faults; {
	case cfg.Replicas > 1:
		field = "Replicas"
	case cfg.LBPolicy != RoundRobin:
		field = "LBPolicy"
	case cfg.Topology != "":
		field = "Topology"
	case f.MTBFSec != 0:
		field = "Faults.MTBFSec"
	case len(f.Plan) > 0:
		field = "Faults.Plan"
	case f.Policy != FailRequeue:
		field = "Faults.Policy"
	case f.Admission != AdmitFIFO:
		field = "Faults.Admission"
	case f.RetryMax != 0:
		field = "Faults.RetryMax"
	case f.RetryBackoffSec != 0:
		field = "Faults.RetryBackoffSec"
	default:
		return nil
	}
	return &ConfigError{Field: field, Err: fmt.Errorf("cllm: %w ServeConfig.%s (run a fixed fleet with Session.Serve)", ErrNotElastic, field)}
}
