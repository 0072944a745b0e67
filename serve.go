package cllm

import (
	"fmt"
	"math"
	"strings"

	"cllm/internal/cloud"
	"cllm/internal/model"
	"cllm/internal/obs"
	"cllm/internal/perf"
	"cllm/internal/serve"
	"cllm/internal/trace"
	"cllm/internal/workload"
)

// ServeConfig describes an open-loop serving run: a Poisson stream of
// requests against a continuous-batching server on the session's platform.
type ServeConfig struct {
	// Model is a zoo name (default "llama2-7b"); DType as in Workload.
	Model string
	DType string
	// InputLen / OutputLen are mean request lengths (defaults 128 / 32);
	// individual requests jitter ±25% around them.
	InputLen, OutputLen int
	// RatePerSec is the Poisson arrival rate (required), or the scenario's
	// mean rate when Scenario is set.
	RatePerSec float64
	// Scenario synthesizes arrivals from a workload traffic scenario
	// instead of the plain Poisson process: an arrival process ("poisson",
	// "bursty", "diurnal", "ramp"), a request-shape mix ("chat", "rag",
	// "agentic"), or "arrivals+mix" (e.g. "diurnal+rag"). The scenario's
	// shapes replace InputLen/OutputLen and the Prefix* knobs.
	Scenario string
	// Requests is the number of arrivals to simulate (default 64).
	Requests int
	// Knobs are the batching, prefix, preemption, SLO, quantile and fault
	// knobs (see Knobs), set as fields of ServeConfig.
	Knobs
	// Replicas simulates a load-balanced fleet of this size instead of a
	// single replica (default 1). The offered rate is the fleet rate.
	Replicas int
	// LBPolicy picks the fleet dispatch policy: RoundRobin (the zero
	// value), LeastLoaded or PrefixAffinity.
	LBPolicy LBPolicy
	// Topology simulates a role-aware fleet instead of Replicas identical
	// copies of the session platform: comma-separated
	// "platform:replicas=role" groups, e.g. "cgpu:2=prefill,tdx:4=decode"
	// splits prefill and decode across the TEE boundary with an explicitly
	// priced KV handoff between the stages (source drain at the prefill
	// side's swap bandwidth, a NIC transfer, ingest at the decode side).
	// Each group's platform opens as a sub-session of this one (same
	// testbed, seed and attestation policy); LBPolicy applies to both
	// stages. Mutually exclusive with Replicas > 1.
	Topology string
	// Sockets selects the CPU deployment's socket count (default 1; every
	// core of each socket serves).
	Sockets int
	// Observe records the run's per-request lifecycle event stream and
	// windowed time series and attaches the rendered artifacts (Perfetto
	// trace, Prometheus snapshot, CSV time series) to the report as
	// Observation. Off by default: the disabled path costs nothing.
	Observe bool
	// ObserveWindowSec is the time-series sampling window in simulated
	// seconds (0 = default 1 s). Memory stays bounded regardless: when a
	// run outgrows the window budget, windows coalesce and the width
	// doubles.
	ObserveWindowSec float64
	// Attribution folds the run's event stream into per-request phase
	// vectors (queue wait, prefill, decode, preemption stall, swap
	// transfer — summing exactly to each request's latency) and prices a
	// clear-hardware counterfactual alongside the real run to attribute
	// the per-phase TEE tax. The result is attached as Attrib; with
	// Observe also set, the observation artifacts gain the phase CSV,
	// phase histogram families and Perfetto counter tracks. Memory stays
	// bounded by in-flight requests, so it composes with sketch mode on
	// 10⁸-request runs. Off by default.
	Attribution bool
}

// The serving policy types are the simulator's own, re-exported so
// ServeConfig takes parsed values: a field holds one of the constants
// below, and the simulator rejects anything else by name.
type (
	// Knobs are the per-replica serving knobs ServeConfig embeds. The
	// simulator's own config embeds the same struct, so each knob is
	// declared and range-checked once.
	Knobs = serve.Knobs
	// ConfigError is every rejection ServeConfig.Validate and
	// AutoscaleConfig.Validate return: Field names the field at fault by
	// its selector path (e.g. "MaxBatch", "Faults.RetryMax").
	ConfigError = serve.ConfigError
	// LBPolicy is a fleet's dispatch policy.
	LBPolicy = serve.LBPolicy
	// PreemptPolicy is what a KV-pool preemption does with the victim's
	// cache.
	PreemptPolicy = serve.PreemptPolicy
	// QuantileMode selects exact or sketched latency quantiles.
	QuantileMode = serve.QuantileMode
	// FaultConfig groups a run's resilience knobs: Poisson (MTBFSec) or
	// scripted (Plan) replica failures paying the platform's full TEE
	// cold start, what a crash does to in-flight requests (Policy), queue
	// admission (Admission) and the retry budget and backoff.
	FaultConfig = serve.FaultConfig
	// FailPoint is one scripted crash of FaultConfig.Plan.
	FailPoint = serve.FailPoint
)

// The policy values ServeConfig accepts; each type's zero value is its
// default.
const (
	RoundRobin     = serve.RoundRobin
	LeastLoaded    = serve.LeastLoaded
	PrefixAffinity = serve.PrefixAffinity

	PreemptRecompute = serve.PreemptRecompute
	PreemptSwap      = serve.PreemptSwap
	PreemptAuto      = serve.PreemptAuto

	QuantileExact  = serve.QuantileExact
	QuantileSketch = serve.QuantileSketch

	FailRequeue = serve.FailRequeue
	FailLost    = serve.FailLost

	AdmitFIFO     = serve.AdmitFIFO
	AdmitDeadline = serve.AdmitDeadline
	AdmitShed     = serve.AdmitShed
)

// ServeReport summarizes a serving run. The embedded simulator report
// carries the request partition and drop taxonomy, throughput and goodput,
// the TTFT, TPOT and end-to-end latency quantiles, the KV, prefix-cache,
// swap and handoff counters and, in exact mode, the per-request outcomes;
// the fields below add the deployment echoes, the SLO-aware cost and the
// attached artifacts.
type ServeReport struct {
	serve.Report
	// Replicas and LBPolicy echo the simulated deployment (1 replica uses
	// no load balancer). Topology echoes the role-group layout of a
	// disaggregated run ("" otherwise).
	Replicas int
	LBPolicy string
	Topology string
	// SLO-aware cost. With Replicas == 1 the fleet is *extrapolated*: sized
	// so the offered rate fits the measured per-replica SLO-compliant rate.
	// With Replicas > 1 the fleet is *simulated*: ReplicasAtSLO echoes the
	// configured size and USDPerMTokAtSLO prices the whole rented fleet
	// over its simulated SLO-compliant token rate. SLOFeasible is false
	// when no request was served within SLO.
	SLOFeasible     bool
	ReplicasAtSLO   int
	FleetHourlyUSD  float64
	USDPerMTokAtSLO float64
	// Observation holds the rendered observability artifacts (nil unless
	// ServeConfig.Observe was set).
	Observation *ServeObservation
	// Attrib holds the latency attribution and TEE-tax decomposition (nil
	// unless ServeConfig.Attribution was set).
	Attrib *obs.AttribReport
}

// Serve runs the continuous-batching serving simulator on the session's
// platform and reports throughput, tail latency and SLO-aware cost. TEE
// mechanisms (memory encryption, enclave paging, bounce buffers) flow into
// every scheduler iteration through the same roofline the single-request
// Measure path uses.
func (s *Session) Serve(cfg ServeConfig) (*ServeReport, error) {
	scfg, err := cfg.lower(s.cfg.Seed)
	if err != nil {
		return nil, err
	}
	rec, attrib, err := cfg.observe(&scfg)
	if err != nil {
		return nil, err
	}
	be := s.backend(cfg)
	if cfg.Topology == "" {
		// Reuse the session's memoized costing table for this deployment
		// shape: sweeps calling Serve repeatedly re-cost identical iteration
		// shapes from the table (bit-identical floats; see
		// serve.Backend.Coster). Topology runs skip the memo — each role
		// group's backend gets its own table inside Fleet.Run, keyed by
		// nothing the session cache distinguishes (two CPU TEEs share a
		// deployment shape but not a cost model).
		be.Coster, err = s.costerFor(be, scfg, false)
		if err != nil {
			return nil, err
		}
		if attrib != nil {
			// The clear-twin coster shares the session memo too: sweeps
			// re-price the counterfactual from the same table. A topology
			// run has no single clear twin (each group would need its own),
			// so its attribution reports zero TEE tax.
			scfg.ClearCoster, err = s.costerFor(be, scfg, true)
			if err != nil {
				return nil, err
			}
		}
	}

	var rep *serve.Report
	var fleet *serve.FleetReport
	var fleetHourly float64
	switch {
	case cfg.Topology != "":
		fleet, fleetHourly, err = s.runTopology(cfg, scfg)
		if err != nil {
			return nil, err
		}
		rep = fleet.Aggregate
	case cfg.Replicas > 1:
		fleet, err = serve.RunFleet(be, scfg, serve.FleetConfig{Replicas: cfg.Replicas, Policy: cfg.LBPolicy})
		if err != nil {
			return nil, err
		}
		rep = fleet.Aggregate
	default:
		rep, err = serve.Run(be, scfg)
		if err != nil {
			return nil, err
		}
	}

	out := ServeReport{Report: *rep, Replicas: 1}
	if attrib != nil {
		out.Attrib = attrib.Report(rep.Platform)
	}
	if rec != nil {
		out.Observation = buildObservation(rec, attrib, rep)
		rec.Recycle()
	}

	if cfg.Topology == "" {
		hourly, err := s.serveHourlyUSD(cfg)
		if err != nil {
			return nil, err
		}
		if fleet == nil {
			if cost, err := rep.CostAtSLO(hourly); err == nil {
				out.SLOFeasible = true
				out.ReplicasAtSLO = cost.Replicas
				out.FleetHourlyUSD = cost.FleetHourlyUSD
				out.USDPerMTokAtSLO = cost.USDPerMTok
			}
			return &out, nil
		}
		fleetHourly = hourly * float64(cfg.Replicas)
	}
	// A simulated fleet is priced from its total rent (a topology mixes
	// rental rates, so runTopology summed them per group).
	out.Replicas = len(fleet.PerReplica)
	out.LBPolicy = fleet.Policy
	out.Topology = fleet.Topology
	out.ReplicasAtSLO = out.Replicas
	out.FleetHourlyUSD = fleetHourly
	if usd, err := fleet.CostPerMTok(fleetHourly); err == nil {
		out.SLOFeasible = true
		out.USDPerMTokAtSLO = usd
	}
	return &out, nil
}

// Validate reports the first field Session.Serve would reject, without
// running anything. RatePerSec is required; otherwise a negative count,
// length, rate or duration is rejected and zero selects the default.
func (cfg ServeConfig) Validate() error {
	_, err := cfg.lower(0)
	return err
}

// lower validates cfg and lowers it onto serve.Config for a run seeded
// with seed: first the fields only this layer has, then serve's own
// checks on a copy, their field names mapped back onto ServeConfig's.
func (cfg ServeConfig) lower(seed int64) (serve.Config, error) {
	var scfg serve.Config
	switch {
	case !(cfg.RatePerSec > 0) || math.IsInf(cfg.RatePerSec, 1):
		return scfg, serve.FieldError("RatePerSec", "cllm: serving needs a positive finite arrival rate, got %g", cfg.RatePerSec)
	case cfg.Replicas < 0:
		return scfg, serve.FieldError("Replicas", "cllm: replica count %d is negative (0 selects the default)", cfg.Replicas)
	case cfg.Sockets < 0:
		return scfg, serve.FieldError("Sockets", "cllm: socket count %d is negative (0 selects the default)", cfg.Sockets)
	case math.IsNaN(cfg.ObserveWindowSec) || math.IsInf(cfg.ObserveWindowSec, 0):
		return scfg, serve.FieldError("ObserveWindowSec", "cllm: observation window %g is not finite", cfg.ObserveWindowSec)
	case cfg.ObserveWindowSec < 0:
		return scfg, serve.FieldError("ObserveWindowSec", "cllm: observation window %g is negative (0 selects the default)", cfg.ObserveWindowSec)
	}
	if err := cfg.LBPolicy.Validate(); err != nil {
		return scfg, &ConfigError{Field: "LBPolicy", Err: err}
	}
	if cfg.Topology != "" {
		_, topo, err := roleGroups(cfg.Topology)
		if err != nil {
			return scfg, &ConfigError{Field: "Topology", Err: err}
		}
		if cfg.Replicas > 1 {
			return scfg, serve.FieldError("Topology", "cllm: Topology and Replicas > 1 are mutually exclusive (the topology fixes the fleet size)")
		}
		if err := topo.CheckFaults(cfg.Faults); err != nil {
			return scfg, err
		}
	}
	if cfg.Model == "" {
		cfg.Model = "llama2-7b"
	}
	kind, err := parseDType(cfg.DType)
	if err != nil {
		return scfg, &ConfigError{Field: "DType", Err: err}
	}
	mcfg, err := model.Lookup(cfg.Model)
	if err != nil {
		return scfg, &ConfigError{Field: "Model", Err: err}
	}
	var scenario *workload.Scenario
	if cfg.Scenario != "" {
		sc, err := workload.ParseScenario(cfg.Scenario, cfg.RatePerSec)
		if err != nil {
			return scfg, &ConfigError{Field: "Scenario", Err: err}
		}
		scenario = &sc
	}
	scfg = serve.Config{
		Workload: trace.Workload{Model: mcfg, Kind: kind, InputLen: cfg.InputLen, OutputLen: cfg.OutputLen},
		Rate:     cfg.RatePerSec,
		Scenario: scenario,
		Requests: cfg.Requests,
		Seed:     seed,
		Knobs:    cfg.Knobs,
	}
	if err := scfg.Validate(); err != nil {
		if ce, ok := err.(*ConfigError); ok {
			ce.Field = strings.TrimPrefix(ce.Field, "Workload.")
		}
		return scfg, err
	}
	return scfg, nil
}

// observe builds the recorder and attribution engine cfg's Observe and
// Attribution ask for (nil when off) and chains them onto scfg.
func (cfg ServeConfig) observe(scfg *serve.Config) (*obs.Recorder, *obs.Attribution, error) {
	var rec *obs.Recorder
	if cfg.Observe {
		rec = obs.NewRecorderWindow(cfg.ObserveWindowSec, 512)
	}
	var attrib *obs.Attribution
	if cfg.Attribution {
		var err error
		attrib, err = obs.NewAttributionWindow(cfg.SketchAlpha, true, cfg.ObserveWindowSec, 512)
		if err != nil {
			return nil, nil, err
		}
	}
	scfg.Observer = obs.Multi(rec, attrib)
	return rec, attrib, nil
}

// roleGroups parses a Topology into its groups and the role-aware fleet
// they describe, without backends, and checks the platform names and the
// role structure (all unified, or prefill plus decode) by building that
// fleet backend-free, so a bad topology fails before any group's session
// opens.
func roleGroups(topology string) ([]TopologyGroup, serve.Topology, error) {
	var topo serve.Topology
	groups, err := ParseTopology(topology)
	if err != nil {
		return nil, topo, err
	}
	for _, g := range groups {
		if err := checkPlatform(g.Platform); err != nil {
			return nil, topo, err
		}
		role, _ := serve.ParseRole(g.Role) // ParseTopology checked it
		topo.Groups = append(topo.Groups, serve.RoleGroup{Role: role, Replicas: g.Replicas})
	}
	if _, err := serve.NewFleet(topo); err != nil {
		return nil, topo, err
	}
	return groups, topo, nil
}

// runTopology builds and runs a role-aware fleet from the -topology
// syntax. Each group's platform opens as a sub-session of this one (same
// testbed, enclave size, seed and attestation policy) and contributes
// Replicas backends at that platform's rental rate; the returned hourly
// figure is the whole fleet's rent. Backends carry no pre-built coster —
// Fleet.Run builds one per group, shared by the group's replicas.
func (s *Session) runTopology(cfg ServeConfig, scfg serve.Config) (*serve.FleetReport, float64, error) {
	groups, topo, err := roleGroups(cfg.Topology)
	if err != nil {
		return nil, 0, err
	}
	totalHourly := 0.0
	for i, g := range groups {
		sub, err := Open(Config{
			Platform:        g.Platform,
			System:          s.cfg.System,
			EnclaveSize:     s.cfg.EnclaveSize,
			SkipAttestation: s.cfg.SkipAttestation,
			Seed:            s.cfg.Seed,
		})
		if err != nil {
			return nil, 0, fmt.Errorf("cllm: topology group %q: %w", g.Platform, err)
		}
		hourly, err := sub.serveHourlyUSD(cfg)
		if err != nil {
			return nil, 0, err
		}
		totalHourly += hourly * float64(g.Replicas)
		topo.Groups[i].Backend = sub.backend(cfg)
		topo.Groups[i].Policy = cfg.LBPolicy
	}
	f, err := serve.NewFleet(topo)
	if err != nil {
		return nil, 0, err
	}
	rep, err := f.Run(scfg)
	return rep, totalHourly, err
}

// backend returns the serve.Backend for one replica of the session's
// platform in cfg's CPU deployment (Sockets, every core of each socket;
// ignored on a GPU), seeded like the session. Its Coster is left nil.
func (s *Session) backend(cfg ServeConfig) serve.Backend {
	be := serve.Backend{IsGPU: s.isGPU}
	if s.isGPU {
		be.GPU = perf.GPURun{GPU: s.gpu, Platform: s.platform, Seed: s.cfg.Seed}
	} else {
		be.CPU = perf.CPURun{
			CPU: s.cpu, Platform: s.platform,
			Sockets: cfg.Sockets, AMX: true, Seed: s.cfg.Seed,
		}
	}
	return be
}

// costerFor returns the session's shared step coster for one serving
// deployment shape, building it on first use. With clear set it returns
// the clear-hardware twin instead (the counterfactual side of TEE-tax
// attribution), cached under a key disjoint from the real costers'.
func (s *Session) costerFor(be serve.Backend, scfg serve.Config, clear bool) (*perf.StepCoster, error) {
	key := fmt.Sprintf("%s|%s|%d|%v",
		scfg.Workload.Model.Name, scfg.Workload.Kind, be.CPU.Sockets, be.IsGPU)
	build := serve.NewStepCoster
	if clear {
		key += "|clear"
		build = serve.NewClearStepCoster
	}
	s.costerMu.Lock()
	defer s.costerMu.Unlock()
	if c, ok := s.costers[key]; ok {
		return c, nil
	}
	c, err := build(be, scfg)
	if err != nil {
		return nil, err
	}
	if s.costers == nil {
		s.costers = make(map[string]*perf.StepCoster)
	}
	s.costers[key] = c
	return c, nil
}

// serveHourlyUSD prices one replica of the session's deployment.
func (s *Session) serveHourlyUSD(cfg ServeConfig) (float64, error) {
	prices := cloud.DefaultPrices()
	if s.isGPU {
		return prices.CGPUHour, nil
	}
	return prices.HourlyCost(cloud.CPUInstance{VCPUs: s.cpu.CoresPerSocket * max(cfg.Sockets, 1), MemGiB: 128})
}
