package cllm

import (
	"fmt"

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
	// MaxBatch caps concurrent sequences (default 32).
	MaxBatch int
	// BlockTokens is the paged KV-cache block size (default 16 tokens).
	BlockTokens int
	// ChunkTokens caps prompt tokens prefilled per scheduler iteration
	// (chunked prefill): bounds the decode stall long prompts impose on
	// in-flight requests at the cost of higher TTFT. 0 keeps monolithic
	// prefills.
	ChunkTokens int
	// PrefixSharing enables block-level prefix-cache sharing: requests
	// with a common prompt prefix reuse its KV blocks (refcounted, LRU
	// eviction) instead of recomputing and re-storing them.
	PrefixSharing bool
	// PrefixGroups makes synthetic arrivals share prompt prefixes across
	// this many groups (RAG-style traffic); 0 disables. PrefixFrac is the
	// shared fraction of the mean prompt (default 0.5 when groups are set).
	PrefixGroups int
	PrefixFrac   float64
	// Replicas simulates a load-balanced fleet of this size instead of a
	// single replica (default 1). The offered rate is the fleet rate.
	Replicas int
	// LBPolicy picks the fleet dispatch policy:
	// round-robin|least-loaded|prefix-affinity (default round-robin).
	LBPolicy string
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
	// Sockets / Cores select the CPU deployment as in MeasureOptions.
	Sockets, Cores int
	// TTFTSLOSec / TPOTSLOSec are SLO targets (defaults 5s / 0.5s).
	TTFTSLOSec, TPOTSLOSec float64
	// CostBucket quantizes the scheduler's memoized step costing (tokens):
	// contexts are costed at their bucket midpoint, raising table hit rates
	// in large sweeps at a bounded modeled-time error. Default 1 = exact
	// (bit-identical to the unmemoized cost model).
	CostBucket int
	// PreemptPolicy selects what a KV-pool preemption does with the
	// victim's cache: "recompute" (default, vLLM-style full re-prefill),
	// "swap" (park the computed entries in a bounded host swap pool at the
	// backend's swap bandwidth — cGPU pays the encrypted bounce buffer,
	// CPU TEEs a near-native memcpy — and restore them on resume), or
	// "auto" (per preemption, whichever the memoized transfer-vs-recompute
	// estimate prices cheaper).
	PreemptPolicy string
	// SwapPoolFrac sizes the host swap pool as a fraction of the device KV
	// pool (0 = default 1.0; negative disables). Ignored under "recompute".
	SwapPoolFrac float64
	// QuantileMode selects how latency quantiles are computed: "exact"
	// (default — per-request samples retained and sorted, byte-identical to
	// prior releases) or "sketch" (streaming DDSketch summaries with a
	// documented relative error bound and O(1) memory in the request
	// count — the mode that makes 10⁸-request runs fit in a flat heap).
	QuantileMode string
	// SketchAlpha is the sketch's relative error bound (0 = default 0.01).
	// Only meaningful with QuantileMode "sketch".
	SketchAlpha float64
	// EpochRequests shards the simulation horizon: arrivals are scheduled
	// in epochs of this many requests, with scheduler/KV/prefix-cache state
	// handed warm across the boundary (0 = 65536 in sketch mode, unsharded
	// in exact mode; setting it explicitly in exact mode forces the sharded
	// scheduler path, which stays byte-identical to the monolithic one).
	EpochRequests int
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
	// Faults groups the fault-injection, admission-control and retry knobs
	// (see FaultConfig).
	Faults FaultConfig
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

// FaultConfig groups a serving run's resilience knobs — fault injection,
// queue admission and retries — mirroring serve.FaultConfig with the CLI's
// string spellings.
type FaultConfig struct {
	// MTBFSec injects Poisson replica failures with this mean time
	// between failures (seconds, per replica; 0 disables). A failed
	// replica loses all in-flight KV state and pays the platform's full
	// TEE cold start (reboot, weight provisioning, enclave/TD rebuild,
	// attestation) before serving again.
	MTBFSec float64
	// Plan injects scripted failures instead: comma-separated
	// "replica@seconds" points (bare "seconds" means replica 0).
	Plan string
	// Policy says what a crash does to the victims' requests: "requeue"
	// (default — they restart from scratch on recovery) or "lost" (they
	// consume retry budget or drop).
	Policy string
	// Admission selects the queue-admission policy: "fifo" (default),
	// "deadline" (EDF order, expired requests dropped) or "shed" (EDF
	// plus early rejection of requests that cannot start before their
	// deadline).
	Admission string
	// RetryMax is the per-request retry budget for shed and failure-lost
	// requests (0 = no retries).
	RetryMax int
	// RetryBackoffSec is the base of the exponential retry backoff with
	// deterministic jitter (0 = default 1 s when RetryMax > 0).
	RetryBackoffSec float64
}

// ServeReport summarizes a serving run: load-level throughput and tail
// latency, SLO attainment, and the cost of SLO-compliant serving.
type ServeReport struct {
	Platform    string
	OfferedRate float64
	// Completed/Dropped/Unfinished partition the offered requests.
	Completed, Dropped, Unfinished int
	Preemptions                    int
	// DroppedByReason splits Dropped by cause, indexed by serve.DropReason
	// (kv-exhausted, admission-shed, deadline-expired, failure-lost).
	DroppedByReason [serve.NumDropReasons]int
	// Sheds counts admission-control rejections (a shed request may still
	// retry and complete); Retries counts backoff re-entries.
	Sheds, Retries int
	// Crashes counts injected replica failures; DowntimeSec sums the TEE
	// cold-start recovery they paid.
	Crashes     int
	DowntimeSec float64
	// TotalTokens is the deployment's output-token production.
	// TokensPerSec is aggregate generation throughput; goodput counts only
	// tokens of requests that met the SLO.
	TotalTokens         int
	TokensPerSec        float64
	GoodputTokensPerSec float64
	// SLOAttainment is the fraction of offered requests served within SLO.
	SLOAttainment float64
	// Tail latency (seconds).
	TTFTp50, TTFTp95, TTFTp99 float64
	TPOTMean, TPOTp99         float64
	LatencyP50, LatencyP99    float64
	// Paged KV-cache pressure.
	KVBlocksTotal, PeakKVBlocksInUse int
	// Prefix-cache effectiveness (zero unless PrefixSharing is on):
	// prompt tokens served from shared KV blocks, shareable tokens that
	// had to be computed, and cached blocks reclaimed under pressure.
	PrefixCacheHitTokens  int
	PrefixCacheMissTokens int
	EvictedKVBlocks       int
	// Swap-to-host preemption activity (zero under the default "recompute"
	// policy): victims parked in the host swap pool and restores from it.
	SwapOuts, SwapIns int
	// Replicas and LBPolicy echo the simulated deployment (1 replica uses
	// no load balancer). Topology echoes the role-group layout of a
	// disaggregated run ("" otherwise).
	Replicas int
	LBPolicy string
	Topology string
	// KV handoff activity across the prefill→decode edge of a
	// disaggregated topology (zero for unified fleets): transfers
	// launched by prefill replicas, transfers ingested by decode
	// replicas, ingests that fell back to recompute because the decode
	// side's staging pool was full, and the bytes drained across the
	// interconnect.
	Handoffs         int
	HandoffsIngested int
	HandoffFallbacks int
	HandoffBytes     float64
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
	// Sketched reports that quantiles came from streaming sketches with
	// relative error bound SketchAlpha rather than exact order statistics.
	Sketched    bool
	SketchAlpha float64
}

// Serve runs the continuous-batching serving simulator on the session's
// platform and reports throughput, tail latency and SLO-aware cost. TEE
// mechanisms (memory encryption, enclave paging, bounce buffers) flow into
// every scheduler iteration through the same roofline the single-request
// Measure path uses.
func (s *Session) Serve(cfg ServeConfig) (*ServeReport, error) {
	if cfg.RatePerSec <= 0 {
		return nil, fmt.Errorf("cllm: serving needs a positive arrival rate, got %g", cfg.RatePerSec)
	}
	scfg, rec, attrib, err := serveConfig(cfg, s.cfg.Seed)
	if err != nil {
		return nil, err
	}
	policy, err := serve.ParseLBPolicy(cfg.LBPolicy)
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
	var topoHourly float64
	switch {
	case cfg.Topology != "":
		if cfg.Replicas > 1 {
			return nil, fmt.Errorf("cllm: set Replicas or Topology, not both (the topology fixes the fleet size)")
		}
		fleet, topoHourly, err = s.runTopology(cfg, scfg, policy)
		if err != nil {
			return nil, err
		}
		rep = fleet.Aggregate
	case cfg.Replicas > 1:
		fleet, err = serve.RunFleet(be, scfg, serve.FleetConfig{Replicas: cfg.Replicas, Policy: policy})
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

	out := summarize(rep)
	out.Replicas = 1
	if attrib != nil {
		out.Attrib = attrib.Report(rep.Platform)
	}
	if rec != nil {
		out.Observation = buildObservation(rec, attrib, rep)
		rec.Recycle()
	}

	if cfg.Topology != "" {
		// A topology fleet mixes rental rates: price the whole fleet from
		// the per-group sum runTopology computed.
		out.Replicas = len(fleet.PerReplica)
		out.LBPolicy = fleet.Policy
		out.Topology = fleet.Topology
		out.ReplicasAtSLO = len(fleet.PerReplica)
		out.FleetHourlyUSD = topoHourly
		if usd, err := fleet.CostPerMTokTotal(topoHourly); err == nil {
			out.SLOFeasible = true
			out.USDPerMTokAtSLO = usd
		}
		return &out, nil
	}
	hourly, err := s.serveHourlyUSD(cfg)
	if err != nil {
		return nil, err
	}
	if fleet != nil {
		out.Replicas = cfg.Replicas
		out.LBPolicy = fleet.Policy
		out.ReplicasAtSLO = cfg.Replicas
		out.FleetHourlyUSD = hourly * float64(cfg.Replicas)
		if usd, err := fleet.CostPerMTok(hourly); err == nil {
			out.SLOFeasible = true
			out.USDPerMTokAtSLO = usd
		}
		return &out, nil
	}
	if cost, err := rep.CostAtSLO(hourly); err == nil {
		out.SLOFeasible = true
		out.ReplicasAtSLO = cost.Replicas
		out.FleetHourlyUSD = cost.FleetHourlyUSD
		out.USDPerMTokAtSLO = cost.USDPerMTok
	}
	return &out, nil
}

// serveConfig lowers cfg onto the simulator's serve.Config for a run seeded
// with seed, and attaches the observer cfg's Observe and Attribution ask
// for: the recorder and attribution engine it returns are nil when off.
// Session.Serve and Autoscale both build their run config here.
func serveConfig(cfg ServeConfig, seed int64) (serve.Config, *obs.Recorder, *obs.Attribution, error) {
	var scfg serve.Config
	if cfg.Model == "" {
		cfg.Model = "llama2-7b"
	}
	kind, err := parseDType(cfg.DType)
	if err != nil {
		return scfg, nil, nil, err
	}
	mcfg, err := model.Lookup(cfg.Model)
	if err != nil {
		return scfg, nil, nil, err
	}
	var scenario *workload.Scenario
	if cfg.Scenario != "" {
		sc, err := workload.ParseScenario(cfg.Scenario, cfg.RatePerSec)
		if err != nil {
			return scfg, nil, nil, err
		}
		scenario = &sc
	}
	preempt, err := serve.ParsePreemptPolicy(cfg.PreemptPolicy)
	if err != nil {
		return scfg, nil, nil, err
	}
	qmode, err := serve.ParseQuantileMode(cfg.QuantileMode)
	if err != nil {
		return scfg, nil, nil, err
	}
	failPolicy, err := serve.ParseFailurePolicy(cfg.Faults.Policy)
	if err != nil {
		return scfg, nil, nil, err
	}
	failPlan, err := serve.ParseFailPlan(cfg.Faults.Plan)
	if err != nil {
		return scfg, nil, nil, err
	}
	admission, err := serve.ParseAdmissionPolicy(cfg.Faults.Admission)
	if err != nil {
		return scfg, nil, nil, err
	}
	scfg = serve.Config{
		Workload:      trace.Workload{Model: mcfg, Kind: kind, InputLen: cfg.InputLen, OutputLen: cfg.OutputLen},
		Rate:          cfg.RatePerSec,
		Scenario:      scenario,
		Requests:      cfg.Requests,
		Seed:          seed,
		MaxBatch:      cfg.MaxBatch,
		BlockTokens:   cfg.BlockTokens,
		ChunkTokens:   cfg.ChunkTokens,
		PrefixSharing: cfg.PrefixSharing,
		PrefixGroups:  cfg.PrefixGroups,
		PrefixFrac:    cfg.PrefixFrac,
		CostBucket:    cfg.CostBucket,
		PreemptPolicy: preempt,
		SwapPoolFrac:  cfg.SwapPoolFrac,
		TTFTSLOSec:    cfg.TTFTSLOSec,
		TPOTSLOSec:    cfg.TPOTSLOSec,
		QuantileMode:  qmode,
		SketchAlpha:   cfg.SketchAlpha,
		EpochRequests: cfg.EpochRequests,
		Faults: serve.FaultConfig{
			MTBFSec:         cfg.Faults.MTBFSec,
			Plan:            failPlan,
			Policy:          failPolicy,
			Admission:       admission,
			RetryMax:        cfg.Faults.RetryMax,
			RetryBackoffSec: cfg.Faults.RetryBackoffSec,
		},
	}
	var rec *obs.Recorder
	if cfg.Observe {
		rec = obs.NewRecorderWindow(cfg.ObserveWindowSec, 512)
	}
	var attrib *obs.Attribution
	if cfg.Attribution {
		attrib, err = obs.NewAttributionWindow(cfg.SketchAlpha, true, cfg.ObserveWindowSec, 512)
		if err != nil {
			return scfg, nil, nil, err
		}
	}
	scfg.Observer = obs.Multi(rec, attrib)
	return scfg, rec, attrib, nil
}

// summarize copies the simulator's report into the ServeReport fields
// every deployment shares. Callers fill in the deployment echoes
// (Replicas, LBPolicy, Topology), the pricing and the attached artifacts.
func summarize(rep *serve.Report) ServeReport {
	return ServeReport{
		Platform:            rep.Platform,
		OfferedRate:         rep.OfferedRate,
		Completed:           rep.Completed,
		Dropped:             rep.Dropped,
		Unfinished:          rep.Unfinished,
		Preemptions:         rep.Preemptions,
		DroppedByReason:     rep.DroppedByReason,
		Sheds:               rep.Sheds,
		Retries:             rep.Retries,
		Crashes:             rep.Crashes,
		DowntimeSec:         rep.DowntimeSec,
		TotalTokens:         rep.TotalTokens,
		TokensPerSec:        rep.TokensPerSec,
		GoodputTokensPerSec: rep.GoodputTokensPerSec,
		SLOAttainment:       rep.SLOAttainment(),
		TTFTp50:             rep.TTFT.P50,
		TTFTp95:             rep.TTFT.P95,
		TTFTp99:             rep.TTFT.P99,
		TPOTMean:            rep.TPOT.Mean,
		TPOTp99:             rep.TPOT.P99,
		LatencyP50:          rep.Latency.P50,
		LatencyP99:          rep.Latency.P99,
		KVBlocksTotal:       rep.KVBlocksTotal,
		PeakKVBlocksInUse:   rep.PeakKVBlocksInUse,

		PrefixCacheHitTokens:  rep.PrefixCacheHitTokens,
		PrefixCacheMissTokens: rep.PrefixCacheMissTokens,
		EvictedKVBlocks:       rep.EvictedBlocks,
		SwapOuts:              rep.SwapOuts,
		SwapIns:               rep.SwapIns,
		Handoffs:              rep.HandoffsOut,
		HandoffsIngested:      rep.HandoffsIn,
		HandoffFallbacks:      rep.HandoffFallbacks,
		HandoffBytes:          rep.HandoffBytes,
		Sketched:              rep.Sketched,
		SketchAlpha:           rep.SketchAlpha,
	}
}

// runTopology builds and runs a role-aware fleet from the -topology
// syntax. Each group's platform opens as a sub-session of this one (same
// testbed, enclave size, seed and attestation policy) and contributes
// Replicas backends at that platform's rental rate; the returned hourly
// figure is the whole fleet's rent. Backends carry no pre-built coster —
// Fleet.Run builds one per group, shared by the group's replicas.
func (s *Session) runTopology(cfg ServeConfig, scfg serve.Config, policy serve.LBPolicy) (*serve.FleetReport, float64, error) {
	groups, err := ParseTopology(cfg.Topology)
	if err != nil {
		return nil, 0, err
	}
	var topo serve.Topology
	totalHourly := 0.0
	for _, g := range groups {
		role, err := serve.ParseRole(g.Role)
		if err != nil {
			return nil, 0, err
		}
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
		topo.Groups = append(topo.Groups, serve.RoleGroup{Role: role, Backend: sub.backend(cfg), Replicas: g.Replicas, Policy: policy})
	}
	f, err := serve.NewFleet(topo)
	if err != nil {
		return nil, 0, err
	}
	rep, err := f.Run(scfg)
	return rep, totalHourly, err
}

// backend returns the serve.Backend for one replica of the session's
// platform in cfg's CPU deployment (Sockets, Cores; ignored on a GPU),
// seeded like the session. Its Coster is left nil.
func (s *Session) backend(cfg ServeConfig) serve.Backend {
	be := serve.Backend{IsGPU: s.isGPU}
	if s.isGPU {
		be.GPU = perf.GPURun{GPU: s.gpu, Platform: s.platform, Seed: s.cfg.Seed}
	} else {
		be.CPU = perf.CPURun{
			CPU: s.cpu, Platform: s.platform,
			Sockets: cfg.Sockets, CoresPerSocket: cfg.Cores,
			AMX: true, Seed: s.cfg.Seed,
		}
	}
	return be
}

// costerFor returns the session's shared step coster for one serving
// deployment shape, building it on first use. With clear set it returns
// the clear-hardware twin instead (the counterfactual side of TEE-tax
// attribution), cached under a key disjoint from the real costers'.
func (s *Session) costerFor(be serve.Backend, scfg serve.Config, clear bool) (*perf.StepCoster, error) {
	bucket := scfg.CostBucket
	if bucket < 1 {
		bucket = 1
	}
	key := fmt.Sprintf("%s|%s|%d|%d|%d|%v",
		scfg.Workload.Model.Name, scfg.Workload.Kind, be.CPU.Sockets, be.CPU.CoresPerSocket, bucket, be.IsGPU)
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
	sockets := cfg.Sockets
	if sockets <= 0 {
		sockets = 1
	}
	cores := cfg.Cores
	if cores <= 0 {
		cores = s.cpu.CoresPerSocket
	}
	return prices.HourlyCost(cloud.CPUInstance{VCPUs: cores * sockets, MemGiB: 128})
}
