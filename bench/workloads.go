package main

import (
	"fmt"
	"time"

	"cllm/internal/autoscale"
	"cllm/internal/cloud"
	"cllm/internal/dtype"
	"cllm/internal/gramine"
	"cllm/internal/hw"
	"cllm/internal/model"
	"cllm/internal/obs"
	"cllm/internal/perf"
	"cllm/internal/serve"
	"cllm/internal/tee"
	"cllm/internal/trace"
	"cllm/internal/workload"
)

// benchWorkload is one traffic mix the benchmark drives through the
// simulator. Every workload serves llama2-7b in bf16; rates sit near 0.7×
// the probed capacity of the deployment, so queues form without diverging.
type benchWorkload struct {
	name string
	// why is the one-line reason the workload is in the benchmark.
	why string
	// requests is the simulated request count of one full-size rep.
	requests int
	build    func(requests int, seed int64) (*rig, error)
}

var workloads = []benchWorkload{
	{
		name:     "chat-single",
		why:      "default fast path: one TDX replica, exact quantiles, every optional feature off",
		requests: 100_000,
		build:    buildChatSingle,
	},
	{
		name:     "rag-fleet",
		why:      "8-replica prefix-affinity fleet with prefix sharing under long shared RAG prompts",
		requests: 3_000,
		build:    buildRAGFleet,
	},
	{
		name:     "sgx-overload-observed",
		why:      "KV pressure in a small SGX enclave with preemption, swap, shedding, a crash and the obs pipeline",
		requests: 20_000,
		build:    buildSGXOverload,
	},
	{
		name:     "autoscale-diurnal",
		why:      "elastic tdx+cgpu autoscaler with cost-aware dispatch and cold starts over a diurnal day",
		requests: 100_000,
		build:    buildAutoscale,
	},
}

func findWorkload(name string) (*benchWorkload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// rig is one prepared rep: everything a cllm-serve invocation builds before
// its first simulated step, ready to run once.
type rig struct {
	cfg serve.Config
	// be is the backend whose coster the per-layer replays exercise (the
	// TDX or SGX replica backend).
	be       serve.Backend
	replicas int
	// streamed marks the epoch-streamed run loop, which draws arrivals
	// lazily (and twice: once to burn the noise stream, once to serve).
	streamed bool
	// rec and attrib are the run's own obs pipeline (nil when unobserved).
	rec    *obs.Recorder
	attrib *obs.Attribution
	fleet  *serve.Fleet
	// classes and acfg drive autoscale.Run; probeSec is the host time the
	// capacity probes took in setup.
	classes  []autoscale.Class
	acfg     autoscale.Config
	probeSec float64
}

// outcome is what one run returns.
type outcome struct {
	agg   *serve.Report
	fleet *serve.FleetReport
	auto  *autoscale.Report
}

// attach chains an extra observer after the run's own obs pipeline.
func (r *rig) attach(o serve.Observer) {
	r.cfg.Observer = obs.Multi(r.rec, r.attrib, o)
}

// run executes the simulation through the workload's run loop.
func (r *rig) run() (*outcome, error) {
	switch {
	case r.classes != nil:
		acfg := r.acfg
		acfg.Serve = r.cfg
		rep, err := autoscale.Run(r.classes, acfg)
		if err != nil {
			return nil, err
		}
		return &outcome{agg: rep.Aggregate, auto: rep}, nil
	case r.fleet != nil:
		fr, err := r.fleet.Run(r.cfg)
		if err != nil {
			return nil, err
		}
		return &outcome{agg: fr.Aggregate, fleet: fr}, nil
	default:
		rep, err := serve.Run(r.be, r.cfg)
		if err != nil {
			return nil, err
		}
		return &outcome{agg: rep}, nil
	}
}

func llama7B() (trace.Workload, error) {
	m, err := model.Lookup("llama2-7b")
	if err != nil {
		return trace.Workload{}, err
	}
	return trace.Workload{Model: m, Kind: dtype.BF16}, nil
}

// emr1Backend is one EMR1 socket with AMX under the given platform.
func emr1Backend(p tee.Platform) serve.Backend {
	return serve.Backend{CPU: perf.CPURun{CPU: hw.EMR1(), Platform: p, Sockets: 1, AMX: true}}
}

// baseConfig parses the scenario and builds the model workload and the
// backend's shared step coster, the set-up every workload shares.
func baseConfig(scenario string, rate float64, requests int, seed int64, be *serve.Backend) (serve.Config, error) {
	wl, err := llama7B()
	if err != nil {
		return serve.Config{}, err
	}
	sc, err := workload.ParseScenario(scenario, rate)
	if err != nil {
		return serve.Config{}, err
	}
	cfg := serve.Config{Workload: wl, Scenario: &sc, Requests: requests, Seed: seed}
	be.Coster, err = serve.NewStepCoster(*be, cfg)
	return cfg, err
}

func buildChatSingle(requests int, seed int64) (*rig, error) {
	be := emr1Backend(tee.TDX())
	cfg, err := baseConfig("poisson+chat", 0.7, requests, seed, &be)
	if err != nil {
		return nil, err
	}
	return &rig{cfg: cfg, be: be, replicas: 1}, nil
}

func buildRAGFleet(requests int, seed int64) (*rig, error) {
	be := emr1Backend(tee.TDX())
	cfg, err := baseConfig("diurnal+rag", 2.0, requests, seed, &be)
	if err != nil {
		return nil, err
	}
	cfg.PrefixSharing = true
	cfg.ChunkTokens = 512
	cfg.QuantileMode = serve.QuantileSketch
	// The coster was built before the knobs above; none of them changes
	// what it prices (model, datatype, cost bucket).
	const replicas = 8
	f, err := serve.NewFleet(serve.Unified(be, serve.FleetConfig{Replicas: replicas, Policy: serve.PrefixAffinity}))
	if err != nil {
		return nil, err
	}
	return &rig{cfg: cfg, be: be, replicas: replicas, fleet: f}, nil
}

// sgxKVTokens sizes the SGX enclave: the weights plus this many KV tokens,
// so a few long agentic prompts already fill the pool.
const sgxKVTokens = 8192

func buildSGXOverload(requests int, seed int64) (*rig, error) {
	wl, err := llama7B()
	if err != nil {
		return nil, err
	}
	enclave := int64(trace.WeightFootprint(wl)) + sgxKVTokens*wl.Model.KVCacheBytesPerToken(wl.Kind.Size())
	p, err := tee.SGX(gramine.DefaultManifest("llama2-7b.bin", enclave, 64))
	if err != nil {
		return nil, err
	}
	be := emr1Backend(p)
	cfg, err := baseConfig("bursty+agentic", 0.25, requests, seed, &be)
	if err != nil {
		return nil, err
	}
	cfg.MaxBatch = 16
	cfg.ChunkTokens = 512
	cfg.PreemptPolicy = serve.PreemptAuto
	cfg.Faults = serve.FaultConfig{
		Admission: serve.AdmitShed,
		RetryMax:  2,
		Plan:      []serve.FailPoint{{Replica: 0, TimeSec: 600}},
	}
	cfg.QuantileMode = serve.QuantileSketch
	cfg.EpochRequests = 4096
	r := &rig{cfg: cfg, be: be, replicas: 1, streamed: true, rec: obs.NewRecorder()}
	if r.attrib, err = obs.NewAttribution(0, true); err != nil {
		return nil, err
	}
	if r.cfg.ClearCoster, err = serve.NewClearStepCoster(be, cfg); err != nil {
		return nil, err
	}
	r.attach(nil)
	return r, nil
}

func buildAutoscale(requests int, seed int64) (*rig, error) {
	tdx := emr1Backend(tee.TDX())
	cfg, err := baseConfig("diurnal+chat", 2.8, requests, seed, &tdx)
	if err != nil {
		return nil, err
	}
	cgpu := serve.Backend{IsGPU: true, GPU: perf.GPURun{GPU: hw.H100NVL(), Platform: tee.CGPU()}}
	if cgpu.Coster, err = serve.NewStepCoster(cgpu, cfg); err != nil {
		return nil, err
	}
	prices := cloud.DefaultPrices()
	tdxHourly, err := prices.HourlyCost(cloud.CPUInstance{VCPUs: hw.EMR1().CoresPerSocket, MemGiB: 128})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	tdxCap, err := autoscale.ProbeCapacity(tdx, cfg)
	if err != nil {
		return nil, err
	}
	cgpuCap, err := autoscale.ProbeCapacity(cgpu, cfg)
	if err != nil {
		return nil, err
	}
	probeSec := time.Since(start).Seconds()
	classes := []autoscale.Class{
		{Name: "tdx", Backend: tdx, HourlyUSD: tdxHourly, ColdStartSec: autoscale.ColdStartSec(tdx, cfg.Workload),
			Min: 1, Max: 6, CapacityReqPerSec: tdxCap},
		{Name: "cgpu", Backend: cgpu, HourlyUSD: prices.CGPUHour, ColdStartSec: autoscale.ColdStartSec(cgpu, cfg.Workload),
			Min: 0, Max: 2, CapacityReqPerSec: cgpuCap},
	}
	return &rig{cfg: cfg, be: tdx, replicas: 8, classes: classes,
		acfg: autoscale.Config{Dispatch: autoscale.CostAware}, probeSec: probeSec}, nil
}
