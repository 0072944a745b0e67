package harness

import (
	"cllm/internal/hw"
	"cllm/internal/par"
	"cllm/internal/perf"
	"cllm/internal/serve"
	"cllm/internal/tee"
	"cllm/internal/trace"
)

// sweep evaluates cell(0), ..., cell(n-1) on up to o.Workers goroutines
// and returns their results in cell order, or the lowest-index error.
// Every experiment's independent runs go through it: each cell is its own
// independently seeded simulation, so any worker count returns the
// identical slice. A cell may share only read-only state and a step
// coster (safe for concurrent use) with its siblings.
func sweep[T any](o Options, n int, cell func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if err := par.For(o.Workers, n, func(i int) (err error) {
		out[i], err = cell(i)
		return err
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// onCPU runs wl on each platform, in platform order, on the given number
// of sockets of cpu: all cores, AMX on, IPEX framework efficiency.
func onCPU(o Options, cpu hw.CPU, wl trace.Workload, sockets int, plats ...tee.Platform) ([]*perf.Result, error) {
	return sweep(o, len(plats), func(i int) (*perf.Result, error) {
		return perf.RunCPU(perf.CPURun{CPU: cpu, Platform: plats[i], Workload: wl, Sockets: sockets, AMX: true, Seed: o.Seed})
	})
}

// onGPU runs wl on each platform on one H100 NVL, in platform order.
func onGPU(o Options, wl trace.Workload, plats ...tee.Platform) ([]*perf.Result, error) {
	return sweep(o, len(plats), func(i int) (*perf.Result, error) {
		return perf.RunGPU(perf.GPURun{GPU: hw.H100NVL(), Platform: plats[i], Workload: wl, Seed: o.Seed})
	})
}

// each maps every result through f.
func each(rs []*perf.Result, f func(*perf.Result) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

// emr1 is the serving deployment of p on one EMR1 socket with AMX.
func emr1(p tee.Platform) serve.Backend {
	return serve.Backend{CPU: perf.CPURun{CPU: hw.EMR1(), Platform: p, Sockets: 1, AMX: true}}
}

// h100 is the serving deployment of p on one H100 NVL.
func h100(p tee.Platform) serve.Backend {
	return serve.Backend{IsGPU: true, GPU: perf.GPURun{GPU: hw.H100NVL(), Platform: p}}
}

// costed returns be with one memoized step coster for cfg's model
// attached, so every run over the returned backend shares its table.
func costed(be serve.Backend, cfg serve.Config) (serve.Backend, error) {
	c, err := serve.NewStepCoster(be, cfg)
	be.Coster = c
	return be, err
}

// evenTrace is n identical requests arriving gapSec apart.
func evenTrace(n int, gapSec float64, inLen, outLen int) []serve.Request {
	tr := make([]serve.Request, n)
	for i := range tr {
		tr[i] = serve.Request{ID: i, ArrivalSec: float64(i) * gapSec, InputLen: inLen, OutputLen: outLen}
	}
	return tr
}
