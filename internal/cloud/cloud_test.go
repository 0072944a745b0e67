package cloud

import (
	"math"
	"testing"
	"testing/quick"

	"cllm/internal/dtype"
	"cllm/internal/hw"
	"cllm/internal/model"
	"cllm/internal/perf"
	"cllm/internal/tee"
	"cllm/internal/trace"
)

func TestHourlyCost(t *testing.T) {
	p := DefaultPrices()
	got, err := p.HourlyCost(CPUInstance{VCPUs: 16, MemGiB: 128})
	if err != nil {
		t.Fatal(err)
	}
	want := 16*p.VCPUHour + 128*p.MemGiBHour
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("HourlyCost = %g, want %g", got, want)
	}
	if _, err := p.HourlyCost(CPUInstance{}); err == nil {
		t.Error("empty instance priced")
	}
}

func TestHourlyCostRejectsBadPrices(t *testing.T) {
	inst := CPUInstance{VCPUs: 16, MemGiB: 128}
	for _, p := range []PriceBook{
		{VCPUHour: 0, MemGiBHour: 0.001},
		{VCPUHour: -0.01, MemGiBHour: 0.001},
		{VCPUHour: math.NaN(), MemGiBHour: 0.001},
		{VCPUHour: math.Inf(1), MemGiBHour: 0.001},
		{VCPUHour: 0.01, MemGiBHour: 0},
		{VCPUHour: 0.01, MemGiBHour: math.NaN()},
	} {
		if cost, err := p.HourlyCost(inst); err == nil {
			t.Errorf("price book %+v priced instance at %g instead of erroring", p, cost)
		}
	}
}

func TestFleetCostPerMTokRejectsBadPrices(t *testing.T) {
	for _, hourly := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if cost, err := FleetCostPerMTok(hourly, 2, 100); err == nil {
			t.Errorf("hourly %g priced fleet at %g instead of erroring", hourly, cost)
		}
	}
	if _, err := FleetCostPerMTok(1, 0, 100); err == nil {
		t.Error("zero replicas priced")
	}
	if _, err := FleetCostPerMTok(1, 2, math.NaN()); err == nil {
		t.Error("NaN served rate priced")
	}
	got, err := FleetCostPerMTok(0.36, 2, 200)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1.0) > 1e-9 {
		t.Errorf("FleetCostPerMTok = %g, want 1.0", got)
	}
}

func TestCostPerMTokens(t *testing.T) {
	// 100 tok/s at $0.36/hr: 1e6 tokens take 1e4 s; $0.36/3600*1e4 = $1.
	got, err := CostPerMTokens(0.36, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1.0) > 1e-9 {
		t.Errorf("CostPerMTokens = %g, want 1.0", got)
	}
	if _, err := CostPerMTokens(1, 0); err == nil {
		t.Error("zero throughput priced")
	}
	if _, err := CostPerMTokens(-1, 10); err == nil {
		t.Error("negative price accepted")
	}
}

func TestCostMonotonicity(t *testing.T) {
	if err := quick.Check(func(tputRaw, priceRaw uint16) bool {
		tput := float64(tputRaw%1000) + 1
		price := float64(priceRaw%100)/10 + 0.1
		c1, err1 := CostPerMTokens(price, tput)
		c2, err2 := CostPerMTokens(price, tput*2)
		if err1 != nil || err2 != nil {
			return false
		}
		// Double throughput → half cost.
		return math.Abs(c1-2*c2)/c1 < 1e-9
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestSweepAndCheapest(t *testing.T) {
	p := DefaultPrices()
	var pts []CostPoint
	for i, v := range []int{2, 8, 32} {
		tput := []float64{5, 18, 30}[i]
		c, err := p.CPUCostPerMTokens(v, tput)
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, CostPoint{VCPUs: v, TokensPerSec: tput, USDPerMTok: c})
	}
	best, err := Cheapest(pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		if pt.USDPerMTok < best.USDPerMTok {
			t.Errorf("Cheapest missed %v", pt)
		}
	}
	if _, err := Cheapest(nil); err == nil {
		t.Error("empty cheapest accepted")
	}
}

func TestAdvantagePct(t *testing.T) {
	if got := AdvantagePct(1, 2); got != 100 {
		t.Errorf("AdvantagePct(1,2) = %g, want 100", got)
	}
	if got := AdvantagePct(2, 1); got != -50 {
		t.Errorf("AdvantagePct(2,1) = %g, want -50", got)
	}
	if !math.IsNaN(AdvantagePct(0, 1)) {
		t.Error("zero base not NaN")
	}
}

// tdxBestCost runs the Fig-12 sweep for one batch size and returns the best
// TDX cost and the cGPU cost.
func costPair(t *testing.T, batch, inputLen int) (tdxBest, cgpu float64) {
	t.Helper()
	cfg7, err := model.Lookup("llama2-7b")
	if err != nil {
		t.Fatal(err)
	}
	prices := DefaultPrices()
	wl := trace.Workload{Model: cfg7, Kind: dtype.BF16, Batch: batch, Beam: 1, InputLen: inputLen, OutputLen: 64}
	var pts []CostPoint
	for _, v := range []int{2, 4, 8, 16, 32, 48, 60} {
		r, err := perf.RunCPU(perf.CPURun{
			CPU: hw.EMR2(), Platform: tee.TDX(), Workload: wl,
			Sockets: 1, CoresPerSocket: v, AMX: true, Seed: 31,
		})
		if err != nil {
			t.Fatal(err)
		}
		c, err := prices.CPUCostPerMTokens(v, r.Throughput())
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, CostPoint{VCPUs: v, TokensPerSec: r.Throughput(), USDPerMTok: c})
	}
	best, err := Cheapest(pts)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := perf.RunGPU(perf.GPURun{GPU: hw.H100NVL(), Platform: tee.CGPU(), Workload: wl, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	cg, err := prices.CGPUCostPerMTokens(rg.Throughput())
	if err != nil {
		t.Fatal(err)
	}
	return best.USDPerMTok, cg
}

func TestFig12CostShape(t *testing.T) {
	// Paper Fig 12: at batch 1 the cGPU is ≈100% more expensive than the
	// best TDX config; the advantage fades as batch grows and roughly
	// equalizes near batch 128.
	adv := func(batch int) float64 {
		tdx, cgpu := costPair(t, batch, 128)
		return AdvantagePct(tdx, cgpu)
	}
	a1 := adv(1)
	a16 := adv(16)
	a128 := adv(128)
	if a1 < 50 || a1 > 170 {
		t.Errorf("batch 1 TDX advantage = %.1f%%, want ≈100%%", a1)
	}
	if !(a1 > a16 && a16 > a128) {
		t.Errorf("advantage not fading with batch: %.1f%% %.1f%% %.1f%%", a1, a16, a128)
	}
	if a128 > 40 {
		t.Errorf("batch 128 advantage = %.1f%%, want near parity", a128)
	}
}

func TestFig13InputSizeCostCollapse(t *testing.T) {
	// Paper Fig 13: at batch 4 the CPU cost advantage collapses as input
	// size grows (86% at 128 tokens → negative beyond 256).
	adv := func(in int) float64 {
		tdx, cgpu := costPair(t, 4, in)
		return AdvantagePct(tdx, cgpu)
	}
	a128 := adv(128)
	a512 := adv(512)
	a2048 := adv(2048)
	if !(a128 > a512 && a512 > a2048) {
		t.Errorf("advantage not collapsing with input: %.1f%% %.1f%% %.1f%%", a128, a512, a2048)
	}
	if a128-a2048 < 40 {
		t.Errorf("advantage collapsed only %.1f points from in128 to in2048, want ≥40", a128-a2048)
	}
}

func TestReplicasForRate(t *testing.T) {
	n, err := ReplicasForRate(20, 6)
	if err != nil || n != 4 {
		t.Fatalf("ReplicasForRate(20, 6) = %d, %v; want 4", n, err)
	}
	n, err = ReplicasForRate(6, 6)
	if err != nil || n != 1 {
		t.Fatalf("exact fit = %d, %v; want 1", n, err)
	}
	if _, err := ReplicasForRate(10, 0); err == nil {
		t.Error("zero per-replica rate accepted")
	}
	if _, err := ReplicasForRate(0, 5); err == nil {
		t.Error("zero target rate accepted")
	}
}

func TestServingCost(t *testing.T) {
	// 3 replicas at $2/h serving 100 tok/s: $6/h over 0.36 Mtok/h.
	usd, err := ServingCost(2, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := 6.0 / (100 * 3600 / 1e6)
	if diff := usd - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("ServingCost = %g, want %g", usd, want)
	}
	if _, err := ServingCost(2, 0, 100); err == nil {
		t.Error("zero replicas accepted")
	}
	if _, err := ServingCost(2, 1, 0); err == nil {
		t.Error("zero throughput accepted")
	}
}
