// Package cloud implements the cost model of the paper's §V-D: GCP-style
// spot pricing where vCPU count and memory are rented separately (Figs 12
// and 13), the confidential H100 instance price, and dollars-per-million-
// tokens arithmetic on top of measured throughput.
package cloud

import (
	"fmt"
	"math"
)

// PriceBook holds the hourly spot prices used by the cost experiments.
// Values follow the paper's methodology (GCP US East 1 spot prices for the
// same machine type, memory fixed at 128 GB while vCPUs scale).
type PriceBook struct {
	// VCPUHour is the price of one vCPU for one hour (USD).
	VCPUHour float64
	// MemGiBHour is the price of one GiB of RAM for one hour (USD).
	MemGiBHour float64
	// CGPUHour is the price of the confidential H100 instance per hour
	// (GPU + host CPU + memory, as rented).
	CGPUHour float64
	// SapphireRapidsDiscount is the cheaper previous-generation alternative
	// the paper mentions (≈2x cheaper, up to 40% slower).
	SapphireRapidsDiscount float64
}

// DefaultPrices returns the calibrated price book.
func DefaultPrices() PriceBook {
	return PriceBook{
		VCPUHour:               0.0105,
		MemGiBHour:             0.0012,
		CGPUHour:               6.20,
		SapphireRapidsDiscount: 0.5,
	}
}

// CPUInstance describes a rented confidential-VM shape.
type CPUInstance struct {
	VCPUs  int
	MemGiB int
}

// Validate rejects empty shapes.
func (c CPUInstance) Validate() error {
	if c.VCPUs <= 0 || c.MemGiB <= 0 {
		return fmt.Errorf("cloud: instance needs positive vCPUs and memory, got %+v", c)
	}
	return nil
}

// HourlyCost returns the instance's rental price per hour. Non-positive or
// non-finite price-book entries are rejected explicitly: a zero or NaN
// hourly price would otherwise flow through the $/Mtok arithmetic as a
// spuriously free (or NaN/Inf) cost point and silently win every
// "cheapest" comparison.
func (p PriceBook) HourlyCost(inst CPUInstance) (float64, error) {
	if err := inst.Validate(); err != nil {
		return 0, err
	}
	if !(p.VCPUHour > 0) || math.IsInf(p.VCPUHour, 0) {
		return 0, fmt.Errorf("cloud: vCPU hourly price %g must be positive and finite", p.VCPUHour)
	}
	if !(p.MemGiBHour > 0) || math.IsInf(p.MemGiBHour, 0) {
		return 0, fmt.Errorf("cloud: memory hourly price %g must be positive and finite", p.MemGiBHour)
	}
	return float64(inst.VCPUs)*p.VCPUHour + float64(inst.MemGiB)*p.MemGiBHour, nil
}

// CostPerMTokens converts an hourly price and a throughput into dollars per
// one million generated tokens.
func CostPerMTokens(hourly, tokensPerSec float64) (float64, error) {
	if !(tokensPerSec > 0) || math.IsInf(tokensPerSec, 0) {
		return 0, fmt.Errorf("cloud: throughput %g must be positive and finite", tokensPerSec)
	}
	if hourly < 0 || math.IsNaN(hourly) || math.IsInf(hourly, 0) {
		return 0, fmt.Errorf("cloud: hourly price %g must be non-negative and finite", hourly)
	}
	secondsPerMTok := 1e6 / tokensPerSec
	return hourly / 3600 * secondsPerMTok, nil
}

// CPUCostPerMTokens prices a CPU run: the paper fixes memory at 128 GiB and
// scales vCPUs (Fig 12).
func (p PriceBook) CPUCostPerMTokens(vcpus int, tokensPerSec float64) (float64, error) {
	hourly, err := p.HourlyCost(CPUInstance{VCPUs: vcpus, MemGiB: 128})
	if err != nil {
		return 0, err
	}
	return CostPerMTokens(hourly, tokensPerSec)
}

// CGPUCostPerMTokens prices a confidential-GPU run.
func (p PriceBook) CGPUCostPerMTokens(tokensPerSec float64) (float64, error) {
	return CostPerMTokens(p.CGPUHour, tokensPerSec)
}

// ReplicasForRate returns how many identical replicas are needed so that
// replicas × perReplicaRate ≥ targetRate. Rates are in requests (or tokens)
// per second; the unit only has to match between the two arguments. A
// non-positive perReplicaRate means a single replica cannot serve any load
// within SLO, so no finite fleet can either.
func ReplicasForRate(targetRate, perReplicaRate float64) (int, error) {
	if targetRate <= 0 {
		return 0, fmt.Errorf("cloud: non-positive target rate %g", targetRate)
	}
	if perReplicaRate <= 0 {
		return 0, fmt.Errorf("cloud: replica serves no load within SLO (rate %g)", perReplicaRate)
	}
	return int(math.Ceil(targetRate / perReplicaRate)), nil
}

// ServingCost prices an SLO-constrained deployment: a fleet of `replicas`
// identical instances at `hourlyPerReplica` serving an offered load of
// `offeredTokensPerSec` aggregate output tokens per second. The result is
// dollars per million served tokens. The fleet is sized for SLO compliance
// (see ReplicasForRate), so platforms that need more replicas to hit the
// same SLO pay for the whole fleet while serving the same load — this is
// where the TEE "cost of protection at SLO" becomes visible.
func ServingCost(hourlyPerReplica float64, replicas int, offeredTokensPerSec float64) (float64, error) {
	if replicas <= 0 {
		return 0, fmt.Errorf("cloud: non-positive replica count %d", replicas)
	}
	return CostPerMTokens(hourlyPerReplica*float64(replicas), offeredTokensPerSec)
}

// FleetCostPerMTok prices a simulated fleet: `replicas` identical
// instances at `hourlyPerReplica` whose simulation served
// `servedTokensPerSec` aggregate SLO-compliant output tokens per second.
// Unlike ServingCost, the fleet size and the served rate both come from a
// multi-replica simulation (see internal/serve.RunFleet) rather than from
// extrapolating one replica's goodput — load-balancer skew, per-replica
// queueing and prefix-cache locality are in the inputs.
func FleetCostPerMTok(hourlyPerReplica float64, replicas int, servedTokensPerSec float64) (float64, error) {
	if replicas <= 0 {
		return 0, fmt.Errorf("cloud: non-positive replica count %d", replicas)
	}
	if !(hourlyPerReplica > 0) || math.IsInf(hourlyPerReplica, 0) {
		return 0, fmt.Errorf("cloud: replica hourly price %g must be positive and finite", hourlyPerReplica)
	}
	return CostPerMTokens(hourlyPerReplica*float64(replicas), servedTokensPerSec)
}

// CostPoint is one (vCPUs, throughput, cost) sample of a scaling sweep.
type CostPoint struct {
	VCPUs        int
	TokensPerSec float64
	USDPerMTok   float64
}

// Cheapest returns the sweep point with minimal $/Mtok.
func Cheapest(points []CostPoint) (CostPoint, error) {
	if len(points) == 0 {
		return CostPoint{}, fmt.Errorf("cloud: empty sweep")
	}
	best := points[0]
	for _, pt := range points[1:] {
		if pt.USDPerMTok < best.USDPerMTok {
			best = pt
		}
	}
	return best, nil
}

// AdvantagePct returns how much cheaper `mine` is than `theirs`, in percent
// of `mine` — the convention of the paper's Fig 12 annotations
// ("TDX=100.32%" means the cGPU costs 100.32% more than the best TDX
// configuration). Negative values mean `mine` is more expensive.
func AdvantagePct(mine, theirs float64) float64 {
	if mine <= 0 {
		return math.NaN()
	}
	return (theirs - mine) / mine * 100
}
