// Package hw describes the hardware the paper evaluates: two dual-socket
// Emerald Rapids Xeon systems (EMR1: Gold 6530, EMR2: Platinum 8580) and an
// NVIDIA H100 NVL GPU. Each description carries the roofline parameters
// (compute rates per datatype with and without AMX, memory bandwidths, TLB
// reach, interconnect characteristics) that the performance engine combines
// with TEE mechanisms to produce latencies.
//
// All calibration constants live in calibration.go with the paper evidence
// they were fitted against.
package hw

import (
	"fmt"

	"cllm/internal/dtype"
)

// CPU describes one CPU system (possibly multi-socket).
type CPU struct {
	// Name identifies the system, e.g. "EMR1".
	Name string
	// Sockets is the number of CPU packages.
	Sockets int
	// CoresPerSocket is the physical core count per package.
	CoresPerSocket int
	// FreqHz is the sustained all-core frequency.
	FreqHz float64
	// HasAMX reports Advanced Matrix Extension tile units.
	HasAMX bool
	// MemBWPerSocket is sustained DRAM bandwidth per socket (bytes/s).
	MemBWPerSocket float64
	// UPIBandwidth is sustained cross-socket bandwidth (bytes/s, per direction).
	UPIBandwidth float64
	// LLCBytes is last-level cache per socket.
	LLCBytes int64
	// DTLBEntries is the (simplified, unified) data-TLB entry count used by
	// the page-reach model.
	DTLBEntries int
	// MemPerSocketBytes is installed DRAM per socket.
	MemPerSocketBytes int64
	// ListPriceUSD is the per-CPU list price (the paper quotes $2130 for the
	// Gold 6530 and $10710 for the Platinum 8580).
	ListPriceUSD float64
}

// FlopsPerCycle returns the per-core FLOPs/cycle for a datatype, with or
// without AMX. The no-AMX int8 path models IPEX's missing AVX int8 kernels
// (the paper measures ~95% throughput loss there, Insight 8).
func (c CPU) FlopsPerCycle(kind dtype.Kind, amx bool) float64 {
	if amx && c.HasAMX {
		switch kind {
		case dtype.BF16:
			return AMXBF16FlopsPerCycle
		case dtype.I8:
			return AMXInt8FlopsPerCycle
		default:
			return AVX512F32FlopsPerCycle // AMX has no f32 tiles
		}
	}
	switch kind {
	case dtype.BF16:
		return AVX512BF16FlopsPerCycle
	case dtype.I8:
		return NoAMXInt8FlopsPerCycle
	default:
		return AVX512F32FlopsPerCycle
	}
}

// SocketFlops returns sustained FLOP/s for `cores` cores of one socket.
func (c CPU) SocketFlops(kind dtype.Kind, amx bool, cores int) float64 {
	if cores <= 0 || cores > c.CoresPerSocket {
		cores = c.CoresPerSocket
	}
	return float64(cores) * c.FreqHz * c.FlopsPerCycle(kind, amx) * ComputeEfficiency
}

// GPU describes an accelerator.
type GPU struct {
	// Name identifies the device, e.g. "H100-NVL".
	Name string
	// HBMBytes is device memory capacity.
	HBMBytes int64
	// HBMBandwidth is sustained device-memory bandwidth (bytes/s).
	HBMBandwidth float64
	// TensorFlops is sustained dense tensor-core FLOP/s for bf16.
	TensorFlops float64
	// PCIeBandwidth is host link bandwidth (bytes/s).
	PCIeBandwidth float64
	// KernelLaunchSec is the base cost of one kernel launch.
	KernelLaunchSec float64
	// KernelsPerBlock approximates fused kernels per decoder block.
	KernelsPerBlock int
	// ListPriceUSD is the device list price (~$30k for H100 NVL).
	ListPriceUSD float64
}

// EMR1 returns the paper's first testbed: dual Xeon Gold 6530
// (2×32 cores, 16×32 GiB DDR5-4800 per system).
func EMR1() CPU {
	return CPU{
		Name:              "EMR1",
		Sockets:           2,
		CoresPerSocket:    32,
		FreqHz:            2.1e9,
		HasAMX:            true,
		MemBWPerSocket:    EMRMemBWPerSocket,
		UPIBandwidth:      EMRUPIBandwidth,
		LLCBytes:          160 << 20,
		DTLBEntries:       EMRDTLBEntries,
		MemPerSocketBytes: 256 << 30,
		ListPriceUSD:      2130,
	}
}

// EMR2 returns the paper's second testbed: dual Xeon Platinum 8580
// (2×60 cores, 16×32 GiB DDR5-4800 per system).
func EMR2() CPU {
	return CPU{
		Name:              "EMR2",
		Sockets:           2,
		CoresPerSocket:    60,
		FreqHz:            2.0e9,
		HasAMX:            true,
		MemBWPerSocket:    EMRMemBWPerSocket,
		UPIBandwidth:      EMRUPIBandwidth,
		LLCBytes:          300 << 20,
		DTLBEntries:       EMRDTLBEntries,
		MemPerSocketBytes: 256 << 30,
		ListPriceUSD:      10710,
	}
}

// SPR returns a Sapphire Rapids alternative system (§V-D.2): the previous
// Xeon generation rents at roughly half the price and performs up to ~40%
// worse on this memory-bound workload — an even cheaper seat for
// low-intensity confidential inference.
func SPR() CPU {
	return CPU{
		Name:              "SPR",
		Sockets:           2,
		CoresPerSocket:    56,
		FreqHz:            1.9e9,
		HasAMX:            true, // AMX debuted on Sapphire Rapids
		MemBWPerSocket:    SPRMemBWPerSocket,
		UPIBandwidth:      80e9,
		LLCBytes:          105 << 20,
		DTLBEntries:       EMRDTLBEntries,
		MemPerSocketBytes: 256 << 30,
		ListPriceUSD:      5340, // Platinum 8480+ class
	}
}

// H100NVL returns the paper's GPU testbed: H100 NVL 94 GB rented from Azure
// (NCCads_H100_v5 confidential / NCads_H100_v5 non-confidential).
func H100NVL() GPU {
	return GPU{
		Name:            "H100-NVL",
		HBMBytes:        94 << 30,
		HBMBandwidth:    H100HBMBandwidth,
		TensorFlops:     H100TensorFlops,
		PCIeBandwidth:   H100PCIeBandwidth,
		KernelLaunchSec: H100KernelLaunchSec,
		KernelsPerBlock: 8,
		ListPriceUSD:    30000,
	}
}

// Lookup returns a CPU system by name.
func Lookup(name string) (CPU, error) {
	switch name {
	case "EMR1", "emr1":
		return EMR1(), nil
	case "EMR2", "emr2":
		return EMR2(), nil
	case "SPR", "spr":
		return SPR(), nil
	}
	return CPU{}, fmt.Errorf("hw: unknown CPU system %q", name)
}
