// Package tee models the trusted execution environments the paper
// evaluates. Each Platform bundles the mechanism parameters the performance
// engine consumes: compute tax (virtualization), memory-encryption bandwidth
// factors, page-walk amplification and effective page policy, NUMA placement
// behaviour, enclave-exit costs (SGX/Gramine), EPC limits, and — for GPUs —
// launch-latency and PCIe bounce-buffer costs. It also implements the
// attestation flow users run before provisioning secrets into an enclave.
package tee

import (
	"fmt"

	"cllm/internal/gramine"
	"cllm/internal/hw"
	"cllm/internal/mem"
)

// Class is the broad TEE category, as in the paper's Table I columns.
type Class int

const (
	// ClassNone is an unprotected baseline (bare metal or plain VM/GPU).
	ClassNone Class = iota
	// ClassProcess is a process/enclave TEE (SGX).
	ClassProcess
	// ClassVM is a confidential-VM TEE (TDX, SEV-SNP).
	ClassVM
	// ClassGPU is a GPU TEE (H100 CC).
	ClassGPU
)

// Platform carries everything the performance engine needs to cost a
// workload on one hardware/TEE combination.
type Platform struct {
	// Name as used in the paper's plots: baremetal, VM, TDX, SGX, GPU, cGPU.
	Name string
	// Class of protection.
	Class Class
	// Protected reports whether this platform provides TEE guarantees
	// (drives the extra noise/outlier model and the security matrix).
	Protected bool

	// --- CPU-side mechanisms ---

	// ComputeTax is the fractional compute slowdown (virtualization).
	ComputeTax float64
	// MemBWFactor scales DRAM bandwidth (memory encryption engines).
	MemBWFactor float64
	// PageWalkAmp multiplies TLB-miss cost (nested/secure EPT).
	PageWalkAmp float64
	// Pages is the page policy actually in effect.
	Pages mem.PagePolicy
	// NUMA is the placement policy the platform achieves.
	NUMA mem.NUMAPolicy
	// UPIEncrypted applies the cross-socket link crypto penalty.
	UPIEncrypted bool
	// ExitCostSec and ExitsPerToken model Gramine enclave exits.
	ExitCostSec   float64
	ExitsPerToken float64
	// EPC is the SGX enclave page cache (zero Size = unlimited).
	EPC mem.EPC
	// PerOpCostSec is a fixed cost added to every operator under a TEE
	// (encryption-pipeline fill on small ops — why layer norms show the
	// paper's largest relative overheads, Fig 7).
	PerOpCostSec float64

	// --- GPU-side mechanisms ---

	// KernelLaunchExtraSec is added to every kernel launch (encrypted
	// command buffers on cGPU).
	KernelLaunchExtraSec float64
	// StepExtraSec is a fixed per-step confidential-compute cost on GPUs
	// (bounce-buffer doorbells, encrypted synchronization).
	StepExtraSec float64
	// PCIeBWFactor scales host-GPU transfer bandwidth (bounce buffer).
	PCIeBWFactor float64
	// HBMEncrypted is false on H100 (a Table I security gap, not a cost).
	HBMEncrypted bool
	// NVLinkProtected is false on H100 (scale-up must route via host).
	NVLinkProtected bool
}

// Baremetal returns the unprotected bare-metal baseline.
func Baremetal() Platform {
	return Platform{
		Name:         "baremetal",
		Class:        ClassNone,
		MemBWFactor:  1,
		PageWalkAmp:  1,
		Pages:        mem.PolicyTransparentHuge,
		NUMA:         mem.NUMABound,
		PCIeBWFactor: 1,
	}
}

// VMVariant selects the paper's VM configurations.
type VMVariant int

const (
	// VMFullHuge is a VM backed by preallocated 1G hugepages (VM FH).
	VMFullHuge VMVariant = iota
	// VMTransparentHuge uses 2M transparent hugepages (VM TH).
	VMTransparentHuge
	// VMNoBinding drops NUMA bindings (VM NB).
	VMNoBinding
)

// VM returns an unprotected KVM guest in the given variant.
func VM(v VMVariant) Platform {
	p := Platform{
		Name:         "VM",
		Class:        ClassNone,
		ComputeTax:   hw.VMComputeTax,
		MemBWFactor:  1,
		PageWalkAmp:  hw.VMPageWalkAmplification,
		Pages:        mem.PolicyFullHuge,
		NUMA:         mem.NUMABound,
		PCIeBWFactor: 1,
	}
	switch v {
	case VMTransparentHuge:
		p.Name = "VM-TH"
		p.Pages = mem.PolicyTransparentHuge
	case VMNoBinding:
		p.Name = "VM-NB"
		p.Pages = mem.PolicyTransparentHuge
		p.NUMA = mem.NUMAUnbound
	default:
		p.Name = "VM-FH"
	}
	return p
}

// TDX returns the Intel TDX confidential VM: VM mechanics plus secure-EPT
// walks, the memory-encryption engine, forced 2M transparent hugepages
// (Insight 7), broken NUMA bindings (Insight 6) and encrypted UPI.
func TDX() Platform {
	return Platform{
		Name:         "TDX",
		Class:        ClassVM,
		Protected:    true,
		ComputeTax:   hw.VMComputeTax,
		MemBWFactor:  hw.MemEncryptBWFactor,
		PageWalkAmp:  hw.TDXPageWalkAmplification,
		Pages:        mem.PolicyTDX,
		NUMA:         mem.NUMABrokenTDX,
		UPIEncrypted: true,
		PerOpCostSec: 2.0e-6,
		PCIeBWFactor: 1,
	}
}

// SGX returns the Gramine-on-SGX process TEE configured by the manifest.
// It runs on bare metal (no virtualization tax) but pays EPC protection,
// enclave exits, single-node NUMA presentation and encrypted UPI.
func SGX(m *gramine.Manifest) (Platform, error) {
	if m == nil {
		return Platform{}, fmt.Errorf("tee: SGX requires a manifest")
	}
	if err := m.Validate(); err != nil {
		return Platform{}, err
	}
	exits := float64(hw.SGXExitsPerToken)
	// The measured per-token exit rate scales with the OCALL share of the
	// libOS syscall profile.
	prof := gramine.Profile(gramine.InferenceLoopSyscalls())
	if prof.Total > 0 {
		exits = float64(hw.SGXExitsPerToken) * float64(prof.Exits) / float64(prof.Total) * 3
	}
	return Platform{
		Name:          "SGX",
		Class:         ClassProcess,
		Protected:     true,
		MemBWFactor:   hw.SGXEPCBWFactor,
		PageWalkAmp:   1,
		Pages:         mem.PolicyTransparentHuge,
		NUMA:          mem.NUMASingleNodeSGX,
		UPIEncrypted:  true,
		ExitCostSec:   hw.SGXExitCostSec,
		ExitsPerToken: exits,
		EPC:           mem.EPC{Size: m.EnclaveSize, PageInCostFactor: mem.DefaultEPC().PageInCostFactor},
		PerOpCostSec:  1.5e-6,
		PCIeBWFactor:  1,
	}, nil
}

// GPU returns the unprotected H100 runtime.
func GPU() Platform {
	return Platform{
		Name:            "GPU",
		Class:           ClassNone,
		MemBWFactor:     1,
		PageWalkAmp:     1,
		Pages:           mem.PolicyTransparentHuge,
		NUMA:            mem.NUMABound,
		PCIeBWFactor:    1,
		HBMEncrypted:    false,
		NVLinkProtected: false,
	}
}

// CGPU returns the H100 confidential-compute mode: encrypted/authenticated
// PCIe bounce buffers and costlier kernel launches; HBM stays unencrypted
// and NVLink unprotected (the paper's §V-A security caveats).
func CGPU() Platform {
	return Platform{
		Name:                 "cGPU",
		Class:                ClassGPU,
		Protected:            true,
		MemBWFactor:          1, // no HBM encryption on H100
		PageWalkAmp:          1,
		Pages:                mem.PolicyTransparentHuge,
		NUMA:                 mem.NUMABound,
		KernelLaunchExtraSec: hw.CGPULaunchExtraSec,
		StepExtraSec:         hw.CGPUStepExtraSec,
		PCIeBWFactor:         hw.CGPUPCIeBWFactor,
		HBMEncrypted:         false,
		NVLinkProtected:      false,
	}
}

// Clear returns the platform's clear-hardware twin: the same machine with
// every TEE mechanism neutralized — no memory-encryption bandwidth factor,
// no secure-EPT walk amplification, no enclave exits or EPC ceiling, no
// per-op encryption-pipeline cost, no AES-GCM bounce buffer or encrypted
// launch path. Non-TEE mechanics survive: a confidential VM's twin is a
// plain VM (virtualization compute tax and nested-EPT walks stay), SGX's
// twin is bare metal, cGPU's twin is the plain GPU runtime. The
// counterfactual step coster behind latency attribution prices rounds on
// the twin; the per-step delta against the real platform is the TEE tax.
// Unprotected platforms are their own twin.
func (p Platform) Clear() Platform {
	if !p.Protected {
		return p
	}
	c := p
	c.Name = p.Name + "-clear"
	c.Protected = false
	c.MemBWFactor = 1
	c.UPIEncrypted = false
	c.ExitCostSec = 0
	c.ExitsPerToken = 0
	c.EPC = mem.EPC{}
	c.PerOpCostSec = 0
	c.KernelLaunchExtraSec = 0
	c.StepExtraSec = 0
	c.PCIeBWFactor = 1
	switch p.Class {
	case ClassVM:
		// Secure-EPT's extra walk cost, the forced page policy and the
		// broken NUMA bindings are TEE artifacts; plain-VM nested paging,
		// transparent hugepages and working NUMA bindings come back.
		c.PageWalkAmp = hw.VMPageWalkAmplification
		c.Pages = mem.PolicyTransparentHuge
		c.NUMA = mem.NUMABound
	case ClassProcess:
		// SGX runs on bare metal; without the enclave the single-node NUMA
		// presentation goes away too.
		c.PageWalkAmp = 1
		c.NUMA = mem.NUMABound
	}
	c.Class = ClassNone
	return c
}

// WithSNC returns a copy of the platform running with sub-NUMA clustering
// enabled, which TEE drivers mishandle (§IV-A.1: ~5% → ~42% overhead).
func (p Platform) WithSNC() Platform {
	if p.Protected && (p.Class == ClassVM || p.Class == ClassProcess) {
		p.NUMA = mem.NUMASubNUMAMisplaced
		p.Name += "+SNC"
	}
	return p
}

// UPIFactor returns the cross-socket bandwidth multiplier.
func (p Platform) UPIFactor() float64 {
	if p.UPIEncrypted {
		return hw.UPIEncryptBWFactor
	}
	return 1
}

// SwapBWFactor returns the bandwidth multiplier KV swap-to-host traffic
// pays on this platform. On GPUs the transfer crosses PCIe, so cGPU pays
// the AES-GCM bounce-buffer factor the paper measures for host transfers
// (§V-D.4); on CPUs the swap is a DRAM-to-DRAM memcpy that stays behind
// the inline memory-encryption engine, so TDX/SGX swap at near-native
// speed (MemBWFactor) — exactly the asymmetry that makes swap-vs-recompute
// a per-TEE trade-off rather than a fixed rule.
func (p Platform) SwapBWFactor(isGPU bool) float64 {
	if isGPU {
		return p.PCIeBWFactor
	}
	return p.MemBWFactor
}
