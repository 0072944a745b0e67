package hw

import (
	"testing"

	"cllm/internal/dtype"
)

func TestSystems(t *testing.T) {
	e1, e2 := EMR1(), EMR2()
	if e1.Sockets != 2 || e1.CoresPerSocket != 32 {
		t.Errorf("EMR1 = %+v", e1)
	}
	if e2.Sockets != 2 || e2.CoresPerSocket != 60 {
		t.Errorf("EMR2 = %+v", e2)
	}
	// The paper quotes $2130 for the Gold 6530 and $10710 for the 8580.
	if e1.ListPriceUSD != 2130 || e2.ListPriceUSD != 10710 {
		t.Error("CPU list prices do not match the paper")
	}
	if !e1.HasAMX || !e2.HasAMX {
		t.Error("Emerald Rapids must have AMX")
	}
}

func TestLookup(t *testing.T) {
	for _, n := range []string{"EMR1", "emr1", "EMR2", "emr2", "SPR", "spr"} {
		if _, err := Lookup(n); err != nil {
			t.Errorf("Lookup(%q): %v", n, err)
		}
	}
	if _, err := Lookup("GNR"); err == nil {
		t.Error("unknown system resolved")
	}
}

func TestFlopsPerCycle(t *testing.T) {
	c := EMR1()
	// AMX: int8 doubles bf16; both far above AVX512.
	if c.FlopsPerCycle(dtype.I8, true) != 2*c.FlopsPerCycle(dtype.BF16, true) {
		t.Error("AMX int8 must double bf16")
	}
	if c.FlopsPerCycle(dtype.BF16, true) <= c.FlopsPerCycle(dtype.BF16, false) {
		t.Error("AMX bf16 must beat AVX512 bf16")
	}
	// f32 has no AMX tiles.
	if c.FlopsPerCycle(dtype.F32, true) != c.FlopsPerCycle(dtype.F32, false) {
		t.Error("f32 should not change with AMX")
	}
	// No-AMX int8 is the broken IPEX path: slower than AVX f32.
	if c.FlopsPerCycle(dtype.I8, false) >= c.FlopsPerCycle(dtype.F32, false) {
		t.Error("no-AMX int8 should be the slowest path")
	}
	// A CPU without AMX never uses tile rates.
	noAMX := c
	noAMX.HasAMX = false
	if noAMX.FlopsPerCycle(dtype.BF16, true) != noAMX.FlopsPerCycle(dtype.BF16, false) {
		t.Error("HasAMX=false must ignore the amx flag")
	}
}

func TestSocketFlopsClamping(t *testing.T) {
	c := EMR2()
	full := c.SocketFlops(dtype.BF16, true, 60)
	if c.SocketFlops(dtype.BF16, true, 0) != full {
		t.Error("cores=0 should mean all cores")
	}
	if c.SocketFlops(dtype.BF16, true, 100) != full {
		t.Error("cores beyond capacity should clamp")
	}
	if half := c.SocketFlops(dtype.BF16, true, 30); half*2 != full {
		t.Error("socket flops not linear in cores")
	}
}

func TestSPRSlower(t *testing.T) {
	spr, emr := SPR(), EMR2()
	if spr.MemBWPerSocket >= emr.MemBWPerSocket {
		t.Error("SPR memory bandwidth should trail EMR")
	}
	if spr.FreqHz >= emr.FreqHz {
		t.Error("SPR frequency should trail EMR")
	}
	if !spr.HasAMX {
		t.Error("Sapphire Rapids introduced AMX; must have it")
	}
}

func TestH100(t *testing.T) {
	g := H100NVL()
	if g.HBMBytes != 94<<30 {
		t.Errorf("H100 NVL HBM = %d, want 94 GiB", g.HBMBytes)
	}
	if g.TensorFlops <= 0 || g.HBMBandwidth <= 0 || g.KernelsPerBlock <= 0 {
		t.Errorf("H100 parameters incomplete: %+v", g)
	}
	if g.ListPriceUSD != 30000 {
		t.Error("H100 NVL list price should be ~$30k per the paper")
	}
}
