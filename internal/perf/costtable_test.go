package perf

import (
	"math"
	"math/rand"
	"testing"
)

// costOf is the test tables' pure cost function: a positive float64 that
// differs between nearby keys.
func costOf(k costKey) float64 {
	h := uint64(k.batch)*0x9e3779b97f4a7c15 + uint64(k.a)*0xc2b2ae3d27d4eb4f + uint64(k.b)
	return float64(h>>12|1) * 0x1p-40
}

// costTableCheck drives a costTable and a map[costKey]float64 — the memo
// StepCoster used before, reset when it reaches maxCostEntries — through the
// same operations and fails on the first answer that differs.
type costTableCheck struct {
	t      testing.TB
	tab    costTable
	ref    map[costKey]float64
	grows  int // slot arrays published by growth
	resets int // generations started by the maxCostEntries reset
}

func newCostTableCheck(t testing.TB) *costTableCheck {
	return &costTableCheck{t: t, ref: make(map[costKey]float64)}
}

func (c *costTableCheck) get(k costKey) {
	c.t.Helper()
	got, ok := c.tab.get(k)
	want, wok := c.ref[k]
	if ok != wok || got != want {
		c.t.Fatalf("get(%+v) = %v, %v; map has %v, %v", k, got, ok, want, wok)
	}
}

func (c *costTableCheck) put(k costKey) {
	c.t.Helper()
	before := c.tab.cur.Load()
	c.tab.put(k, costOf(k))
	if len(c.ref) >= maxCostEntries {
		c.ref = make(map[costKey]float64)
	}
	c.ref[k] = costOf(k)
	switch after := c.tab.cur.Load(); {
	case before == nil || after == before:
	case len(after.slot) > len(before.slot):
		c.grows++
	default:
		c.resets++
	}
	if c.tab.values != len(c.ref) {
		c.t.Fatalf("after put(%+v): table counts %d values, map holds %d", k, c.tab.values, len(c.ref))
	}
	c.get(k)
}

// run decodes ops into table operations on a cursor key, two bytes per op:
// jump to a sparse key, step its a by +1 (the next round of a decoding
// batch) or back, get, put, or put a run of up to 32K a-adjacent keys (so a
// few bytes cross several growths and the maxCostEntries reset).
func (c *costTableCheck) run(ops []byte) {
	k := costKey{batch: 1, a: 1}
	for ; len(ops) >= 2; ops = ops[2:] {
		op, arg := ops[0], int(ops[1])
		switch op % 6 {
		case 0:
			k = costKey{batch: arg % 33, a: arg*37 - 100, b: int(op/6) * 11}
		case 1:
			k.a++
		case 2:
			k.a -= arg % 16
		case 3:
			c.put(k)
		case 4:
			c.get(k)
		case 5:
			for n := 512 * (arg%64 + 1); n > 0; n-- {
				c.put(k)
				k.a++
			}
			c.get(costKey{batch: k.batch, a: k.a - 1 - arg, b: k.b})
		}
	}
}

// TestCostTableMatchesMap: over a random mix of sparse and context-adjacent
// gets and puts, long enough to grow the slot array several times and to
// cross one maxCostEntries reset, the paged table answers every get exactly
// as the map does.
func TestCostTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var ops []byte
	for len(ops) < 1<<13 {
		op := byte(rng.Intn(256))
		if op%6 == 5 && rng.Intn(64) != 0 {
			op-- // keep bulk runs rare: about a dozen in the whole sequence
		}
		ops = append(ops, op, byte(rng.Intn(256)))
	}
	c := newCostTableCheck(t)
	c.run(ops)
	if c.grows < 3 || c.resets < 1 {
		t.Fatalf("sequence grew the table %d times and reset it %d times; want ≥3 and ≥1", c.grows, c.resets)
	}
}

// FuzzCostTable: every op sequence leaves the paged table answering like
// the reference map.
func FuzzCostTable(f *testing.F) {
	f.Add([]byte{3, 0, 4, 0, 1, 0, 4, 0, 3, 0, 4, 0})
	f.Add([]byte{0, 9, 3, 0, 1, 0, 3, 0, 2, 3, 4, 0, 6, 200, 3, 0, 4, 0})
	f.Add([]byte{5, 63, 5, 63, 0, 7, 5, 63, 5, 63, 5, 63, 4, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		newCostTableCheck(t).run(ops)
	})
}

// TestCostTableZeroNotStored: zero is the "not computed" sentinel, so a
// zero cost is never stored or counted; -0 is an ordinary value.
func TestCostTableZeroNotStored(t *testing.T) {
	var tab costTable
	k := costKey{batch: 1, a: 9}
	tab.put(k, 0)
	if v, ok := tab.get(k); ok || tab.values != 0 {
		t.Fatalf("zero cost stored: get = %v, %v; values = %d", v, ok, tab.values)
	}
	tab.put(k, math.Copysign(0, -1))
	if v, ok := tab.get(k); !ok || !math.Signbit(v) {
		t.Fatalf("-0 cost not stored: get = %v, %v", v, ok)
	}
}
