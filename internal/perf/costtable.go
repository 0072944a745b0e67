package perf

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// costKey identifies one step shape.
type costKey struct{ batch, a, b int }

// maxCostEntries bounds each memo table, counted in values; a sweep that
// somehow produces more distinct shapes than this resets the table rather
// than growing without bound (the model context length caps realistic shape
// counts far below it).
const maxCostEntries = 1 << 17

// pageSpan is the number of consecutive values of a key's a dimension one
// page holds. Successive rounds of a replica differ mostly by context+1, so
// they land on the page the previous round touched.
const pageSpan = 8

// minCostSlots is a fresh table's slot count (a power of two).
const minCostSlots = 64

// pageSlab is how many pages put allocates at once: one allocation instead
// of one per page, with a run's successive pages adjacent in memory.
const pageSlab = 32

// costTable is an insert-only memo from costKey to a nonzero float64 cost,
// safe for concurrent use. Lookups take no lock and write nothing: they load
// the current slot array, probe it for the key's page and load one value.
// Inserts serialize on mu, never move a page, and never change a value once
// set, so a reader holding any slot array sees either the right value or
// none — and a miss only recomputes a cost, which is a pure function of its
// key and so bit-identical. The zero value is an empty table.
type costTable struct {
	cur atomic.Pointer[costSlots]

	mu     sync.Mutex // serializes put
	pages  int        // pages in cur
	values int        // values set in cur's pages
	spare  []costPage // unpublished pages of the last slab
}

// costSlots is one published slot array: open addressing with linear
// probing over pages, indexed by the top bits of a multiplicative hash.
type costSlots struct {
	shift uint // 64 - log2(len(slot))
	slot  []atomic.Pointer[costPage]
}

// costPage holds the values of pageSpan consecutive a's under one
// (batch, a &^ (pageSpan-1), b). A value is the cost's Float64bits; 0 means
// not yet computed, so a zero cost is never stored (none of the coster's
// tables memoizes one).
type costPage struct {
	batch, base, b int
	val            [pageSpan]atomic.Uint64
}

func newCostSlots(n int) *costSlots {
	return &costSlots{
		shift: uint(64 - bits.TrailingZeros(uint(n))),
		slot:  make([]atomic.Pointer[costPage], n),
	}
}

// home is a page key's first probe slot.
func (s *costSlots) home(batch, base, b int) int {
	h := uint64(batch)*0x9e3779b97f4a7c15 ^ uint64(base)*0xc2b2ae3d27d4eb4f ^ uint64(b)*0x165667b19e3779f9
	h ^= h >> 31
	return int((h * 0xbf58476d1ce4e5b9) >> s.shift)
}

// find returns the page for (batch, base, b), or the empty slot index where
// it would go.
func (s *costSlots) find(batch, base, b int) (*costPage, int) {
	mask := len(s.slot) - 1
	for i := s.home(batch, base, b); ; i = (i + 1) & mask {
		p := s.slot[i].Load()
		if p == nil || p.batch == batch && p.base == base && p.b == b {
			return p, i
		}
	}
}

// get returns the memoized cost of k, if one is set.
func (t *costTable) get(k costKey) (float64, bool) {
	s := t.cur.Load()
	if s == nil {
		return 0, false
	}
	p, _ := s.find(k.batch, k.a&^(pageSpan-1), k.b)
	if p == nil {
		return 0, false
	}
	v := p.val[k.a&(pageSpan-1)].Load()
	return math.Float64frombits(v), v != 0
}

// put memoizes v as the cost of k.
func (t *costTable) put(k costKey, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.cur.Load()
	if s == nil || t.values >= maxCostEntries {
		s = newCostSlots(minCostSlots)
		t.pages, t.values = 0, 0
		t.cur.Store(s)
	}
	base := k.a &^ (pageSpan - 1)
	p, i := s.find(k.batch, base, k.b)
	if p == nil {
		if 2*(t.pages+1) > len(s.slot) {
			s = t.grow(s)
			_, i = s.find(k.batch, base, k.b)
		}
		if len(t.spare) == 0 {
			t.spare = make([]costPage, pageSlab)
		}
		p, t.spare = &t.spare[0], t.spare[1:]
		p.batch, p.base, p.b = k.batch, base, k.b
		s.slot[i].Store(p)
		t.pages++
	}
	if w, bits := &p.val[k.a&(pageSpan-1)], math.Float64bits(v); bits != 0 && w.Load() == 0 {
		w.Store(bits)
		t.values++
	}
}

// entries is the number of values set in the current generation.
func (t *costTable) entries() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.values
}

// grow publishes a slot array twice the size of s holding the same pages.
func (t *costTable) grow(s *costSlots) *costSlots {
	g := newCostSlots(2 * len(s.slot))
	for i := range s.slot {
		if p := s.slot[i].Load(); p != nil {
			_, j := g.find(p.batch, p.base, p.b)
			g.slot[j].Store(p)
		}
	}
	t.cur.Store(g)
	return g
}
