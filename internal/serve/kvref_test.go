package serve

import (
	"fmt"
	"math/rand"
	"testing"
)

// refBlockManager is the prefix cache as a map of individual blocks: every
// published block is its own map entry under a chained per-block hash,
// eviction scans every block for the smallest LRU sequence, and dedup
// counts distinct blocks. It relies on none of the chain invariants
// BlockManager's per-prefix entries exploit, which makes it the
// differential oracle for them. Requests are keyed by ID.
type refBlockManager struct {
	blockTokens int
	total       int
	free        int
	holds       map[int]*refHold
	shared      map[refKey]*refBlock
	cached      int
	tick        int64
	peakInUse   int
	evicted     int
	hitTokens   int
	missTokens  int
	swapTotal   int
	swapUsed    int
}

// refHold is one request's holding: private blocks, the pinned chain in
// chain order, and a parked swap copy.
type refHold struct {
	private int
	pins    []*refBlock
	swap    int
}

// refKey identifies one block by its chained content hash and position.
type refKey struct {
	hash uint64
	idx  int
}

// refBlock is one published block.
type refBlock struct {
	key      refKey
	refs     int
	computed bool
	lruSeq   int64
}

// refChainHash extends a prefix identity hash to the block at index idx.
func refChainHash(prefixHash uint64, idx int) uint64 {
	return mix64(prefixHash + 0x9e3779b97f4a7c15*uint64(idx+1))
}

func newRefBlockManager(blocks, blockTokens, swapBlocks int) *refBlockManager {
	return &refBlockManager{
		blockTokens: blockTokens,
		total:       blocks,
		free:        blocks,
		holds:       make(map[int]*refHold),
		shared:      make(map[refKey]*refBlock),
		swapTotal:   swapBlocks,
	}
}

func (m *refBlockManager) hold(id int) *refHold {
	h := m.holds[id]
	if h == nil {
		h = &refHold{}
		m.holds[id] = h
	}
	return h
}

// settle forgets a holding that holds nothing.
func (m *refBlockManager) settle(id int) {
	if h := m.holds[id]; h != nil && h.private == 0 && len(h.pins) == 0 && h.swap == 0 {
		delete(m.holds, id)
	}
}

func (m *refBlockManager) blocksFor(tokens int) int {
	if tokens <= 0 {
		return 0
	}
	return (tokens + m.blockTokens - 1) / m.blockTokens
}

func (m *refBlockManager) notePeak() { m.peakInUse = max(m.peakInUse, m.total-m.free) }

func (m *refBlockManager) evictOne() bool {
	var victim *refBlock
	for _, b := range m.shared {
		if b.refs == 0 && (victim == nil || b.lruSeq < victim.lruSeq) {
			victim = b
		}
	}
	if victim == nil {
		return false
	}
	delete(m.shared, victim.key)
	m.free++
	m.evicted++
	m.cached--
	return true
}

func (m *refBlockManager) reserve(n int) bool {
	for m.free < n {
		if !m.evictOne() {
			return false
		}
	}
	return true
}

func (m *refBlockManager) FlushCache() int {
	n := 0
	for key, b := range m.shared {
		if b.refs == 0 {
			delete(m.shared, key)
			n++
		}
	}
	m.free += n
	m.evicted += n
	m.cached -= n
	return n
}

func (m *refBlockManager) AcquirePrefix(id int, prefixHash uint64, prefixTokens int) (cachedTokens int, err error) {
	if prefixTokens < m.blockTokens {
		return 0, nil
	}
	h := m.hold(id)
	if len(h.pins) > 0 {
		return 0, fmt.Errorf("request %d acquires a prefix it already holds", id)
	}
	hitsDone := false
	for idx := 0; idx < prefixTokens/m.blockTokens; idx++ {
		key := refKey{hash: refChainHash(prefixHash, idx), idx: idx}
		if b, ok := m.shared[key]; ok {
			if b.refs == 0 {
				m.cached--
			}
			b.refs++
			h.pins = append(h.pins, b)
			if b.computed && !hitsDone {
				cachedTokens += m.blockTokens
			} else {
				hitsDone = true
			}
			continue
		}
		hitsDone = true
		if !m.reserve(1) {
			break
		}
		m.free--
		b := &refBlock{key: key, refs: 1}
		m.shared[key] = b
		h.pins = append(h.pins, b)
		m.notePeak()
	}
	m.settle(id)
	return cachedTokens, nil
}

func (m *refBlockManager) Credit(id, cachedTokens int) {
	m.hitTokens += cachedTokens
	if missed := m.SharedTokens(id) - cachedTokens; missed > 0 {
		m.missTokens += missed
	}
}

func (m *refBlockManager) SharedTokens(id int) int {
	if h := m.holds[id]; h != nil {
		return len(h.pins) * m.blockTokens
	}
	return 0
}

func (m *refBlockManager) MarkComputed(id, tokens int) {
	if h := m.holds[id]; h != nil {
		for _, b := range h.pins {
			if (b.key.idx+1)*m.blockTokens <= tokens {
				b.computed = true
			}
		}
	}
}

func (m *refBlockManager) Grow(id, tokens int) bool {
	held := 0
	if h := m.holds[id]; h != nil {
		held = len(h.pins) + h.private
	}
	need := m.blocksFor(tokens) - held
	if need <= 0 {
		return true
	}
	if !m.reserve(need) {
		return false
	}
	m.free -= need
	m.hold(id).private += need
	m.notePeak()
	return true
}

func (m *refBlockManager) Release(id int) int {
	h := m.holds[id]
	if h == nil {
		return 0
	}
	n := m.unhold(h)
	m.settle(id)
	return n
}

func (m *refBlockManager) unhold(h *refHold) int {
	n := h.private
	m.free += h.private
	h.private = 0
	if len(h.pins) > 0 {
		m.tick++
		for _, b := range h.pins {
			n++
			b.refs--
			if b.refs > 0 {
				continue
			}
			if !b.computed {
				delete(m.shared, b.key)
				m.free++
				continue
			}
			b.lruSeq = m.tick<<16 - int64(b.key.idx)
			m.cached++
		}
		h.pins = nil
	}
	return n
}

func (m *refBlockManager) SwapOut(id, tokens int) bool {
	if tokens <= 0 {
		return false
	}
	if h := m.holds[id]; h != nil && h.swap > 0 {
		return false
	}
	need := m.blocksFor(tokens)
	if m.swapUsed+need > m.swapTotal {
		return false
	}
	h := m.hold(id)
	m.unhold(h)
	h.swap = need
	m.swapUsed += need
	return true
}

func (m *refBlockManager) SwapIn(id int) int {
	h := m.holds[id]
	if h == nil || h.swap == 0 {
		return 0
	}
	n := h.swap
	h.swap = 0
	m.swapUsed -= n
	m.settle(id)
	return n
}

// DedupSavedTokens counts every pinned block once per row and each
// distinct block once for the batch.
func (m *refBlockManager) DedupSavedTokens(ids []int) int {
	seen := make(map[*refBlock]struct{})
	pins := 0
	for _, id := range ids {
		if h := m.holds[id]; h != nil {
			for _, b := range h.pins {
				pins++
				seen[b] = struct{}{}
			}
		}
	}
	return (pins - len(seen)) * m.blockTokens
}

// counters are the observable pool counters, in kvCounters' order.
func (m *refBlockManager) counters() [9]int {
	inUse := m.total - m.free - m.cached
	return [9]int{m.free, inUse, m.cached, m.swapUsed, m.hitTokens, m.missTokens,
		m.evicted, m.peakInUse, len(m.holds)}
}

// opReader feeds a differential walk its choices; an exhausted reader
// ends the walk.
type opReader struct {
	data []byte
	pos  int
}

func (r *opReader) more() bool { return r.pos < len(r.data) }

// next returns the next byte, or zero past the end.
func (r *opReader) next() int {
	if r.pos >= len(r.data) {
		return 0
	}
	r.pos++
	return int(r.data[r.pos-1])
}

// diffCoverage counts the cases a differential walk exercised.
type diffCoverage struct {
	ops, evictions, flushed, cutShort, swapIns, dedupSaving int
}

func (c *diffCoverage) add(o diffCoverage) {
	c.ops += o.ops
	c.evictions += o.evictions
	c.flushed += o.flushed
	c.cutShort += o.cutShort
	c.swapIns += o.swapIns
	c.dedupSaving += o.dedupSaving
}

// diffWalk decodes data into up to limit KV operations and applies each
// to a BlockManager, driven through the scheduler's slot path, and to
// refBlockManager. It fails on the first return value or pool counter that
// differs and checks conservation after every operation. The first byte
// sizes the device pool (4–31 blocks, so chains are often cut short and
// the cache is under eviction pressure); the swap pool is half of it.
//
// Operations follow the scheduler's order: a parked request is neither
// acquired for nor grown except by a restore, which re-acquires its
// prefix and grows before dropping the parked copy.
func diffWalk(t testing.TB, data []byte, limit int) diffCoverage {
	t.Helper()
	r := &opReader{data: data}
	const blockTokens = 16
	blocks := 4 + r.next()%28
	m, err := NewBlockManager(int64(blocks)*blockTokens*4, blockTokens, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	m.ConfigureSwapPool(blocks / 2)
	ref := newRefBlockManager(blocks, blockTokens, blocks/2)
	api := &slotAPI{m: m}

	type live struct {
		id, group, prefixLen int
		swapped              bool
	}
	var actives []live
	var cov diffCoverage
	nextID := 0
	fail := func(op string, got, want any) {
		t.Helper()
		t.Fatalf("op %d (%s): per-prefix manager returned %v, map-per-block reference %v", cov.ops, op, got, want)
	}
	// pick chooses a live request; an empty walk only ever acquires.
	pick := func() int { return r.next() % len(actives) }
	acquire := func(a live) {
		h := prefixHash(a.group)
		c, err := api.AcquirePrefix(a.id, h, a.prefixLen)
		c2, err2 := ref.AcquirePrefix(a.id, h, a.prefixLen)
		if c != c2 || (err == nil) != (err2 == nil) {
			fail("AcquirePrefix", fmt.Sprint(c, err), fmt.Sprint(c2, err2))
		}
		if s, s2 := api.SharedTokens(a.id), ref.SharedTokens(a.id); s != s2 {
			fail("SharedTokens", s, s2)
		} else if s < a.prefixLen/blockTokens*blockTokens {
			cov.cutShort++
		}
		api.Credit(a.id, c)
		ref.Credit(a.id, c)
	}
	grow := func(id, tokens int) bool {
		ok, ok2 := api.Grow(id, tokens), ref.Grow(id, tokens)
		if ok != ok2 {
			fail(fmt.Sprintf("Grow(%d, %d)", id, tokens), ok, ok2)
		}
		return ok
	}
	release := func(id int) {
		if n, n2 := api.Release(id), ref.Release(id); n != n2 {
			fail("Release", n, n2)
		}
	}
	swapIn := func(id int) {
		if n, n2 := api.SwapIn(id), ref.SwapIn(id); n != n2 {
			fail("SwapIn", n, n2)
		}
	}

	for r.more() && cov.ops < limit {
		evictedBefore := m.EvictedBlocks()
		flushed := 0
		switch op := r.next() % 16; {
		case op < 4 || len(actives) == 0: // a new request pins its prefix
			a := live{id: nextID, group: r.next()%5 + 1, prefixLen: r.next() % 144}
			nextID++
			acquire(a)
			actives = append(actives, a)
		case op < 6: // grow a running request
			if k := pick(); !actives[k].swapped {
				grow(actives[k].id, actives[k].prefixLen+r.next()*2)
			}
		case op < 8: // prefill progress
			if k := pick(); !actives[k].swapped {
				tokens := r.next() % (actives[k].prefixLen + 17)
				api.MarkComputed(actives[k].id, tokens)
				ref.MarkComputed(actives[k].id, tokens)
			}
		case op < 11: // finish or preempt by recompute
			k := pick()
			if actives[k].swapped {
				swapIn(actives[k].id) // drop the parked copy
			} else {
				release(actives[k].id)
			}
			actives = append(actives[:k], actives[k+1:]...)
		case op == 11: // preempt by swap-out
			k := pick()
			tokens := r.next() + 1
			ok, ok2 := api.SwapOut(actives[k].id, tokens), ref.SwapOut(actives[k].id, tokens)
			if ok != ok2 {
				fail("SwapOut", ok, ok2)
			}
			if ok {
				actives[k].swapped = true
			}
		case op == 12: // restore a parked request
			k := pick()
			a := &actives[k]
			if !a.swapped {
				break
			}
			acquire(*a)
			if !grow(a.id, a.prefixLen+1) {
				release(a.id) // no room: un-pin, the copy stays parked
				break
			}
			swapIn(a.id)
			api.MarkComputed(a.id, a.prefixLen)
			ref.MarkComputed(a.id, a.prefixLen)
			a.swapped = false
			cov.swapIns++
		case op == 13 && r.next()%4 == 0: // crash: the cache dies with the TEE
			n, n2 := api.FlushCache(), ref.FlushCache()
			if n != n2 {
				fail("FlushCache", n, n2)
			}
			flushed = n
			cov.flushed += n
		default: // a decode round folds a random batch
			var batch []int
			for _, a := range actives {
				if r.next()%2 == 0 {
					batch = append(batch, a.id)
				}
			}
			got, want := api.DedupSavedTokens(batch), ref.DedupSavedTokens(batch)
			if got != want {
				fail(fmt.Sprintf("DedupSavedTokens(%v)", batch), got, want)
			}
			if got > 0 {
				cov.dedupSaving++
			}
		}
		cov.evictions += m.EvictedBlocks() - evictedBefore - flushed
		if got, want := kvCounters(m), ref.counters(); got != want {
			fail("counters ("+kvCountersLegend+")", got, want)
		}
		if err := m.CheckConservation(); err != nil {
			t.Fatalf("op %d: %v", cov.ops, err)
		}
		cov.ops++
	}
	return cov
}

// randomOps returns random walk input long enough for n operations.
func randomOps(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 1+8*n) // most operations read at most three bytes
	rng.Read(data)
	return data
}

// TestBlockManagerMatchesReference runs randomized differential walks of
// the per-prefix prefix cache against the map-per-block reference. Every
// return value and pool counter must agree after every operation, and
// the walks must have exercised evictions, flushes and chains cut short
// by a full pool.
func TestBlockManagerMatchesReference(t *testing.T) {
	const seeds, ops = 400, 600
	var cov diffCoverage
	for seed := range seeds {
		cov.add(diffWalk(t, randomOps(int64(seed), ops), ops))
	}
	t.Logf("%d ops: %d evictions, %d flushed blocks, %d chains cut short, %d restores, %d saving folds",
		cov.ops, cov.evictions, cov.flushed, cov.cutShort, cov.swapIns, cov.dedupSaving)
	if cov.evictions == 0 || cov.flushed == 0 || cov.cutShort == 0 || cov.swapIns == 0 || cov.dedupSaving == 0 {
		t.Fatalf("walks missed a case: %+v", cov)
	}
}

// FuzzBlockManagerOps decodes the input into a differential walk's
// operations (see diffWalk) and holds the per-prefix manager equal to the
// map-per-block reference.
func FuzzBlockManagerOps(f *testing.F) {
	for seed := range int64(4) {
		f.Add(randomOps(seed, 64))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		diffWalk(t, data, 1024)
	})
}
