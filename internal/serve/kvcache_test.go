package serve

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestBlockManagerAccounting(t *testing.T) {
	// 10 blocks of 16 tokens × 4 bytes/token = 64 bytes/block.
	m, err := NewBlockManager(640, 16, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalBlocks() != 10 || m.FreeBlocks() != 10 {
		t.Fatalf("pool %d/%d, want 10/10", m.FreeBlocks(), m.TotalBlocks())
	}
	if got := m.BlocksFor(1); got != 1 {
		t.Errorf("BlocksFor(1) = %d", got)
	}
	if got := m.BlocksFor(16); got != 1 {
		t.Errorf("BlocksFor(16) = %d", got)
	}
	if got := m.BlocksFor(17); got != 2 {
		t.Errorf("BlocksFor(17) = %d", got)
	}
	if got := m.BlocksFor(0); got != 0 {
		t.Errorf("BlocksFor(0) = %d", got)
	}

	if !m.Grow(1, 40) { // 3 blocks
		t.Fatal("Grow(1, 40) failed with an empty pool")
	}
	if m.InUse() != 3 || m.FreeBlocks() != 7 {
		t.Fatalf("after grow: in-use %d free %d", m.InUse(), m.FreeBlocks())
	}
	if !m.Grow(1, 49) { // 4th block needed past 48 tokens
		t.Fatal("incremental grow failed")
	}
	if m.InUse() != 4 {
		t.Fatalf("in-use %d after incremental grow, want 4", m.InUse())
	}
	if !m.Grow(1, 30) { // shrink request is a no-op, not a free
		t.Fatal("no-op grow failed")
	}
	if m.InUse() != 4 {
		t.Fatalf("no-op grow changed allocation to %d", m.InUse())
	}

	// All-or-nothing: 7 free, ask for 8 more.
	if m.Grow(2, 8*16) {
		t.Fatal("oversized grow succeeded")
	}
	if m.InUse() != 4 || m.Holders() != 1 {
		t.Fatalf("failed grow changed state: in-use %d holders %d", m.InUse(), m.Holders())
	}

	if n := m.Release(1); n != 4 {
		t.Fatalf("released %d blocks, want 4", n)
	}
	if m.InUse() != 0 || m.FreeBlocks() != 10 {
		t.Fatalf("after release: in-use %d free %d", m.InUse(), m.FreeBlocks())
	}
	if m.PeakInUse() != 4 {
		t.Fatalf("peak %d, want 4", m.PeakInUse())
	}
}

func TestPrefixSharingLifecycle(t *testing.T) {
	// 32 blocks of 16 tokens × 4 bytes/token.
	m, err := NewBlockManager(32*64, 16, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	h := prefixHash(7)

	// First acquirer publishes 4 blocks (64 prefix tokens), nothing cached.
	cached, err := m.AcquirePrefix(1, h, 64)
	if err != nil {
		t.Fatal(err)
	}
	if cached != 0 {
		t.Fatalf("first acquire cached %d tokens, want 0", cached)
	}
	if m.SharedTokens(1) != 64 || m.InUse() != 4 {
		t.Fatalf("pins %d tokens, in-use %d", m.SharedTokens(1), m.InUse())
	}
	// A concurrent sharer pins the same blocks but gets no hits — they are
	// not computed yet.
	if cached, _ = m.AcquirePrefix(2, h, 64); cached != 0 {
		t.Fatalf("uncomputed blocks served %d cached tokens", cached)
	}
	if m.InUse() != 4 {
		t.Fatalf("sharer allocated new blocks: in-use %d, want 4", m.InUse())
	}
	m.MarkComputed(1, 64)
	// A later sharer now hits the whole prefix.
	if cached, _ = m.AcquirePrefix(3, h, 64); cached != 64 {
		t.Fatalf("computed prefix served %d cached tokens, want 64", cached)
	}
	if err := m.CheckConservation(); err != nil {
		t.Fatal(err)
	}

	// Private growth counts pinned blocks first: 64 shared + 36 private
	// tokens need 4 + 3 blocks.
	if !m.Grow(1, 100) {
		t.Fatal("grow failed with a near-empty pool")
	}
	if m.InUse() != 7 {
		t.Fatalf("in-use %d after grow, want 7 (4 shared + 3 private)", m.InUse())
	}

	// Releases decrement refcounts; blocks cache only when nobody pins.
	m.Release(1)
	m.Release(2)
	if m.CachedBlocks() != 0 {
		t.Fatalf("blocks cached while request 3 still pins them")
	}
	m.Release(3)
	if m.CachedBlocks() != 4 || m.InUse() != 0 {
		t.Fatalf("cached %d in-use %d after all releases, want 4/0", m.CachedBlocks(), m.InUse())
	}
	// A new arrival hits straight from the cache and revives the blocks.
	if cached, _ = m.AcquirePrefix(9, h, 64); cached != 64 {
		t.Fatalf("cache revival served %d tokens, want 64", cached)
	}
	if m.CachedBlocks() != 0 || m.InUse() != 4 {
		t.Fatalf("revival state: cached %d in-use %d", m.CachedBlocks(), m.InUse())
	}
	if err := m.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixNoSharingAcrossDifferentPrefixes(t *testing.T) {
	m, err := NewBlockManager(64*64, 16, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AcquirePrefix(1, prefixHash(1), 64); err != nil {
		t.Fatal(err)
	}
	m.MarkComputed(1, 64)
	// Same length, different prefix identity: the chained hashes differ at
	// every block index, so nothing may be served from request 1's blocks.
	cached, err := m.AcquirePrefix(2, prefixHash(2), 64)
	if err != nil {
		t.Fatal(err)
	}
	if cached != 0 {
		t.Fatalf("different prefix hit %d cached tokens", cached)
	}
	if m.InUse() != 8 {
		t.Fatalf("in-use %d, want 8 distinct blocks", m.InUse())
	}
	// Same identity, shorter declared prefix: shares the leading blocks only.
	cached, err = m.AcquirePrefix(3, prefixHash(1), 32)
	if err != nil {
		t.Fatal(err)
	}
	if cached != 32 {
		t.Fatalf("leading-block share served %d tokens, want 32", cached)
	}
	if err := m.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixCacheEvictionLeafFirst(t *testing.T) {
	// 8-block pool; publish a 6-block prefix, release it (cached), then
	// demand private blocks that force eviction.
	m, err := NewBlockManager(8*64, 16, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AcquirePrefix(1, prefixHash(5), 96); err != nil {
		t.Fatal(err)
	}
	m.MarkComputed(1, 96)
	m.Release(1)
	if m.CachedBlocks() != 6 || m.FreeBlocks() != 2 {
		t.Fatalf("cached %d free %d, want 6/2", m.CachedBlocks(), m.FreeBlocks())
	}
	// 4 private blocks needed → 2 free + 2 evicted (the deepest two).
	if !m.Grow(2, 64) {
		t.Fatal("grow with evictable cache failed")
	}
	if m.EvictedBlocks() != 2 {
		t.Fatalf("evicted %d blocks, want 2", m.EvictedBlocks())
	}
	// The surviving cache must be the prefix's leading blocks: a sharer of
	// the first 4 blocks still hits them all.
	cached, err := m.AcquirePrefix(3, prefixHash(5), 64)
	if err != nil {
		t.Fatal(err)
	}
	if cached != 64 {
		t.Fatalf("leaf-first eviction broke the chain: %d cached tokens, want 64", cached)
	}
	if err := m.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	// Oversized demand with nothing evictable left fails all-or-nothing.
	if m.Grow(4, 16*16) {
		t.Fatal("impossible grow succeeded")
	}
	if err := m.CheckConservation(); err != nil {
		t.Fatal(err)
	}

	// Two releases of one prefix: a shorter sharer releases after the
	// longer one, with another prefix released in between. Each release
	// stamps the blocks it unpins, deepest first, so pressure evicts the
	// longer sharer's tail, then the other prefix, then the shorter
	// sharer's chain, always from the leaf.
	m, err = NewBlockManager(8*64, 16, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	p, q := prefixHash(5), prefixHash(6)
	for _, a := range []struct {
		id     int
		hash   uint64
		tokens int
	}{{1, p, 96}, {2, p, 48}, {3, q, 32}} {
		if _, err := m.AcquirePrefix(a.id, a.hash, a.tokens); err != nil {
			t.Fatal(err)
		}
		m.MarkComputed(a.id, a.tokens)
	}
	for _, id := range []int{1, 3, 2} {
		m.Release(id)
	}
	if m.CachedBlocks() != 8 || m.FreeBlocks() != 0 {
		t.Fatalf("cached %d free %d, want 8/0", m.CachedBlocks(), m.FreeBlocks())
	}
	type block struct {
		hash uint64
		idx  int
	}
	want := []block{{p, 5}, {p, 4}, {p, 3}, {q, 1}, {q, 0}, {p, 2}, {p, 1}, {p, 0}}
	for i, w := range want {
		lens := map[uint64]int{p: entryLen(m.prefixes[p]), q: entryLen(m.prefixes[q])}
		if !m.Grow(4, (i+1)*16) { // one more private block: one eviction
			t.Fatalf("eviction %d: grow failed with cached blocks left", i)
		}
		var got []block
		for _, h := range []uint64{p, q} {
			for idx := entryLen(m.prefixes[h]); idx < lens[h]; idx++ {
				got = append(got, block{h, idx})
			}
		}
		if len(got) != 1 || got[0] != w {
			t.Fatalf("eviction %d took %v, want block %d of prefix %#x", i, got, w.idx, w.hash)
		}
		if err := m.CheckConservation(); err != nil {
			t.Fatal(err)
		}
	}
}

// kvAPI is the request-keyed surface the randomized walks drive: the
// int-keyed methods (idAPI), the scheduler's slot path (slotAPI), or both
// in lockstep (twinAPI).
type kvAPI interface {
	AcquirePrefix(id int, prefixHash uint64, prefixTokens int) (int, error)
	Credit(id, cachedTokens int)
	Grow(id, tokens int) bool
	MarkComputed(id, tokens int)
	Release(id int) int
	SwapOut(id, tokens int) bool
	SwapIn(id int) int
	SharedTokens(id int) int
	DedupSavedTokens(ids []int) int
	FlushCache() int
}

// idAPI drives a manager through its int-keyed methods.
type idAPI struct{ *BlockManager }

func (a idAPI) Credit(id, cachedTokens int) { a.creditPrefixStats(a.ids[id], cachedTokens) }

// slotAPI drives a manager through the slot path, keeping each request's
// slot itself as the scheduler's reqState does.
type slotAPI struct {
	m    *BlockManager
	refs []kvRef // request ID → handle
	buf  []int32
}

func (a *slotAPI) slot(id int) *kvRef {
	for len(a.refs) <= id {
		a.refs = append(a.refs, kvRef{})
	}
	return &a.refs[id]
}

// checkCap fails unless request id's handle caches its holding's coverage.
func (a *slotAPI) checkCap(t *testing.T, op string, id int) {
	t.Helper()
	ref := a.slot(id)
	if want := a.m.cover(&a.m.slots[ref.slot]); ref.cap != want {
		t.Fatalf("%s: request %d handle caches %d covered tokens, holding covers %d", op, id, ref.cap, want)
	}
}

func (a *slotAPI) AcquirePrefix(id int, prefixHash uint64, prefixTokens int) (int, error) {
	return a.m.acquirePrefix(a.slot(id), id, prefixHash, prefixTokens)
}
func (a *slotAPI) Credit(id, cachedTokens int) { a.m.creditPrefixStats(a.slot(id).slot, cachedTokens) }
func (a *slotAPI) Grow(id, tokens int) bool    { return a.m.grow(a.slot(id), id, tokens) }
func (a *slotAPI) MarkComputed(id, tokens int) { a.m.markComputed(a.slot(id).slot, tokens) }
func (a *slotAPI) Release(id int) int          { return a.m.release(a.slot(id)) }
func (a *slotAPI) SwapOut(id, tokens int) bool { return a.m.swapOut(a.slot(id), id, tokens) }
func (a *slotAPI) SwapIn(id int) int           { return a.m.swapIn(a.slot(id)) }
func (a *slotAPI) SharedTokens(id int) int     { return a.m.sharedTokens(a.slot(id).slot) }
func (a *slotAPI) FlushCache() int             { return a.m.FlushCache() }
func (a *slotAPI) DedupSavedTokens(ids []int) int {
	a.buf = a.buf[:0]
	for _, id := range ids {
		a.buf = append(a.buf, a.slot(id).slot)
	}
	return a.m.dedupSaved(a.buf)
}

// twinAPI applies every operation through the int-keyed methods on one
// manager and through the slot path on another, failing on the first
// result that differs.
type twinAPI struct {
	t    *testing.T
	byID idAPI
	slot *slotAPI
}

// same fails the test unless both paths returned the same result.
func same[T comparable](t *testing.T, op string, byID, bySlot T) T {
	t.Helper()
	if byID != bySlot {
		t.Fatalf("%s: int-keyed path returned %v, slot path %v", op, byID, bySlot)
	}
	return byID
}

func (w twinAPI) AcquirePrefix(id int, prefixHash uint64, prefixTokens int) (int, error) {
	c, err := w.byID.AcquirePrefix(id, prefixHash, prefixTokens)
	c2, err2 := w.slot.AcquirePrefix(id, prefixHash, prefixTokens)
	same(w.t, "AcquirePrefix error", err == nil, err2 == nil)
	w.slot.checkCap(w.t, "AcquirePrefix", id)
	return same(w.t, "AcquirePrefix", c, c2), err
}
func (w twinAPI) Credit(id, cachedTokens int) {
	w.byID.Credit(id, cachedTokens)
	w.slot.Credit(id, cachedTokens)
}
func (w twinAPI) Grow(id, tokens int) bool {
	defer w.slot.checkCap(w.t, "Grow", id)
	return same(w.t, "Grow", w.byID.Grow(id, tokens), w.slot.Grow(id, tokens))
}
func (w twinAPI) MarkComputed(id, tokens int) {
	w.byID.MarkComputed(id, tokens)
	w.slot.MarkComputed(id, tokens)
}
func (w twinAPI) Release(id int) int {
	defer w.slot.checkCap(w.t, "Release", id)
	return same(w.t, "Release", w.byID.Release(id), w.slot.Release(id))
}
func (w twinAPI) SwapOut(id, tokens int) bool {
	defer w.slot.checkCap(w.t, "SwapOut", id)
	return same(w.t, "SwapOut", w.byID.SwapOut(id, tokens), w.slot.SwapOut(id, tokens))
}
func (w twinAPI) SwapIn(id int) int {
	defer w.slot.checkCap(w.t, "SwapIn", id)
	return same(w.t, "SwapIn", w.byID.SwapIn(id), w.slot.SwapIn(id))
}
func (w twinAPI) SharedTokens(id int) int {
	return same(w.t, "SharedTokens", w.byID.SharedTokens(id), w.slot.SharedTokens(id))
}
func (w twinAPI) DedupSavedTokens(ids []int) int {
	return same(w.t, "DedupSavedTokens", w.byID.DedupSavedTokens(ids), w.slot.DedupSavedTokens(ids))
}
func (w twinAPI) FlushCache() int {
	return same(w.t, "FlushCache", w.byID.FlushCache(), w.slot.FlushCache())
}

// kvCountersLegend names kvCounters' entries in order.
const kvCountersLegend = "free, in use, cached, swapped, hit, miss, evicted, peak in use, holders"

// kvCounters are the observable pool counters the twin and differential
// walks hold equal.
func kvCounters(m *BlockManager) [9]int {
	return [9]int{m.FreeBlocks(), m.InUse(), m.CachedBlocks(), m.SwappedBlocks(), m.HitTokens(),
		m.MissTokens(), m.EvictedBlocks(), m.PeakInUse(), m.Holders()}
}

// walkRig is what a randomized walk drives and checks: api applies the
// operations to the managers in ms. ms[0] is driven int-keyed; a twin rig
// adds a second manager driven through the slot path.
type walkRig struct {
	api kvAPI
	ms  []*BlockManager
}

// newWalkRig builds the managers for a walk over a pool of the given size
// with swapBlocks of host swap pool.
func newWalkRig(t *testing.T, blocks, swapBlocks int, twin bool) walkRig {
	t.Helper()
	n := 1
	if twin {
		n = 2
	}
	var ms []*BlockManager
	for range n {
		m, err := NewBlockManager(int64(blocks)*64, 16, 4, true)
		if err != nil {
			t.Fatal(err)
		}
		m.ConfigureSwapPool(swapBlocks)
		ms = append(ms, m)
	}
	if twin {
		return walkRig{api: twinAPI{t: t, byID: idAPI{ms[0]}, slot: &slotAPI{m: ms[1]}}, ms: ms}
	}
	return walkRig{api: idAPI{ms[0]}, ms: ms}
}

// check verifies conservation on every manager and, on a twin rig, that
// both managers' counters agree.
func (g walkRig) check(t *testing.T, op int) {
	t.Helper()
	for i, m := range g.ms {
		if err := m.CheckConservation(); err != nil {
			t.Fatalf("op %d, manager %d: %v", op, i, err)
		}
	}
	if len(g.ms) == 2 {
		if a, b := kvCounters(g.ms[0]), kvCounters(g.ms[1]); a != b {
			t.Fatalf("op %d: counters diverge (%s): int-keyed %v, slot path %v", op, kvCountersLegend, a, b)
		}
	}
}

// dedupReference is the set-based fold DedupSavedTokens replaced: every
// pinned block of every row counts once per row, and each distinct
// (entry, block index) pair once for the whole batch. It reads pins of
// requests driven int-keyed.
func dedupReference(m *BlockManager, ids []int) int {
	type block struct {
		e   *prefixEntry
		idx int
	}
	seen := make(map[block]struct{})
	pins := 0
	for _, id := range ids {
		p := m.slots[m.ids[id]].pins
		for idx := range p.n {
			pins++
			seen[block{p.e, idx}] = struct{}{}
		}
	}
	return (pins - len(seen)) * m.blockTokens
}

// dedupWalk checks DedupSavedTokens against dedupReference on a random
// batch of the given IDs after each operation of a randomized walk, and
// counts which cases the walk exercised.
type dedupWalk struct {
	rng                     *rand.Rand
	batches, saving, dupes  int
	cutShort, flushedBlocks int
}

func (w *dedupWalk) check(t *testing.T, g walkRig, op int, ids []int) {
	t.Helper()
	batch := make([]int, 0, len(ids)+1)
	for _, id := range ids {
		if w.rng.Intn(2) == 0 {
			batch = append(batch, id)
		}
	}
	if len(ids) > 0 && w.rng.Intn(4) == 0 { // one row listed twice
		batch = append(batch, ids[w.rng.Intn(len(ids))])
		w.dupes++
	}
	w.rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
	got, want := g.api.DedupSavedTokens(batch), dedupReference(g.ms[0], batch)
	if got != want {
		t.Fatalf("op %d: DedupSavedTokens(%v) = %d, set-based reference %d", op, batch, got, want)
	}
	w.batches++
	if got > 0 {
		w.saving++
	}
}

// acquire pins a prefix, credits its hit/miss tokens, and notes when the
// pool cut its chain short.
func (w *dedupWalk) acquire(t *testing.T, api kvAPI, op, id, group, prefixLen int) {
	t.Helper()
	cached, err := api.AcquirePrefix(id, prefixHash(group), prefixLen)
	if err != nil {
		t.Fatalf("op %d: %v", op, err)
	}
	api.Credit(id, cached)
	if api.SharedTokens(id) < prefixLen {
		w.cutShort++
	}
}

// maybeFlush occasionally drops the whole prefix cache, as a crash does.
func (w *dedupWalk) maybeFlush(api kvAPI) {
	if w.rng.Intn(64) == 0 {
		w.flushedBlocks += api.FlushCache()
	}
}

// covered fails the test when the walk never reached a case it is meant
// to cover.
func (w *dedupWalk) covered(t *testing.T, wantCutShort bool) {
	t.Helper()
	if w.saving == 0 || w.dupes == 0 || w.flushedBlocks == 0 || (wantCutShort && w.cutShort == 0) {
		t.Fatalf("walk missed a case: %d of %d batches saved tokens, %d duplicate rows, %d blocks flushed, %d chains cut short",
			w.saving, w.batches, w.dupes, w.flushedBlocks, w.cutShort)
	}
}

// randomizedPools are the device pools the randomized walks run on: a
// roomy one, and one small enough that prefix chains are cut short.
var randomizedPools = []struct {
	blocks       int
	wantCutShort bool
}{{48, false}, {10, true}}

func TestBlockRefcountConservationRandomized(t *testing.T) {
	for _, pool := range randomizedPools {
		t.Run(fmt.Sprintf("pool=%d", pool.blocks), func(t *testing.T) {
			refcountWalk(t, newWalkRig(t, pool.blocks, 0, false), pool.wantCutShort)
		})
	}
}

// TestBlockRefcountConservationRandomizedSlotPath runs the same walk
// through the int-keyed methods and the scheduler's slot path on two
// managers: every result and counter must agree after every operation.
func TestBlockRefcountConservationRandomizedSlotPath(t *testing.T) {
	for _, pool := range randomizedPools {
		t.Run(fmt.Sprintf("pool=%d", pool.blocks), func(t *testing.T) {
			refcountWalk(t, newWalkRig(t, pool.blocks, 0, true), pool.wantCutShort)
		})
	}
}

// refcountWalk is the recompute randomized walk: requests acquire prefixes,
// grow, make prefill progress and release in random order, with the
// prefix cache occasionally flushed.
func refcountWalk(t *testing.T, g walkRig, wantCutShort bool) {
	rng := rand.New(rand.NewSource(42))
	w := &dedupWalk{rng: rand.New(rand.NewSource(43))}
	type live struct{ id, prefixLen int }
	var actives []live
	var ids []int
	nextID := 0
	for i := 0; i < 4000; i++ {
		switch op := rng.Intn(5); {
		case op == 0 || len(actives) == 0: // new request acquires a prefix
			id := nextID
			nextID++
			group := rng.Intn(4) + 1
			pl := (rng.Intn(6) + 1) * 16
			w.acquire(t, g.api, i, id, group, pl)
			actives = append(actives, live{id: id, prefixLen: pl})
		case op == 1: // grow
			r := actives[rng.Intn(len(actives))]
			g.api.Grow(r.id, r.prefixLen+rng.Intn(128))
		case op == 2: // prefill progress
			r := actives[rng.Intn(len(actives))]
			g.api.MarkComputed(r.id, rng.Intn(r.prefixLen+1))
		default: // release (preempt/finish)
			k := rng.Intn(len(actives))
			g.api.Release(actives[k].id)
			actives = append(actives[:k], actives[k+1:]...)
		}
		w.maybeFlush(g.api)
		g.check(t, i)
		ids = ids[:0]
		for _, r := range actives {
			ids = append(ids, r.id)
		}
		w.check(t, g, i, ids)
	}
	w.covered(t, wantCutShort)
	for _, r := range actives {
		g.api.Release(r.id)
	}
	g.check(t, -1)
	for _, m := range g.ms {
		if m.InUse() != 0 || m.Holders() != 0 {
			t.Fatalf("%d blocks still active, %d holders after releasing everything", m.InUse(), m.Holders())
		}
		if m.FreeBlocks()+m.CachedBlocks() != m.TotalBlocks() {
			t.Fatalf("free %d + cached %d != total %d", m.FreeBlocks(), m.CachedBlocks(), m.TotalBlocks())
		}
	}
}

func TestSwapPoolAccounting(t *testing.T) {
	// 10 device blocks, 4 swap blocks; 16 tokens × 4 bytes per block.
	m, err := NewBlockManager(640, 16, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	// SwapOut before the pool is configured must fail (recompute fallback).
	if !m.Grow(1, 40) {
		t.Fatal("grow failed")
	}
	if m.SwapOut(1, 40) {
		t.Fatal("swap-out succeeded with a zero-size pool")
	}
	m.ConfigureSwapPool(4)
	if m.SwapPoolBlocks() != 4 {
		t.Fatalf("pool %d, want 4", m.SwapPoolBlocks())
	}

	// Parking releases device holdings atomically, including shared pins.
	h := prefixHash(3)
	if _, err := m.AcquirePrefix(1, h, 32); err != nil {
		t.Fatal(err)
	}
	m.MarkComputed(1, 32)
	if !m.SwapOut(1, 40) { // 3 swap blocks
		t.Fatal("swap-out rejected with room in the pool")
	}
	if m.SwappedBlocks() != 3 || m.PeakSwapBlocks() != 3 {
		t.Fatalf("swap used/peak %d/%d, want 3/3", m.SwappedBlocks(), m.PeakSwapBlocks())
	}
	if m.InUse() != 0 || m.CachedBlocks() != 2 {
		t.Fatalf("device pool after swap-out: in-use %d cached %d, want 0/2", m.InUse(), m.CachedBlocks())
	}
	if err := m.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	// Double-park is rejected; pool exhaustion is all-or-nothing.
	if m.SwapOut(1, 16) {
		t.Fatal("double swap-out accepted")
	}
	if !m.Grow(2, 40) {
		t.Fatal("grow failed")
	}
	if m.SwapOut(2, 40) { // needs 3 more blocks, only 1 free in the pool
		t.Fatal("over-capacity swap-out accepted")
	}
	if h := m.slots[m.ids[2]]; h.private != 3 || h.swap != 0 {
		t.Fatalf("failed swap-out changed holdings: %d private, %d swap", h.private, h.swap)
	}
	// Restore frees the pool; a second restore is a no-op.
	if n := m.SwapIn(1); n != 3 {
		t.Fatalf("swap-in freed %d blocks, want 3", n)
	}
	if n := m.SwapIn(1); n != 0 {
		t.Fatalf("double swap-in freed %d blocks", n)
	}
	if m.SwappedBlocks() != 0 || m.PeakSwapBlocks() != 3 {
		t.Fatalf("swap used/peak %d/%d after restore", m.SwappedBlocks(), m.PeakSwapBlocks())
	}
	if err := m.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestBlockRefcountConservationRandomizedWithSwap(t *testing.T) {
	for _, pool := range randomizedPools {
		t.Run(fmt.Sprintf("pool=%d", pool.blocks), func(t *testing.T) {
			swapWalk(t, newWalkRig(t, pool.blocks, pool.blocks/2, false), pool.wantCutShort)
		})
	}
}

// TestBlockRefcountConservationRandomizedWithSwapSlotPath is the swap walk
// through both paths in lockstep, as ...RandomizedSlotPath is for the
// recompute walk.
func TestBlockRefcountConservationRandomizedWithSwapSlotPath(t *testing.T) {
	for _, pool := range randomizedPools {
		t.Run(fmt.Sprintf("pool=%d", pool.blocks), func(t *testing.T) {
			swapWalk(t, newWalkRig(t, pool.blocks, pool.blocks/2, true), pool.wantCutShort)
		})
	}
}

// swapWalk is the recompute randomized walk with swap-out/swap-in
// interleaved: conservation must hold across park/restore/evict/share
// interleavings. A restore re-acquires the prefix before releasing the
// parked copy, as the scheduler's swap-in admission does.
func swapWalk(t *testing.T, g walkRig, wantCutShort bool) {
	rng := rand.New(rand.NewSource(7))
	w := &dedupWalk{rng: rand.New(rand.NewSource(8))}
	type live struct {
		id, group, prefixLen int
		swapped              bool
	}
	var actives []live
	var ids []int
	nextID := 0
	reacquired := 0
	for i := 0; i < 4000; i++ {
		switch op := rng.Intn(7); {
		case op == 0 || len(actives) == 0:
			id := nextID
			nextID++
			group := rng.Intn(4) + 1
			pl := (rng.Intn(6) + 1) * 16
			w.acquire(t, g.api, i, id, group, pl)
			actives = append(actives, live{id: id, group: group, prefixLen: pl})
		case op == 1:
			r := actives[rng.Intn(len(actives))]
			if !r.swapped {
				g.api.Grow(r.id, r.prefixLen+rng.Intn(128))
			}
		case op == 2:
			r := actives[rng.Intn(len(actives))]
			if !r.swapped {
				g.api.MarkComputed(r.id, rng.Intn(r.prefixLen+1))
			}
		case op == 3: // park
			k := rng.Intn(len(actives))
			if !actives[k].swapped && g.api.SwapOut(actives[k].id, rng.Intn(160)+1) {
				actives[k].swapped = true
			}
		case op == 4: // restore: re-pin the prefix, then drop the copy
			k := rng.Intn(len(actives))
			r := &actives[k]
			if !r.swapped {
				break
			}
			w.acquire(t, g.api, i, r.id, r.group, r.prefixLen)
			if !g.api.Grow(r.id, r.prefixLen+1) {
				g.api.Release(r.id) // no room: un-pin, the copy stays parked
				break
			}
			g.api.SwapIn(r.id)
			g.api.MarkComputed(r.id, r.prefixLen)
			r.swapped = false
			reacquired++
		default: // release or drop
			k := rng.Intn(len(actives))
			if actives[k].swapped {
				g.api.SwapIn(actives[k].id)
			} else {
				g.api.Release(actives[k].id)
			}
			actives = append(actives[:k], actives[k+1:]...)
		}
		w.maybeFlush(g.api)
		g.check(t, i)
		ids = ids[:0]
		for _, r := range actives {
			ids = append(ids, r.id)
		}
		w.check(t, g, i, ids)
	}
	w.covered(t, wantCutShort)
	if reacquired == 0 {
		t.Fatal("walk never restored a swapped request")
	}
	for _, r := range actives {
		if r.swapped {
			g.api.SwapIn(r.id)
		} else {
			g.api.Release(r.id)
		}
	}
	g.check(t, -1)
	for _, m := range g.ms {
		if m.InUse() != 0 || m.SwappedBlocks() != 0 || m.Holders() != 0 {
			t.Fatalf("still active after releasing everything: %d device blocks, %d swap blocks, %d holders",
				m.InUse(), m.SwappedBlocks(), m.Holders())
		}
	}
}

func TestBlockManagerRejectsHopelessBudget(t *testing.T) {
	if _, err := NewBlockManager(63, 16, 4, false); err == nil {
		t.Fatal("sub-block budget accepted")
	}
	if _, err := NewBlockManager(1<<20, 0, 4, true); err == nil {
		t.Fatal("zero block size accepted")
	}
}

// dedupRig pins rows chains of chainBlocks blocks each, spread round-robin
// over groups prefixes, and returns the manager and the batch's IDs.
func dedupRig(tb testing.TB, rows, groups, chainBlocks int) (*BlockManager, []int) {
	tb.Helper()
	const blockTokens = 16
	m, err := NewBlockManager(int64(groups*chainBlocks)*blockTokens*4, blockTokens, 4, true)
	if err != nil {
		tb.Fatal(err)
	}
	ids := make([]int, rows)
	for i := range ids {
		ids[i] = i
		if _, err := m.AcquirePrefix(i, prefixHash(i%groups+1), chainBlocks*blockTokens); err != nil {
			tb.Fatal(err)
		}
		if m.SharedTokens(i) != chainBlocks*blockTokens {
			tb.Fatalf("row %d pinned %d tokens, want %d", i, m.SharedTokens(i), chainBlocks*blockTokens)
		}
	}
	return m, ids
}

func TestDedupSavedTokensZeroAlloc(t *testing.T) {
	m, ids := dedupRig(t, 32, 4, 72)
	want := (32 - 4) * 72 * 16
	if got := m.DedupSavedTokens(ids); got != want { // also warms the scratch
		t.Fatalf("DedupSavedTokens = %d, want %d", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { m.DedupSavedTokens(ids) }); allocs != 0 {
		t.Fatalf("warmed DedupSavedTokens made %v allocations per call, want 0", allocs)
	}
	// The scheduler's fold over the same rows' slots.
	slots := make([]int32, len(ids))
	for i, id := range ids {
		slots[i] = m.ids[id]
	}
	if got := m.dedupSaved(slots); got != want {
		t.Fatalf("dedupSaved = %d, want %d", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { m.dedupSaved(slots) }); allocs != 0 {
		t.Fatalf("warmed dedupSaved made %v allocations per call, want 0", allocs)
	}
}

// growRig holds rows decoding requests on the slot path, each with ctx
// tokens of context, as the scheduler holds a warmed decode batch. The
// pool is large enough never to run out.
func growRig(tb testing.TB, rows, ctx int) (*BlockManager, []kvRef, []int) {
	tb.Helper()
	m, err := newBlockManager(1<<50, 16, 4, false, rows)
	if err != nil {
		tb.Fatal(err)
	}
	slots, ctxs := make([]kvRef, rows), make([]int, rows)
	for i := range slots {
		ctxs[i] = ctx + 7*i // stagger block boundaries across rows
		if !m.grow(&slots[i], i, ctxs[i]+1) {
			tb.Fatalf("row %d: grow failed", i)
		}
	}
	return m, slots, ctxs
}

// growRound is one decode round's capacity pass: every row grows by the
// token it is about to produce.
func growRound(m *BlockManager, slots []kvRef, ctxs []int) {
	for i := range slots {
		ctxs[i]++
		if !m.grow(&slots[i], i, ctxs[i]+1) {
			panic("grow failed on an unbounded pool")
		}
	}
}

func TestBlockManagerGrowZeroAlloc(t *testing.T) {
	m, slots, ctxs := growRig(t, 14, 512)
	if allocs := testing.AllocsPerRun(100, func() { growRound(m, slots, ctxs) }); allocs != 0 {
		t.Fatalf("warmed slot-path grow made %v allocations per round, want 0", allocs)
	}
	if err := m.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if m.Holders() != len(slots) || len(m.ids) != 0 {
		t.Fatalf("%d holders and %d int-keyed bindings, want %d and 0", m.Holders(), len(m.ids), len(slots))
	}
}

// BenchmarkBlockManagerGrow times the decode capacity pass on the slot
// path: one op is one round of a warmed 14-row batch (the chat-single mean
// batch) growing by one token each.
func BenchmarkBlockManagerGrow(b *testing.B) {
	m, slots, ctxs := growRig(b, 14, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		growRound(m, slots, ctxs)
	}
}

// BenchmarkDedupSavedTokens times the decode step's shared-prefix fold on
// RAG-sized rows (72-block chains, 1152 shared tokens each).
func BenchmarkDedupSavedTokens(b *testing.B) {
	for _, rows := range []int{8, 32} {
		for _, groups := range []int{1, 4} {
			b.Run(fmt.Sprintf("rows=%d/groups=%d", rows, groups), func(b *testing.B) {
				m, ids := dedupRig(b, rows, groups, 72)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.DedupSavedTokens(ids)
				}
			})
		}
	}
}

// TestCheckConservationCatchesBrokenChains breaks one chain invariant at a
// time and requires CheckConservation to report it.
func TestCheckConservationCatchesBrokenChains(t *testing.T) {
	p, q := prefixHash(1), prefixHash(2)
	// rig holds request 1 pinning four computed blocks of p, and q's four
	// blocks cached after request 2 released them.
	rig := func() *BlockManager {
		m, err := NewBlockManager(16*64, 16, 4, true)
		if err != nil {
			t.Fatal(err)
		}
		for id, h := range []uint64{p, q} {
			if _, err := m.AcquirePrefix(id+1, h, 64); err != nil {
				t.Fatal(err)
			}
			m.MarkComputed(id+1, 64)
		}
		m.Release(2)
		if err := m.CheckConservation(); err != nil {
			t.Fatal(err)
		}
		return m
	}
	for name, corrupt := range map[string]func(m *BlockManager){
		"filed under another hash": func(m *BlockManager) { m.prefixes[p^1] = m.prefixes[p]; delete(m.prefixes, p) },
		"empty entry": func(m *BlockManager) {
			e := m.prefixes[q]
			m.free += len(e.blocks)
			m.sharedN -= len(e.blocks)
			m.cached -= len(e.blocks)
			e.blocks = e.blocks[:0]
		},
		"refcount without a pin":       func(m *BlockManager) { m.prefixes[q].blocks[0].refs++ },
		"computed after uncomputed":    func(m *BlockManager) { m.prefixes[p].blocks[1].computed = false },
		"cached but never computed":    func(m *BlockManager) { m.prefixes[q].blocks[3].computed = false },
		"LRU order rises with depth":   func(m *BlockManager) { m.prefixes[q].blocks[2].lruSeq += 2 },
		"shared counter off":           func(m *BlockManager) { m.sharedN++ },
		"pin on a dropped entry":       func(m *BlockManager) { delete(m.prefixes, p) },
		"pin past the end of its slab": func(m *BlockManager) { m.slots[m.ids[1]].pins.n++ },
	} {
		m := rig()
		corrupt(m)
		if err := m.CheckConservation(); err == nil {
			t.Errorf("%s: CheckConservation passed", name)
		}
	}
}
