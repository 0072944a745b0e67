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
}

// dedupReference is the set-based fold DedupSavedTokens replaced: every
// pinned block of every row counts once per row, and each distinct block
// once for the whole batch.
func dedupReference(m *BlockManager, ids []int) int {
	seen := make(map[blockKey]struct{})
	pins := 0
	for _, id := range ids {
		for _, b := range m.pinned[id].blocks {
			pins++
			seen[b.key] = struct{}{}
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

func (w *dedupWalk) check(t *testing.T, m *BlockManager, op int, ids []int) {
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
	got, want := m.DedupSavedTokens(batch), dedupReference(m, batch)
	if got != want {
		t.Fatalf("op %d: DedupSavedTokens(%v) = %d, set-based reference %d", op, batch, got, want)
	}
	w.batches++
	if got > 0 {
		w.saving++
	}
}

// acquire pins a prefix and notes when the pool cut its chain short.
func (w *dedupWalk) acquire(t *testing.T, m *BlockManager, op, id, group, prefixLen int) {
	t.Helper()
	if _, err := m.AcquirePrefix(id, prefixHash(group), prefixLen); err != nil {
		t.Fatalf("op %d: %v", op, err)
	}
	if m.SharedTokens(id) < prefixLen {
		w.cutShort++
	}
}

// maybeFlush occasionally drops the whole prefix cache, as a crash does.
func (w *dedupWalk) maybeFlush(m *BlockManager) {
	if w.rng.Intn(64) == 0 {
		w.flushedBlocks += m.FlushCache()
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
			m, err := NewBlockManager(int64(pool.blocks)*64, 16, 4, true)
			if err != nil {
				t.Fatal(err)
			}
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
					w.acquire(t, m, i, id, group, pl)
					actives = append(actives, live{id: id, prefixLen: pl})
				case op == 1: // grow
					r := actives[rng.Intn(len(actives))]
					m.Grow(r.id, r.prefixLen+rng.Intn(128))
				case op == 2: // prefill progress
					r := actives[rng.Intn(len(actives))]
					m.MarkComputed(r.id, rng.Intn(r.prefixLen+1))
				default: // release (preempt/finish)
					k := rng.Intn(len(actives))
					m.Release(actives[k].id)
					actives = append(actives[:k], actives[k+1:]...)
				}
				w.maybeFlush(m)
				if err := m.CheckConservation(); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				ids = ids[:0]
				for _, r := range actives {
					ids = append(ids, r.id)
				}
				w.check(t, m, i, ids)
			}
			w.covered(t, pool.wantCutShort)
			for _, r := range actives {
				m.Release(r.id)
			}
			if err := m.CheckConservation(); err != nil {
				t.Fatal(err)
			}
			if m.InUse() != 0 {
				t.Fatalf("blocks still active after releasing everything: %d", m.InUse())
			}
			if m.FreeBlocks()+m.CachedBlocks() != m.TotalBlocks() {
				t.Fatalf("free %d + cached %d != total %d", m.FreeBlocks(), m.CachedBlocks(), m.TotalBlocks())
			}
		})
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
	if m.held[2] != 3 {
		t.Fatalf("failed swap-out changed device holdings: %d", m.held[2])
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
	// The recompute randomized walk, with swap-out/swap-in interleaved:
	// conservation must hold across park/restore/evict/share interleavings.
	// A restore re-acquires the prefix before releasing the parked copy,
	// as the scheduler's swap-in admission does.
	for _, pool := range randomizedPools {
		t.Run(fmt.Sprintf("pool=%d", pool.blocks), func(t *testing.T) {
			m, err := NewBlockManager(int64(pool.blocks)*64, 16, 4, true)
			if err != nil {
				t.Fatal(err)
			}
			m.ConfigureSwapPool(pool.blocks / 2)
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
					w.acquire(t, m, i, id, group, pl)
					actives = append(actives, live{id: id, group: group, prefixLen: pl})
				case op == 1:
					r := actives[rng.Intn(len(actives))]
					if !r.swapped {
						m.Grow(r.id, r.prefixLen+rng.Intn(128))
					}
				case op == 2:
					r := actives[rng.Intn(len(actives))]
					if !r.swapped {
						m.MarkComputed(r.id, rng.Intn(r.prefixLen+1))
					}
				case op == 3: // park
					k := rng.Intn(len(actives))
					if !actives[k].swapped && m.SwapOut(actives[k].id, rng.Intn(160)+1) {
						actives[k].swapped = true
					}
				case op == 4: // restore: re-pin the prefix, then drop the copy
					k := rng.Intn(len(actives))
					r := &actives[k]
					if !r.swapped {
						break
					}
					w.acquire(t, m, i, r.id, r.group, r.prefixLen)
					if !m.Grow(r.id, r.prefixLen+1) {
						m.Release(r.id) // no room: un-pin, the copy stays parked
						break
					}
					m.SwapIn(r.id)
					m.MarkComputed(r.id, r.prefixLen)
					r.swapped = false
					reacquired++
				default: // release or drop
					k := rng.Intn(len(actives))
					if actives[k].swapped {
						m.SwapIn(actives[k].id)
					} else {
						m.Release(actives[k].id)
					}
					actives = append(actives[:k], actives[k+1:]...)
				}
				w.maybeFlush(m)
				if err := m.CheckConservation(); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				ids = ids[:0]
				for _, r := range actives {
					ids = append(ids, r.id)
				}
				w.check(t, m, i, ids)
			}
			w.covered(t, pool.wantCutShort)
			if reacquired == 0 {
				t.Fatal("walk never restored a swapped request")
			}
			for _, r := range actives {
				if r.swapped {
					m.SwapIn(r.id)
				} else {
					m.Release(r.id)
				}
			}
			if err := m.CheckConservation(); err != nil {
				t.Fatal(err)
			}
			if m.InUse() != 0 || m.SwappedBlocks() != 0 {
				t.Fatalf("blocks still active after releasing everything: %d device, %d swap",
					m.InUse(), m.SwappedBlocks())
			}
		})
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
