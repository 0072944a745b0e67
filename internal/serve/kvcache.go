package serve

import "fmt"

// BlockManager is the paged KV-cache allocator: the platform's usable
// memory (HBM minus weights on GPUs, enclave size minus weights under SGX,
// installed DRAM otherwise) is carved into fixed-size blocks of
// blockTokens tokens each, and requests hold exactly enough blocks to
// cover their context. Paging the cache is what lets the scheduler admit
// requests until memory — not batch shape — is the binding constraint,
// and what makes preemption a cheap release-and-requeue.
//
// With sharing enabled the manager additionally keeps a block-level prefix
// cache (a flattened radix over chained block hashes, vLLM-style): full
// blocks of a request's declared prompt prefix are published under
// content-chained hashes with reference counts, so later requests with the
// same prefix pin the same physical blocks instead of recomputing and
// re-storing them. Blocks whose refcount drops to zero are retained in an
// LRU cache and reclaimed only under allocation pressure (leaf-first, so a
// cached block's parents always outlive it).
type BlockManager struct {
	blockTokens   int
	bytesPerToken int64
	total         int
	free          int // blocks neither privately held nor backing a shared entry
	sharing       bool

	held       map[int]int      // request ID → private blocks held
	pinned     map[int]pinChain // request ID → shared prefix chain pinned
	shared     map[blockKey]*sharedBlock
	cached     int   // shared blocks nobody pins (refcount zero, evictable)
	tick       int64 // monotonic op counter driving LRU order (deterministic)
	peakInUse  int
	evicted    int
	hitTokens  int
	missTokens int

	// Host swap pool (swap-to-host preemption): a bounded region of
	// untrusted host memory holding preempted requests' KV copies. Swap
	// blocks are accounted separately from the device pool — parking a
	// victim frees its device blocks and occupies swap blocks instead.
	swapTotal int
	swapUsed  int
	swapPeak  int
	swapped   map[int]int // request ID → swap blocks parked

	// longest is DedupSavedTokens' scratch: prefix hash → longest chain
	// among the batch's rows, cleared and reused on every call.
	longest map[uint64]int
}

// pinChain is the shared prefix one request pins: blocks 0..len-1 of the
// prefix whose identity hash is hash, in chain order. AcquirePrefix only
// ever pins such a contiguous chain from block 0.
type pinChain struct {
	hash   uint64
	blocks []*sharedBlock
}

// blockKey identifies one shareable block by its chained content hash: the
// hash covers the block's own tokens and every token before it, so two
// prefixes that differ anywhere before or inside the block can never map to
// the same key (the radix-tree property, flattened).
type blockKey struct {
	hash uint64
	idx  int
}

// sharedBlock is one physical block published in the prefix cache.
type sharedBlock struct {
	key  blockKey
	refs int
	// computed marks the block's KV entries as filled; only computed blocks
	// count as cache hits (a block being prefilled by one request is pinned
	// by, but not yet useful to, a concurrent sharer).
	computed bool
	// lruSeq orders reclaim among refs==0 blocks: smaller evicts first.
	// Within one release, deeper blocks get smaller sequences, so eviction
	// is leaf-first and a surviving block's chain parents survive too.
	lruSeq int64
}

// mix64 is the splitmix64 finalizer: a cheap bijective mix that spreads
// adjacent inputs across the hash space. Both the per-block chain keys and
// the prefix identity hash build on it.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// chainHash extends a prefix identity hash to the block at index idx, so
// per-block keys are well distributed even for adjacent prefix IDs.
func chainHash(prefixHash uint64, idx int) uint64 {
	return mix64(prefixHash + 0x9e3779b97f4a7c15*uint64(idx+1))
}

// NewBlockManager sizes the pool from a byte budget. It fails when the
// budget does not admit even one block — the platform cannot serve the
// model at all (e.g. weights alone overflow the enclave). sharing enables
// the prefix cache; without it the manager is a plain per-request
// allocator.
func NewBlockManager(budgetBytes int64, blockTokens int, bytesPerToken int64, sharing bool) (*BlockManager, error) {
	if blockTokens <= 0 || bytesPerToken <= 0 {
		return nil, fmt.Errorf("serve: block of %d tokens × %d bytes/token is not allocatable", blockTokens, bytesPerToken)
	}
	blockBytes := int64(blockTokens) * bytesPerToken
	total := int(budgetBytes / blockBytes)
	if total <= 0 {
		return nil, fmt.Errorf("serve: KV budget %d bytes below one %d-byte block", budgetBytes, blockBytes)
	}
	return &BlockManager{
		blockTokens:   blockTokens,
		bytesPerToken: bytesPerToken,
		total:         total,
		free:          total,
		sharing:       sharing,
		held:          make(map[int]int),
		pinned:        make(map[int]pinChain),
		shared:        make(map[blockKey]*sharedBlock),
		swapped:       make(map[int]int),
		longest:       make(map[uint64]int),
	}, nil
}

// ConfigureSwapPool sizes the host swap pool in blocks. Zero (the default)
// disables swapping: SwapOut then always fails and the scheduler falls
// back to recompute.
func (m *BlockManager) ConfigureSwapPool(blocks int) {
	if blocks < 0 {
		blocks = 0
	}
	m.swapTotal = blocks
}

// SwapPoolBlocks returns the host swap pool capacity.
func (m *BlockManager) SwapPoolBlocks() int { return m.swapTotal }

// SwappedBlocks returns the swap blocks currently parked.
func (m *BlockManager) SwappedBlocks() int { return m.swapUsed }

// PeakSwapBlocks returns the swap pool's occupancy high-water mark.
func (m *BlockManager) PeakSwapBlocks() int { return m.swapPeak }

// SwapOut parks a preempted request's computed KV entries in the host swap
// pool and releases everything it holds in the device pool (private blocks
// free, shared pins drop exactly as Release — computed prefix blocks stay
// cached for other sharers). It is all-or-nothing: when the swap pool
// cannot hold BlocksFor(tokens) more blocks it returns false and the
// request's device holdings are untouched (the caller falls back to
// recompute). The swap copy is self-contained: it covers all `tokens`
// leading entries, including any span shared prefix blocks also cover, so
// a later swap-in never depends on cache residency.
func (m *BlockManager) SwapOut(reqID, tokens int) bool {
	if tokens <= 0 {
		return false
	}
	if m.swapped[reqID] > 0 {
		return false // already parked; one swap copy per request
	}
	need := m.BlocksFor(tokens)
	if m.swapUsed+need > m.swapTotal {
		return false
	}
	m.Release(reqID)
	m.swapUsed += need
	m.swapped[reqID] = need
	if m.swapUsed > m.swapPeak {
		m.swapPeak = m.swapUsed
	}
	return true
}

// SwapIn releases a request's parked swap blocks (its KV copy has been
// transferred back into device blocks the caller allocated) and returns
// how many were freed. Dropping a swapped request uses the same call —
// the pool does not care whether the copy was restored or discarded.
func (m *BlockManager) SwapIn(reqID int) int {
	n := m.swapped[reqID]
	if n == 0 {
		return 0
	}
	delete(m.swapped, reqID)
	m.swapUsed -= n
	return n
}

// TotalBlocks returns the pool size.
func (m *BlockManager) TotalBlocks() int { return m.total }

// FreeBlocks returns the immediately allocatable block count (excluding
// cached blocks, which are reclaimable but occupied).
func (m *BlockManager) FreeBlocks() int { return m.free }

// InUse returns the actively held block count: private blocks plus shared
// blocks with a nonzero refcount. Cached (refcount-zero) blocks are not in
// use — they are reclaimable retained state, reported by CachedBlocks.
func (m *BlockManager) InUse() int { return m.total - m.free - m.CachedBlocks() }

// CachedBlocks returns the number of retained prefix blocks nobody pins
// (refcount zero, evictable).
func (m *BlockManager) CachedBlocks() int { return m.cached }

// PeakInUse returns the allocation high-water mark (private + shared +
// cached — the memory-pressure peak).
func (m *BlockManager) PeakInUse() int { return m.peakInUse }

// EvictedBlocks returns how many cached blocks were reclaimed under
// allocation pressure over the manager's lifetime.
func (m *BlockManager) EvictedBlocks() int { return m.evicted }

// HitTokens returns the cumulative prompt tokens served from the prefix
// cache instead of being recomputed.
func (m *BlockManager) HitTokens() int { return m.hitTokens }

// MissTokens returns the cumulative shareable prefix tokens that were not
// in cache at acquisition time.
func (m *BlockManager) MissTokens() int { return m.missTokens }

// Holders returns how many requests currently hold private blocks or pin
// shared ones.
func (m *BlockManager) Holders() int {
	ids := make(map[int]struct{}, len(m.held)+len(m.pinned))
	for id := range m.held {
		ids[id] = struct{}{}
	}
	for id := range m.pinned {
		ids[id] = struct{}{}
	}
	return len(ids)
}

// BlocksFor returns the blocks needed to hold `tokens` cache entries.
func (m *BlockManager) BlocksFor(tokens int) int {
	if tokens <= 0 {
		return 0
	}
	return (tokens + m.blockTokens - 1) / m.blockTokens
}

// notePeak updates the high-water mark after an allocation.
func (m *BlockManager) notePeak() {
	if used := m.total - m.free; used > m.peakInUse {
		m.peakInUse = used
	}
}

// evictOne reclaims the least-recently-released cached block. It returns
// false when nothing is evictable.
func (m *BlockManager) evictOne() bool {
	var victim *sharedBlock
	for _, b := range m.shared {
		if b.refs != 0 {
			continue
		}
		if victim == nil || b.lruSeq < victim.lruSeq {
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

// FlushCache reclaims every cached (refcount-zero) prefix block and
// returns how many were freed. A replica crash calls this: the cache's
// contents die with the TEE whose keys sealed them, so post-recovery
// sharers recompute. Pinned blocks (nonzero refcount) are untouched.
func (m *BlockManager) FlushCache() int {
	n := 0
	for key, b := range m.shared {
		if b.refs != 0 {
			continue
		}
		delete(m.shared, key)
		m.free++
		m.evicted++
		n++
	}
	m.cached -= n
	return n
}

// reserve frees up n blocks for allocation, evicting cached blocks as
// needed. It reports whether n blocks are now free; on false the pool is
// left as reclaimed so far (eviction is not undone — evicted cache entries
// were reclaimable anyway).
func (m *BlockManager) reserve(n int) bool {
	for m.free < n {
		if !m.evictOne() {
			return false
		}
	}
	return true
}

// AcquirePrefix pins the request onto the shared blocks of its prompt
// prefix, publishing blocks that are not cached yet. prefixHash is the
// chained identity of the prefix content; prefixTokens its length (only
// whole blocks are shareable — the remainder lives in private blocks).
//
// It returns the number of leading prefix tokens whose KV entries are
// already computed and cached — tokens the request's prefill can skip.
// Publishing stops (without failing) when the pool cannot back further
// blocks; the request covers the rest with private blocks via Grow.
// Acquiring twice for the same request is an error — Release first.
//
// Hit/miss statistics are NOT updated here: an admission that acquires a
// prefix and then fails to grow releases and retries later, and counting
// at acquire time would credit the same tokens once per retry. The
// scheduler calls creditPrefixStats once the request is actually
// admitted.
func (m *BlockManager) AcquirePrefix(reqID int, prefixHash uint64, prefixTokens int) (cachedTokens int, err error) {
	if !m.sharing || prefixTokens < m.blockTokens {
		return 0, nil
	}
	if len(m.pinned[reqID].blocks) > 0 {
		return 0, fmt.Errorf("serve: request %d acquires a prefix it already holds", reqID)
	}
	nBlocks := prefixTokens / m.blockTokens // full blocks only
	pins := make([]*sharedBlock, 0, nBlocks)
	hitsDone := false
	for idx := 0; idx < nBlocks; idx++ {
		key := blockKey{hash: chainHash(prefixHash, idx), idx: idx}
		b, ok := m.shared[key]
		if ok {
			if b.refs == 0 {
				m.cached-- // revived from the cache
			}
			b.refs++
			pins = append(pins, b)
			if b.computed && !hitsDone {
				cachedTokens += m.blockTokens
			} else {
				hitsDone = true // uncomputed block: the rest must be recomputed in order
			}
			continue
		}
		hitsDone = true
		if !m.reserve(1) {
			break // pool exhausted: remaining prefix tokens go to private blocks
		}
		m.free--
		nb := &sharedBlock{key: key, refs: 1}
		m.shared[key] = nb
		pins = append(pins, nb)
		m.notePeak()
	}
	if len(pins) > 0 {
		m.pinned[reqID] = pinChain{hash: prefixHash, blocks: pins}
	}
	return cachedTokens, nil
}

// creditPrefixStats commits the hit/miss accounting of a successful
// admission: cachedTokens prefix tokens were served from cache, and the
// rest of the request's pinned prefix had to be (re)computed.
func (m *BlockManager) creditPrefixStats(reqID, cachedTokens int) {
	m.hitTokens += cachedTokens
	if missed := m.SharedTokens(reqID) - cachedTokens; missed > 0 {
		m.missTokens += missed
	}
}

// SharedTokens returns how many prompt tokens of the request are covered by
// pinned shared blocks.
func (m *BlockManager) SharedTokens(reqID int) int {
	return len(m.pinned[reqID].blocks) * m.blockTokens
}

// MarkComputed records that the request's prefill has filled its pinned
// prefix blocks up to `tokens` prompt tokens, making them cache hits for
// later sharers.
func (m *BlockManager) MarkComputed(reqID, tokens int) {
	for _, b := range m.pinned[reqID].blocks {
		if (b.key.idx+1)*m.blockTokens <= tokens {
			b.computed = true
		}
	}
}

// Grow ensures the request holds enough blocks for `tokens` cache entries,
// counting pinned shared blocks first and allocating the private-block
// shortfall (evicting cached blocks under pressure). It reports whether
// the pool could satisfy the request; on false the holding is unchanged
// (all-or-nothing).
func (m *BlockManager) Grow(reqID, tokens int) bool {
	need := m.BlocksFor(tokens) - len(m.pinned[reqID].blocks) - m.held[reqID]
	if need <= 0 {
		return true
	}
	if !m.reserve(need) {
		return false
	}
	m.free -= need
	m.held[reqID] += need
	m.notePeak()
	return true
}

// Release frees every private block the request holds, unpins its shared
// blocks, and returns the total count released. Shared blocks whose
// refcount drops to zero stay cached (leaf-first LRU) if computed, and are
// freed immediately if their prefill never completed.
func (m *BlockManager) Release(reqID int) int {
	n := m.held[reqID]
	delete(m.held, reqID)
	m.free += n
	pins := m.pinned[reqID].blocks
	delete(m.pinned, reqID)
	if len(pins) > 0 {
		m.tick++
		for _, b := range pins {
			n++
			b.refs--
			if b.refs > 0 {
				continue
			}
			if !b.computed {
				delete(m.shared, b.key) // half-built block: content is garbage
				m.free++
				continue
			}
			// Deeper blocks get smaller sequences → evicted first.
			b.lruSeq = m.tick<<16 - int64(b.key.idx)
			m.cached++
		}
	}
	return n
}

// DedupSavedTokens returns how many tokens of per-row KV read traffic
// across the given requests are repeat reads of the same shared physical
// blocks (pins minus unique blocks). The scheduler subtracts these from
// the decode step's resident working set: shared prefix pages are mapped
// once however many rows stream them, so they do not widen TLB reach or
// enclave paging pressure.
//
// Every pinned chain runs from block 0 of its prefix, and block keys of
// different prefixes never collide, so a prefix's unique blocks are
// exactly its longest pinned chain in the batch. The fold is therefore
// Σ rows len(chain) − Σ prefixes max len(chain): one map probe per row,
// no per-block work and, once the scratch map has grown, no allocation.
func (m *BlockManager) DedupSavedTokens(ids []int) int {
	if !m.sharing {
		return 0
	}
	clear(m.longest)
	saved := 0
	for _, id := range ids {
		c := m.pinned[id]
		n := len(c.blocks)
		if n == 0 {
			continue
		}
		best := m.longest[c.hash]
		// This row's chain is all repeat reads except the part that
		// extends the prefix's longest chain so far.
		saved += min(n, best)
		if n > best {
			m.longest[c.hash] = n
		}
	}
	return saved * m.blockTokens
}

// CheckConservation verifies the pool's accounting invariants: every block
// is exactly one of free, privately held, or backing a shared entry, and
// shared refcounts equal the pins held by requests. Tests call this after
// adversarial share/preempt/evict interleavings.
func (m *BlockManager) CheckConservation() error {
	private := 0
	for _, n := range m.held {
		if n < 0 {
			return fmt.Errorf("serve: negative private holding %d", n)
		}
		private += n
	}
	if got := m.free + private + len(m.shared); got != m.total {
		return fmt.Errorf("serve: block conservation broken: free %d + private %d + shared %d = %d, want %d",
			m.free, private, len(m.shared), got, m.total)
	}
	pinRefs := make(map[blockKey]int)
	for id, c := range m.pinned {
		for idx, b := range c.blocks {
			if b.key != (blockKey{hash: chainHash(c.hash, idx), idx: idx}) {
				return fmt.Errorf("serve: request %d pins block %v at chain position %d of prefix %#x", id, b.key, idx, c.hash)
			}
			pinRefs[b.key]++
		}
	}
	cached := 0
	for key, b := range m.shared {
		if b.refs < 0 {
			return fmt.Errorf("serve: negative refcount %d on block %v", b.refs, key)
		}
		if b.refs == 0 {
			cached++
		}
		if b.refs != pinRefs[key] {
			return fmt.Errorf("serve: block %v refcount %d but %d pins", key, b.refs, pinRefs[key])
		}
		delete(pinRefs, key)
	}
	for key, n := range pinRefs {
		return fmt.Errorf("serve: %d pins on unpublished block %v", n, key)
	}
	if cached != m.cached {
		return fmt.Errorf("serve: cached-block counter %d but %d unpinned shared blocks", m.cached, cached)
	}
	swapSum := 0
	for id, n := range m.swapped {
		if n <= 0 {
			return fmt.Errorf("serve: request %d parks %d swap blocks", id, n)
		}
		swapSum += n
		// A swapped request holds nothing in the device pool: SwapOut
		// released its private blocks and shared pins atomically.
		if m.held[id] != 0 || len(m.pinned[id].blocks) != 0 {
			return fmt.Errorf("serve: swapped request %d still holds %d private / %d pinned device blocks",
				id, m.held[id], len(m.pinned[id].blocks))
		}
	}
	if swapSum != m.swapUsed {
		return fmt.Errorf("serve: swap pool accounting broken: %d parked, %d used", swapSum, m.swapUsed)
	}
	if m.swapUsed > m.swapTotal {
		return fmt.Errorf("serve: swap pool overcommitted: %d used of %d", m.swapUsed, m.swapTotal)
	}
	return nil
}
