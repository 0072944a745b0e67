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
// cache: full blocks of a request's declared prompt prefix are published,
// with reference counts, in one entry per prefix identity hash, so later
// requests with the same prefix pin the same physical blocks instead of
// recomputing and re-storing them. Every pin is blocks 0..n-1 of one
// prefix, so an entry is a contiguous chain (a radix path, vLLM- and
// SGLang-style) and an admission costs one map lookup. Blocks whose
// refcount drops to zero are retained in an LRU cache and reclaimed only
// under allocation pressure (leaf-first, so a cached block's parents always
// outlive it).
//
// Each request's holding lives in one slot of a dense table. The scheduler
// keeps every request's kvRef (slot index and coverage) in its state and
// calls the slot methods; the exported int-keyed methods look the request
// ID up in a map and run the same code. A request is driven through one of
// the two, not both.
type BlockManager struct {
	blockTokens   int
	bytesPerToken int64
	total         int
	free          int // blocks neither privately held nor backing a prefix entry
	sharing       bool

	// slots is the dense per-request holding table. A request takes a slot
	// when it first holds anything and returns it once it holds nothing, so
	// a running row reaches its holding by index, with no map operation.
	// Slot 0 is never handed out: it is the empty holding a slot-less
	// request reads. freeSlots lists returned slots for reuse.
	slots     []kvHold
	freeSlots []int32
	// ids binds request IDs to slots for the int-keyed methods only; the
	// scheduler carries each request's slot itself and never touches it.
	ids map[int]int32

	// prefixes is the prefix cache: one entry per prefix identity hash.
	prefixes   map[uint64]*prefixEntry
	sharedN    int    // blocks backing prefix entries (Σ len(blocks))
	cached     int    // shared blocks nobody pins (refcount zero, evictable)
	tick       int64  // monotonic op counter driving LRU order (deterministic)
	round      uint64 // dedupSaved call counter, stamped on the entries it folds
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

	// idSlots is DedupSavedTokens' scratch: the batch's IDs resolved to
	// slots.
	idSlots []int32
}

// kvRef is a request's handle on its holding: slot indexes the slot table
// (0: it holds nothing) and cap is the tokens its held device blocks cover,
// (pins + private)·blockTokens. Every slot method that changes a holding's
// device blocks refreshes cap before it returns, and nothing else changes
// them (eviction and cache flushes reclaim only unpinned blocks), so
// ctx ≤ cap answers "does the next token fit" without entering the
// manager.
type kvRef struct {
	slot int32
	cap  int32
}

// kvHold is one request's holding in the device and swap pools.
type kvHold struct {
	owner   int      // request ID the slot belongs to
	private int      // private blocks held
	pins    pinChain // shared prefix chain pinned
	swap    int      // swap blocks parked
}

// empty reports whether the holding holds nothing, so its slot can be
// returned.
func (h *kvHold) empty() bool { return h.private == 0 && h.pins.n == 0 && h.swap == 0 }

// pinChain is the shared prefix one request pins: blocks 0..n-1 of entry
// e. AcquirePrefix only ever pins such a contiguous chain from block 0;
// a holding that pins nothing has n == 0 and e == nil.
type pinChain struct {
	e *prefixEntry
	n int
}

// prefixEntry is one prefix's published blocks: blocks[i] backs tokens
// [i·blockTokens, (i+1)·blockTokens) of the prefix whose identity hash is
// hash. Because every pin is a leading run of the chain, the blocks obey
// four chain invariants (CheckConservation asserts them):
//
//  1. refcounts never increase along the chain;
//  2. computed blocks form a leading run;
//  3. refcount-zero blocks are computed;
//  4. refcount-zero lruSeqs strictly decrease with depth.
//
// So the entry's evictable blocks are a suffix whose tail has the entry's
// smallest lruSeq, and blocks only ever leave from the end of the slab.
type prefixEntry struct {
	hash   uint64
	blocks []prefixBlock
	// round and longest are dedupSaved's per-call scratch: longest is the
	// longest chain pinned on this prefix among the rows folded so far by
	// call number round.
	round   uint64
	longest int
}

// prefixBlock is one physical block published in the prefix cache.
type prefixBlock struct {
	refs int32
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
// adjacent inputs across the hash space. The prefix identity hash builds
// on it.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewBlockManager sizes the pool from a byte budget. It fails when the
// budget does not admit even one block — the platform cannot serve the
// model at all (e.g. weights alone overflow the enclave). sharing enables
// the prefix cache; without it the manager is a plain per-request
// allocator.
func NewBlockManager(budgetBytes int64, blockTokens int, bytesPerToken int64, sharing bool) (*BlockManager, error) {
	return newBlockManager(budgetBytes, blockTokens, bytesPerToken, sharing, 8)
}

// newBlockManager is NewBlockManager with the slot table pre-sized for
// holders concurrent holders, so a run that stays within it never grows
// the table.
func newBlockManager(budgetBytes int64, blockTokens int, bytesPerToken int64, sharing bool, holders int) (*BlockManager, error) {
	if blockTokens <= 0 || bytesPerToken <= 0 {
		return nil, fmt.Errorf("serve: block of %d tokens × %d bytes/token is not allocatable", blockTokens, bytesPerToken)
	}
	blockBytes := int64(blockTokens) * bytesPerToken
	total := int(budgetBytes / blockBytes)
	if total <= 0 {
		return nil, fmt.Errorf("serve: KV budget %d bytes below one %d-byte block", budgetBytes, blockBytes)
	}
	m := &BlockManager{
		blockTokens:   blockTokens,
		bytesPerToken: bytesPerToken,
		total:         total,
		free:          total,
		sharing:       sharing,
		slots:         make([]kvHold, 1, holders+1),
		freeSlots:     make([]int32, 0, holders),
	}
	if sharing {
		m.prefixes = make(map[uint64]*prefixEntry)
	}
	return m, nil
}

// take returns the request's holding, first taking a slot for it when it
// has none (ref.slot == 0).
func (m *BlockManager) take(ref *kvRef, reqID int) *kvHold {
	if ref.slot == 0 {
		if n := len(m.freeSlots); n > 0 {
			ref.slot = m.freeSlots[n-1]
			m.freeSlots = m.freeSlots[:n-1]
		} else {
			ref.slot = int32(len(m.slots))
			m.slots = append(m.slots, kvHold{})
		}
		m.slots[ref.slot].owner = reqID
	}
	return &m.slots[ref.slot]
}

// put returns the request's slot once its holding is empty and zeroes
// ref.slot.
func (m *BlockManager) put(ref *kvRef) {
	if ref.slot == 0 || !m.slots[ref.slot].empty() {
		return
	}
	m.freeSlots = append(m.freeSlots, ref.slot)
	ref.slot = 0
}

// cover returns the tokens a holding's device blocks cover: kvRef.cap.
func (m *BlockManager) cover(h *kvHold) int32 {
	return int32((h.pins.n + h.private) * m.blockTokens)
}

// rebind records the slot an int-keyed call left reqID holding.
func (m *BlockManager) rebind(reqID int, slot int32) {
	switch {
	case slot == m.ids[reqID]:
	case slot == 0:
		delete(m.ids, reqID)
	default:
		if m.ids == nil {
			m.ids = make(map[int]int32)
		}
		m.ids[reqID] = slot
	}
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
	ref := kvRef{slot: m.ids[reqID]}
	ok := m.swapOut(&ref, reqID, tokens)
	m.rebind(reqID, ref.slot)
	return ok
}

// swapOut is SwapOut on the request's slot.
func (m *BlockManager) swapOut(ref *kvRef, reqID, tokens int) bool {
	if tokens <= 0 {
		return false
	}
	if m.slots[ref.slot].swap > 0 {
		return false // already parked; one swap copy per request
	}
	need := m.BlocksFor(tokens)
	if m.swapUsed+need > m.swapTotal {
		return false
	}
	h := m.take(ref, reqID)
	m.unhold(h)
	ref.cap = 0
	h.swap = need
	m.swapUsed += need
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
	ref := kvRef{slot: m.ids[reqID]}
	n := m.swapIn(&ref)
	m.rebind(reqID, ref.slot)
	return n
}

// swapIn is SwapIn on the request's slot. The parked copy is no device
// block, so the holding's coverage is unchanged.
func (m *BlockManager) swapIn(ref *kvRef) int {
	h := &m.slots[ref.slot]
	n := h.swap
	if n == 0 {
		return 0
	}
	h.swap = 0
	m.swapUsed -= n
	m.put(ref)
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

// Holders returns how many requests currently hold anything: private
// blocks, shared pins or a parked swap copy.
func (m *BlockManager) Holders() int { return len(m.slots) - 1 - len(m.freeSlots) }

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

// evictOne reclaims the least-recently-released cached block. By the
// chain invariants each entry's evictable blocks are a suffix whose tail
// has the entry's smallest lruSeq, so the smallest lruSeq among the
// entries' tails is the smallest among all cached blocks: the scan is over
// prefixes, not blocks. It returns false when nothing is evictable.
func (m *BlockManager) evictOne() bool {
	var victim *prefixEntry
	var seq int64
	for _, e := range m.prefixes {
		if b := &e.blocks[len(e.blocks)-1]; b.refs == 0 && (victim == nil || b.lruSeq < seq) {
			victim, seq = e, b.lruSeq
		}
	}
	if victim == nil {
		return false
	}
	m.truncate(victim, len(victim.blocks)-1)
	m.evicted++
	m.cached--
	return true
}

// FlushCache reclaims every cached (refcount-zero) prefix block and
// returns how many were freed. A replica crash calls this: the cache's
// contents die with the TEE whose keys sealed them, so post-recovery
// sharers recompute. Pinned blocks (nonzero refcount) are untouched: each
// entry loses its refcount-zero suffix.
func (m *BlockManager) FlushCache() int {
	n := 0
	for _, e := range m.prefixes {
		k := len(e.blocks)
		for k > 0 && e.blocks[k-1].refs == 0 {
			k--
		}
		n += len(e.blocks) - k
		m.truncate(e, k)
	}
	m.evicted += n
	m.cached -= n
	return n
}

// truncate frees entry e's blocks from index k on, dropping the entry from
// the cache once it holds none.
func (m *BlockManager) truncate(e *prefixEntry, k int) {
	n := len(e.blocks) - k
	m.free += n
	m.sharedN -= n
	e.blocks = e.blocks[:k]
	if k == 0 {
		delete(m.prefixes, e.hash)
	}
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

// available is how many blocks reserve can free up: the free blocks plus
// the cached ones, all of which eviction can reclaim.
func (m *BlockManager) available() int { return m.free + m.cached }

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
	ref := kvRef{slot: m.ids[reqID]}
	cachedTokens, err = m.acquirePrefix(&ref, reqID, prefixHash, prefixTokens)
	m.rebind(reqID, ref.slot)
	return cachedTokens, err
}

// acquirePrefix is AcquirePrefix on the request's slot. It looks the
// prefix up once, pins the entry's leading blocks and appends the ones not
// yet published to its slab.
func (m *BlockManager) acquirePrefix(ref *kvRef, reqID int, prefixHash uint64, prefixTokens int) (cachedTokens int, err error) {
	if !m.sharing || prefixTokens < m.blockTokens {
		return 0, nil
	}
	if m.slots[ref.slot].pins.n > 0 {
		return 0, fmt.Errorf("serve: request %d acquires a prefix it already holds", reqID)
	}
	nBlocks := prefixTokens / m.blockTokens // full blocks only
	h := m.take(ref, reqID)
	e := m.prefixes[prefixHash]
	n := 0
	if e != nil {
		n = min(nBlocks, len(e.blocks))
		for i := range e.blocks[:n] {
			b := &e.blocks[i]
			if b.refs == 0 {
				m.cached-- // revived from the cache
			}
			b.refs++
			// Computed blocks form a leading run, so these are the
			// leading hits; the rest must be recomputed in order.
			if b.computed {
				cachedTokens += m.blockTokens
			}
		}
	}
	// Publish the rest. The entry's published blocks are all pinned now, so
	// the evictions reserve makes never touch it.
	for ; n < nBlocks && m.reserve(1); n++ {
		if e == nil {
			e = &prefixEntry{hash: prefixHash, blocks: make([]prefixBlock, 0, nBlocks)}
			m.prefixes[prefixHash] = e
		}
		m.free--
		m.sharedN++
		e.blocks = append(e.blocks, prefixBlock{refs: 1})
		m.notePeak()
	}
	// A full pool cuts the chain short: the remaining prefix tokens go to
	// private blocks.
	if n > 0 {
		h.pins = pinChain{e: e, n: n}
	}
	ref.cap = m.cover(h)
	m.put(ref)
	return cachedTokens, nil
}

// creditPrefixStats commits the hit/miss accounting of a successful
// admission: cachedTokens prefix tokens were served from cache, and the
// rest of the request's pinned prefix had to be (re)computed.
func (m *BlockManager) creditPrefixStats(slot int32, cachedTokens int) {
	m.hitTokens += cachedTokens
	if missed := m.sharedTokens(slot) - cachedTokens; missed > 0 {
		m.missTokens += missed
	}
}

// SharedTokens returns how many prompt tokens of the request are covered by
// pinned shared blocks.
func (m *BlockManager) SharedTokens(reqID int) int { return m.sharedTokens(m.ids[reqID]) }

// sharedTokens is SharedTokens on the request's slot.
func (m *BlockManager) sharedTokens(slot int32) int {
	return m.slots[slot].pins.n * m.blockTokens
}

// MarkComputed records that the request's prefill has filled its pinned
// prefix blocks up to `tokens` prompt tokens, making them cache hits for
// later sharers.
func (m *BlockManager) MarkComputed(reqID, tokens int) { m.markComputed(m.ids[reqID], tokens) }

// markComputed is MarkComputed on the request's slot.
func (m *BlockManager) markComputed(slot int32, tokens int) {
	p := m.slots[slot].pins
	for i := range min(p.n, tokens/m.blockTokens) {
		p.e.blocks[i].computed = true
	}
}

// Grow ensures the request holds enough blocks for `tokens` cache entries,
// counting pinned shared blocks first and allocating the private-block
// shortfall (evicting cached blocks under pressure). It reports whether
// the pool could satisfy the request; on false the holding is unchanged
// (all-or-nothing).
func (m *BlockManager) Grow(reqID, tokens int) bool {
	ref := kvRef{slot: m.ids[reqID]}
	ok := m.grow(&ref, reqID, tokens)
	m.rebind(reqID, ref.slot)
	return ok
}

// grow is Grow on the request's slot. A request that already holds a slot
// reaches its holding by index: no map operation. A context still inside
// the blocks held is answered inline and changes nothing, so a caller whose
// ref.cap already covers tokens may skip the call.
func (m *BlockManager) grow(ref *kvRef, reqID, tokens int) bool {
	h := &m.slots[ref.slot]
	if tokens <= (h.pins.n+h.private)*m.blockTokens {
		return true
	}
	return m.growBlocks(ref, reqID, tokens)
}

// growBlocks allocates grow's private-block shortfall.
func (m *BlockManager) growBlocks(ref *kvRef, reqID, tokens int) bool {
	h := &m.slots[ref.slot]
	need := m.BlocksFor(tokens) - h.pins.n - h.private
	if need <= 0 {
		return true
	}
	if !m.reserve(need) {
		return false
	}
	m.free -= need
	h = m.take(ref, reqID)
	h.private += need
	ref.cap = m.cover(h)
	m.notePeak()
	return true
}

// Release frees every private block the request holds, unpins its shared
// blocks, and returns the total count released. Shared blocks whose
// refcount drops to zero stay cached (leaf-first LRU) if computed, and are
// freed immediately if their prefill never completed. A parked swap copy
// stays parked.
func (m *BlockManager) Release(reqID int) int {
	ref := kvRef{slot: m.ids[reqID]}
	n := m.release(&ref)
	m.rebind(reqID, ref.slot)
	return n
}

// release is Release on the request's slot.
func (m *BlockManager) release(ref *kvRef) int {
	if ref.slot == 0 {
		return 0
	}
	n := m.unhold(&m.slots[ref.slot])
	ref.cap = 0
	m.put(ref)
	return n
}

// unhold frees the holding's private blocks and unpins its shared chain,
// returning the count released; the slot itself stays taken.
func (m *BlockManager) unhold(h *kvHold) int {
	n := h.private
	h.private = 0
	m.free += n
	if p := h.pins; p.n > 0 {
		m.tick++
		cut := p.n
		for i := range p.e.blocks[:p.n] {
			b := &p.e.blocks[i]
			b.refs--
			if b.refs > 0 {
				continue
			}
			if !b.computed {
				// Half-built block: its content is garbage. By the chain
				// invariants it and every block after it are unpinned and
				// half-built, so the slab is cut here.
				cut = min(cut, i)
				continue
			}
			// Deeper blocks get smaller sequences → evicted first.
			b.lruSeq = m.tick<<16 - int64(i)
			m.cached++
		}
		if cut < p.n {
			m.truncate(p.e, cut)
		}
		n += p.n
		h.pins = pinChain{}
	}
	return n
}

// DedupSavedTokens returns how many tokens of per-row KV read traffic
// across the given requests are repeat reads of the same shared physical
// blocks (pins minus unique blocks). The scheduler subtracts these from
// the decode step's resident working set: shared prefix pages are mapped
// once however many rows stream them, so they do not widen TLB reach or
// enclave paging pressure.
func (m *BlockManager) DedupSavedTokens(ids []int) int {
	slots := m.idSlots[:0]
	for _, id := range ids {
		slots = append(slots, m.ids[id])
	}
	m.idSlots = slots
	return m.dedupSaved(slots)
}

// dedupSaved is DedupSavedTokens on the rows' slots.
//
// Every pinned chain runs from block 0 of its prefix entry, so a prefix's
// unique blocks are exactly its longest pinned chain in the batch. The
// fold is therefore Σ rows len(chain) − Σ prefixes max len(chain). Each
// entry keeps the longest chain seen so far, stamped with the call's round
// number, so the fold touches one entry per pinning row: no map, no
// per-block work and no allocation.
func (m *BlockManager) dedupSaved(slots []int32) int {
	if !m.sharing {
		return 0
	}
	m.round++
	saved := 0
	for _, sl := range slots {
		p := m.slots[sl].pins
		if p.n == 0 {
			continue
		}
		e := p.e
		if e.round != m.round {
			e.round, e.longest = m.round, 0
		}
		// This row's chain is all repeat reads except the part that
		// extends the prefix's longest chain so far.
		saved += min(p.n, e.longest)
		e.longest = max(e.longest, p.n)
	}
	return saved * m.blockTokens
}

// CheckConservation verifies the pool's accounting invariants: every block
// is exactly one of free, privately held, or backing a prefix entry, and
// shared refcounts equal the pins held by requests. It also checks that
// each entry is filed under its own hash, is non-empty and obeys the four
// chain invariants eviction relies on (see prefixEntry), and the slot
// table: a slot is either free and empty or taken and holding something,
// and every int-keyed binding points at its request's slot. Tests call
// this after adversarial share/preempt/evict interleavings.
func (m *BlockManager) CheckConservation() error {
	isFree := make([]bool, len(m.slots))
	isFree[0] = true
	for _, sl := range m.freeSlots {
		if sl <= 0 || int(sl) >= len(m.slots) || isFree[sl] {
			return fmt.Errorf("serve: free slot list holds slot %d out of range or twice", sl)
		}
		isFree[sl] = true
	}
	private, swapSum := 0, 0
	pinRefs := make(map[*prefixEntry][]int32) // per-(entry, idx) pin counts
	for sl := range m.slots {
		h := &m.slots[sl]
		if isFree[sl] {
			if !h.empty() || h.pins.e != nil {
				return fmt.Errorf("serve: free slot %d holds %d private / %d pinned / %d swap blocks",
					sl, h.private, h.pins.n, h.swap)
			}
			continue
		}
		if h.empty() {
			return fmt.Errorf("serve: request %d holds nothing but keeps slot %d", h.owner, sl)
		}
		if h.private < 0 {
			return fmt.Errorf("serve: negative private holding %d", h.private)
		}
		private += h.private
		if p := h.pins; p.n != 0 || p.e != nil {
			if p.e == nil || p.n <= 0 || p.n > len(p.e.blocks) {
				return fmt.Errorf("serve: request %d pins %d blocks of a prefix entry holding %d",
					h.owner, p.n, entryLen(p.e))
			}
			refs := pinRefs[p.e]
			if refs == nil {
				refs = make([]int32, len(p.e.blocks))
				pinRefs[p.e] = refs
			}
			for i := range p.n {
				refs[i]++
			}
		}
		if h.swap < 0 {
			return fmt.Errorf("serve: request %d parks %d swap blocks", h.owner, h.swap)
		}
		// A swapped request holds nothing in the device pool: SwapOut
		// released its private blocks and shared pins atomically.
		if h.swap > 0 && (h.private != 0 || h.pins.n != 0) {
			return fmt.Errorf("serve: swapped request %d still holds %d private / %d pinned device blocks",
				h.owner, h.private, h.pins.n)
		}
		swapSum += h.swap
	}
	for id, sl := range m.ids {
		if sl <= 0 || int(sl) >= len(m.slots) || isFree[sl] || m.slots[sl].owner != id {
			return fmt.Errorf("serve: request %d is bound to slot %d it does not hold", id, sl)
		}
	}
	shared, cached := 0, 0
	for hash, e := range m.prefixes {
		if e.hash != hash || len(e.blocks) == 0 {
			return fmt.Errorf("serve: prefix entry %#x with %d blocks filed under %#x", e.hash, len(e.blocks), hash)
		}
		shared += len(e.blocks)
		refs := pinRefs[e]
		delete(pinRefs, e)
		for i := range e.blocks {
			b := &e.blocks[i]
			want := int32(0)
			if refs != nil {
				want = refs[i]
			}
			if b.refs < 0 {
				return fmt.Errorf("serve: negative refcount %d on block %d of prefix %#x", b.refs, i, hash)
			}
			if b.refs != want {
				return fmt.Errorf("serve: block %d of prefix %#x refcount %d but %d pins", i, hash, b.refs, want)
			}
			if b.refs == 0 {
				if !b.computed {
					return fmt.Errorf("serve: block %d of prefix %#x is unpinned but never computed", i, hash)
				}
				cached++
			}
			if i == 0 {
				continue
			}
			prev := &e.blocks[i-1]
			switch {
			case b.refs > prev.refs:
				return fmt.Errorf("serve: prefix %#x refcount rises from %d to %d at block %d", hash, prev.refs, b.refs, i)
			case b.computed && !prev.computed:
				return fmt.Errorf("serve: prefix %#x block %d is computed after an uncomputed block", hash, i)
			case b.refs == 0 && prev.refs == 0 && b.lruSeq >= prev.lruSeq:
				return fmt.Errorf("serve: prefix %#x cached block %d has LRU sequence %d, not below its parent's %d",
					hash, i, b.lruSeq, prev.lruSeq)
			}
		}
	}
	for e := range pinRefs {
		return fmt.Errorf("serve: pins on unpublished prefix entry %#x", e.hash)
	}
	if shared != m.sharedN {
		return fmt.Errorf("serve: shared-block counter %d but entries hold %d blocks", m.sharedN, shared)
	}
	if got := m.free + private + shared; got != m.total {
		return fmt.Errorf("serve: block conservation broken: free %d + private %d + shared %d = %d, want %d",
			m.free, private, shared, got, m.total)
	}
	if cached != m.cached {
		return fmt.Errorf("serve: cached-block counter %d but %d unpinned shared blocks", m.cached, cached)
	}
	if swapSum != m.swapUsed {
		return fmt.Errorf("serve: swap pool accounting broken: %d parked, %d used", swapSum, m.swapUsed)
	}
	if m.swapUsed > m.swapTotal {
		return fmt.Errorf("serve: swap pool overcommitted: %d used of %d", m.swapUsed, m.swapTotal)
	}
	return nil
}

// entryLen returns how many blocks e holds (zero for no entry).
func entryLen(e *prefixEntry) int {
	if e == nil {
		return 0
	}
	return len(e.blocks)
}
