package serve

import (
	"math"
	"slices"
	"sort"
)

// decodeClock keeps a scheduler's decode rows — its fully prefilled running
// rows, each marked phaseDecoding — so that a steady round costs O(1) plus
// the rows crossing a KV block boundary, instead of two passes over every
// row.
//
// tick counts the full decode rounds, the rounds in which every row
// appends one token. A row does not count its own tokens: it stores
// generated as of syncTick, one tick shared by all rows, so its count is
// generated + tick − syncTick and the batch's context sum is ctxBase +
// len(rows)·(tick − syncTick).
//
// The settle rule: while a row is phaseDecoding only the clock reads its
// generated. Any other reader takes the row off the clock first (leave:
// preemption, crash, finish, handoff) or settles the whole clock (settle:
// the per-row passes, the report), after which generated is the count.
//
// A row grows a KV block in the round its context reaches kv.cap, at tick
// syncTick + boundary(r). rows holds the rows in that order, read
// cyclically from head, so the rows due to grow this round are the run at
// the front of the cycle. Growing one moves its boundary BlockTokens
// rounds out, which is the latest on the clock (no row's boundary is more
// than BlockTokens rounds away), so the front simply advances past it. A
// row is due — its token goes through produce — in the round of its first
// token or its last; nextDue is the earliest such tick, so a round before
// it commits every token by advancing tick.
//
// Joins wait: a row that finishes prefill (or is restored whole from swap)
// stays phaseRunning in the pending joins until the round in flight is
// committed, since that round does not decode it. The pending joins live
// at the far end of rows' backing array, which holds MaxBatch rows: the
// clock's rows and the pending joins are distinct running rows, so the two
// ends never meet. Joins and leaves update the order in place.
type decodeClock struct {
	rows     []*reqState
	head     int
	pending  int
	tick     int
	syncTick int
	// ctxBase is Σ InputLen + generated over rows, the batch's context sum
	// at syncTick; nextDue is the earliest tick a row is due at.
	ctxBase int
	nextDue int
	// shared is dedupSaved over rows under PrefixSharing. It changes only
	// with membership, so a change sets it to -1 and the next read
	// recomputes it.
	shared int
}

// perRowTestHook, when set by a test, sends every round down the per-row
// passes, the reference the clock is held equal to.
var perRowTestHook bool

// boundary is the tick, relative to syncTick, of the round in which r's
// context reaches kv.cap: the round r must grow a block.
func (c *decodeClock) boundary(r *reqState) int {
	return int(r.kv.cap) - r.req.InputLen - r.generated
}

// dueAt is the tick of the round in which r's token goes through produce:
// its first token (due at once) or its last.
func (c *decodeClock) dueAt(r *reqState) int {
	if r.firstTokenAt == 0 {
		return 0
	}
	return c.syncTick + r.req.OutputLen - 1 - r.generated
}

// ctxSum is the rows' context sum now.
func (c *decodeClock) ctxSum() int {
	return c.ctxBase + len(c.rows)*(c.tick-c.syncTick)
}

// at is the row at position i of the cycle.
func (c *decodeClock) at(i int) *reqState {
	if i += c.head; i >= len(c.rows) {
		i -= len(c.rows)
	}
	return c.rows[i]
}

// join queues a prefilled running row to go on the clock at the next flush.
func (c *decodeClock) join(r *reqState) {
	c.pending++
	c.rows[:cap(c.rows)][cap(c.rows)-c.pending] = r
}

// flush puts the pending joins on the clock, each at its boundary's place
// in the cycle with its count stored as of syncTick.
func (c *decodeClock) flush() {
	all := c.rows[:cap(c.rows)]
	if len(c.rows) == 0 {
		c.nextDue = math.MaxInt
	}
	for ; c.pending > 0; c.pending-- {
		i := len(all) - c.pending
		r := all[i]
		all[i] = nil
		r.phase = phaseDecoding
		r.generated -= c.tick - c.syncTick
		c.insert(r)
		c.ctxBase += r.req.InputLen + r.generated
		c.nextDue = min(c.nextDue, c.dueAt(r))
	}
	c.shared = -1
}

// insert places r after the rows whose boundary is not later than its own.
func (c *decodeClock) insert(r *reqState) {
	n, b := len(c.rows), c.boundary(r)
	q := c.head + sort.Search(n, func(i int) bool { return c.boundary(c.at(i)) > b })
	if q > n {
		q -= n // in the cycle's wrapped part, which sits before head
		c.head++
	}
	c.rows = c.rows[:n+1]
	copy(c.rows[q+1:], c.rows[q:n])
	c.rows[q] = r
}

// leave takes r off the clock, settling its count, or out of the pending
// joins. It leaves nextDue a lower bound; the callers refresh it.
func (c *decodeClock) leave(r *reqState) {
	if r.phase != phaseDecoding {
		all := c.rows[:cap(c.rows)]
		lo := len(all) - c.pending
		if i := slices.Index(all[lo:], r); i >= 0 {
			all[lo+i], all[lo] = all[lo], nil
			c.pending--
		}
		return
	}
	c.ctxBase -= r.req.InputLen + r.generated
	r.generated += c.tick - c.syncTick
	r.phase = phaseRunning
	n, q := len(c.rows), slices.Index(c.rows, r)
	copy(c.rows[q:], c.rows[q+1:])
	c.rows[n-1] = nil
	c.rows = c.rows[:n-1]
	if q < c.head {
		c.head--
	}
	if c.head == n-1 {
		c.head = 0
	}
	c.shared = -1
}

// settle brings every row's stored count up to the current tick. Each
// row's boundary and due tick stay where they were.
func (c *decodeClock) settle() {
	lag := c.tick - c.syncTick
	for _, r := range c.rows {
		r.generated += lag
	}
	c.ctxBase += lag * len(c.rows)
	c.syncTick = c.tick
}

// resort restores the boundary order and the sums after a per-row pass,
// which moves rows' boundaries by different amounts.
func (c *decodeClock) resort() {
	rows := c.rows
	slices.Reverse(rows[:c.head])
	slices.Reverse(rows[c.head:])
	slices.Reverse(rows) // the cycle now starts at index 0
	c.head = 0
	for i := 1; i < len(rows); i++ {
		r, b := rows[i], c.boundary(rows[i])
		j := i
		for ; j > 0 && c.boundary(rows[j-1]) > b; j-- {
			rows[j] = rows[j-1]
		}
		rows[j] = r
	}
	c.ctxBase, c.nextDue = 0, math.MaxInt
	for _, r := range rows {
		c.ctxBase += r.req.InputLen + r.generated
		c.nextDue = min(c.nextDue, c.dueAt(r))
	}
}

// sharedTokens is dedupSaved over the clock's rows, recomputed only after
// a membership change.
func (s *scheduler) sharedTokens() int {
	c := &s.clock
	if c.shared < 0 {
		slots := s.round.slots[:0]
		for _, r := range c.rows {
			slots = append(slots, r.kv.slot)
		}
		s.round.slots = slots
		c.shared = s.kv.dedupSaved(slots)
	}
	return c.shared
}

// reserveBoundary is a steady round's capacity pass. The rows whose context
// reaches kv.cap this round are the run at the front of the clock's cycle,
// and each needs exactly one block. It grows them and moves the front past
// them — or, when the pool cannot free a block for each, reports false with
// nothing touched, so the per-row pass meets the exhaustion in admission
// order. When every grow succeeds their order does not matter: each takes
// one block and eviction reclaims in LRU order whoever asks.
func (s *scheduler) reserveBoundary() bool {
	c := &s.clock
	n, now := len(c.rows), c.tick-c.syncTick
	k := 0
	for k < n && c.boundary(c.at(k)) == now {
		k++
	}
	if k == 0 {
		return true
	}
	if k > s.kv.available() {
		return false
	}
	for ; k > 0; k-- {
		r := c.rows[c.head]
		s.kv.grow(&r.kv, r.req.ID, int(r.kv.cap)+1)
		if c.head++; c.head == n {
			c.head = 0
		}
	}
	return true
}

// commitDecode commits the round's decode tokens at now and returns how
// many it counted itself: every batch row's but the due rows', which leave
// the clock and go through produce, in admission order. A full round —
// every row decoded — advances the clock, O(1) before nextDue. A partial
// batch (a row stalled itself) runs the per-row pass from settled counts.
func (s *scheduler) commitDecode(now float64) int {
	c := &s.clock
	b := s.round.shape.batch
	if b == 0 {
		return 0
	}
	if b == len(c.rows) && !perRowTestHook {
		if c.tick >= c.nextDue {
			b -= s.produceDue(b, now, false)
		}
		c.tick++
		return b
	}
	c.settle()
	b -= s.produceDue(b, now, true)
	c.resort()
	return b
}

// produceDue walks the first b decode rows in admission order and sends
// the rows due this round through produce, returning how many it sent.
// With step set (the per-row pass, on settled counts) each other row
// counts its token here; otherwise the clock's tick counts it, and the
// walk, which then covers every row, refreshes nextDue.
func (s *scheduler) produceDue(b int, now float64, step bool) int {
	c := &s.clock
	due, next := 0, math.MaxInt
	for i := 0; i < len(s.running) && b > 0; {
		r := s.running[i]
		if r.phase != phaseDecoding {
			i++
			continue
		}
		b--
		if at := c.dueAt(r); at > c.tick {
			if step {
				r.generated++
			}
			next = min(next, at)
			i++
			continue
		}
		c.leave(r)
		s.produce(r, now)
		if r.phase == phaseRunning {
			c.join(r) // its first token: it decodes on from the next round
		}
		due++
		if i < len(s.running) && s.running[i] == r {
			i++ // r is still running; otherwise its successor moved up
		}
	}
	c.nextDue = next
	return due
}
