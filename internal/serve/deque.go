package serve

// reqDeque is a ring-buffer deque of request states: the scheduler's wait
// queue. Arrivals push at the back, admission pops from the front, and
// preemption pushes the victim back at the front — all O(1). The previous
// slice-based queue paid an O(n) copy on every preemption
// (append([]*reqState{r}, queue...)) and leaked head capacity on every
// admission (queue = queue[1:]), both of which scale with backlog depth in
// exactly the overloaded runs the simulator exists to measure.
//
// Under deadline-aware admission the deque also carries edf, an index by
// (deadline, queue order), so the earliest deadline is found without a
// scan (see Earliest).
type reqDeque struct {
	buf  []*reqState
	head int
	n    int
	edf  *edfIndex
}

// edfIndex orders a deque's requests by (deadline, queue order). Each
// push stamps the request's qseq with a queue-order key: PushBack hands
// out keys from back upward and PushFront from front downward, so keys
// increase from the deque's front to its back and a key locates its
// request by binary search. heap is a binary min-heap of the queued
// requests, each knowing its heap position (qpos), so a removal from the
// deque leaves the heap at once.
type edfIndex struct {
	front, back int64
	heap        []*reqState
}

// edfBefore orders requests by deadline, then by queue order: of equal
// deadlines the one nearest the front wins, as a front-to-back strict-<
// scan picks it.
func edfBefore(a, b *reqState) bool {
	return a.deadline < b.deadline || (a.deadline == b.deadline && a.qseq < b.qseq)
}

// Len returns the number of queued requests.
func (d *reqDeque) Len() int { return d.n }

// Front returns the oldest queued request without removing it; nil when
// empty.
func (d *reqDeque) Front() *reqState {
	if d.n == 0 {
		return nil
	}
	return d.buf[d.head]
}

// PushBack appends a request at the tail.
func (d *reqDeque) PushBack(r *reqState) {
	d.grow()
	d.buf[(d.head+d.n)%len(d.buf)] = r
	d.n++
	if x := d.edf; x != nil {
		x.back++
		x.index(r, x.back)
	}
}

// PushFront prepends a request at the head (preempted requests rejoin here).
func (d *reqDeque) PushFront(r *reqState) {
	d.grow()
	d.head = (d.head - 1 + len(d.buf)) % len(d.buf)
	d.buf[d.head] = r
	d.n++
	if x := d.edf; x != nil {
		x.front--
		x.index(r, x.front)
	}
}

// index files a request just pushed under queue-order key seq.
func (x *edfIndex) index(r *reqState, seq int64) {
	r.qseq = seq
	r.qpos = int32(len(x.heap))
	x.heap = append(x.heap, r)
	x.up(int(r.qpos))
}

// unindex removes a request leaving the deque from the heap.
func (x *edfIndex) unindex(r *reqState) {
	i, last := int(r.qpos), len(x.heap)-1
	if i != last {
		x.heap[i] = x.heap[last]
		x.heap[i].qpos = int32(i)
	}
	x.heap[last] = nil // release for GC
	x.heap = x.heap[:last]
	if i != last {
		x.down(i)
		x.up(i)
	}
}

// Earliest returns the queued request with the earliest deadline and its
// index from the front — of equal deadlines, the one nearest the front —
// or nil and -1 when the queue is empty. The deque must carry the index.
func (d *reqDeque) Earliest() (*reqState, int) {
	if d.n == 0 {
		return nil, -1
	}
	r := d.edf.heap[0]
	return r, d.find(r.qseq)
}

// find returns the index from the front of the request queued under key
// seq. Keys increase from front to back, so it binary-searches.
func (d *reqDeque) find(seq int64) int {
	lo, hi := 0, d.n-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if d.At(mid).qseq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (x *edfIndex) up(i int) {
	h := x.heap
	for i > 0 {
		p := (i - 1) / 2
		if !edfBefore(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		h[i].qpos, h[p].qpos = int32(i), int32(p)
		i = p
	}
}

func (x *edfIndex) down(i int) {
	h := x.heap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && edfBefore(h[c+1], h[c]) {
			c++
		}
		if !edfBefore(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		h[i].qpos, h[c].qpos = int32(i), int32(c)
		i = c
	}
}

// At returns the i-th queued request from the front without removing it.
// Deadline-aware admission scans the queue with it; callers keep i < Len.
func (d *reqDeque) At(i int) *reqState {
	return d.buf[(d.head+i)%len(d.buf)]
}

// RemoveAt removes and returns the i-th queued request from the front,
// shifting the shorter side of the ring to close the gap; nil when out of
// range. O(min(i, n-i)) — EDF admission mostly removes near the front.
func (d *reqDeque) RemoveAt(i int) *reqState {
	if i < 0 || i >= d.n {
		return nil
	}
	r := d.At(i)
	if i < d.n-1-i {
		for j := i; j > 0; j-- {
			d.buf[(d.head+j)%len(d.buf)] = d.buf[(d.head+j-1)%len(d.buf)]
		}
		d.buf[d.head] = nil // release for GC
		d.head = (d.head + 1) % len(d.buf)
	} else {
		for j := i; j < d.n-1; j++ {
			d.buf[(d.head+j)%len(d.buf)] = d.buf[(d.head+j+1)%len(d.buf)]
		}
		d.buf[(d.head+d.n-1)%len(d.buf)] = nil
	}
	d.n--
	if d.edf != nil {
		d.edf.unindex(r)
	}
	return r
}

// PopFront removes and returns the oldest queued request; nil when empty.
func (d *reqDeque) PopFront() *reqState {
	if d.n == 0 {
		return nil
	}
	r := d.buf[d.head]
	d.buf[d.head] = nil // release for GC
	d.head = (d.head + 1) % len(d.buf)
	d.n--
	if d.edf != nil {
		d.edf.unindex(r)
	}
	return r
}

// grow doubles the ring when full, unwrapping it into the new buffer.
func (d *reqDeque) grow() {
	if d.n < len(d.buf) {
		return
	}
	size := 2 * len(d.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]*reqState, size)
	for i := 0; i < d.n; i++ {
		buf[i] = d.buf[(d.head+i)%len(d.buf)]
	}
	d.buf, d.head = buf, 0
}
