package obs

import (
	"sync"

	"cllm/internal/serve"
)

// chunkEvents is the event capacity of one log chunk: 512 KiB at 128 B
// per serve.Event. Appending costs the same at 1024 to 8192 events per
// chunk (zeroing fresh memory dominates), so the size trades the
// allocation count, one per chunk (~170 for a 700k-event run), against the
// log's only slack, the unfilled tail of its last chunk (under 1% of such
// a run). Most test and CLI runs fit one chunk, which Events returns
// without a copy.
const chunkEvents = 4096

// eventChunk is one fixed-size block of the log.
type eventChunk [chunkEvents]serve.Event

// chunkDir is a log's chunk directory, pooled whole (slice and backing
// array) so a warmed run allocates nothing for it.
type chunkDir struct{ chunks []*eventChunk }

// Every log chunk is the same size, so one pool serves all recorders;
// recycled recorders hand back their chunks and directory for the next run
// (sync.Pool sheds them under GC pressure).
var (
	chunkPool = sync.Pool{New: func() any { return new(eventChunk) }}
	dirPool   = sync.Pool{New: func() any { return new(chunkDir) }}
)

// eventLog is an append-only event stream stored as a list of fixed-size
// pooled chunks, filled in order. Appending writes into the last chunk or
// takes a fresh one, so a recorded event never moves: unlike one growing
// slice, the log never copies what it already holds and carries no growth
// slack beyond its last chunk. The zero value is an empty log.
type eventLog struct {
	dir *chunkDir // nil until the first event
	// cur is the last chunk, at full length; tail counts its recorded
	// events, so tail == len(cur) means a fresh chunk is due.
	cur  []serve.Event
	tail int
	// flat caches Events' flattened copy of a multi-chunk log; it is
	// extended, not rebuilt, when events arrive after it was taken.
	flat []serve.Event
}

func (l *eventLog) append(ev serve.Event) {
	if l.tail == len(l.cur) {
		l.grow()
	}
	l.cur[l.tail] = ev
	l.tail++
}

// grow starts a fresh chunk.
func (l *eventLog) grow() {
	if l.dir == nil {
		l.dir = dirPool.Get().(*chunkDir)
	}
	c := chunkPool.Get().(*eventChunk)
	l.dir.chunks = append(l.dir.chunks, c)
	l.cur, l.tail = c[:], 0
}

// nchunks is the number of chunks the log spans.
func (l *eventLog) nchunks() int {
	if l.dir == nil {
		return 0
	}
	return len(l.dir.chunks)
}

// len is the number of recorded events.
func (l *eventLog) len() int {
	n := l.nchunks()
	if n == 0 {
		return 0
	}
	return (n-1)*chunkEvents + l.tail
}

// segment returns chunk i's recorded events in place (shared; do not
// mutate).
func (l *eventLog) segment(i int) []serve.Event {
	if i == len(l.dir.chunks)-1 {
		return l.cur[:l.tail:l.tail]
	}
	return l.dir.chunks[i][:]
}

// events returns the stream as one slice: a one-chunk log in place, a
// longer one as a flattened copy made once and extended by later events.
func (l *eventLog) events() []serve.Event {
	switch l.nchunks() {
	case 0:
		return nil
	case 1:
		return l.segment(0)
	}
	total := l.len()
	if l.flat == nil {
		l.flat = make([]serve.Event, 0, total)
	}
	for n := len(l.flat); n < total; n = len(l.flat) {
		l.flat = append(l.flat, l.segment(n / chunkEvents)[n%chunkEvents:]...)
	}
	return l.flat
}

// release returns the chunks and the directory to their pools and empties
// the log.
func (l *eventLog) release() {
	if l.dir != nil {
		for _, c := range l.dir.chunks {
			chunkPool.Put(c)
		}
		clear(l.dir.chunks)
		l.dir.chunks = l.dir.chunks[:0]
		dirPool.Put(l.dir)
	}
	*l = eventLog{}
}
