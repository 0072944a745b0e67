package obs

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"cllm/internal/serve"
)

// record is one event in compact form, 32 B against serve.Event's 128 B.
// The ints are narrowed to int32 and the enums to a byte; of the eight
// float fields only the nonzero ones are kept, in the log's float stream,
// and mask says which (bit i: floatFields' field i). An event that does
// not narrow is kept whole in the log's escape slice: its record carries
// flagEscape, its kind, and the escape's index in reqID.
type record struct {
	timeSec                      float64
	reqID, tokens, hist, replica int32
	kind, policy, reason, drop   uint8
	flags, mask                  uint8
}

const (
	flagSLOMet = 1 << iota
	flagEscape
)

// floatFields is the number of float fields a record may carry, in
// serve.Event field order: Bytes, XferSec, PrefillSec, DecodeSec, SwapSec,
// ClearPrefillSec, ClearDecodeSec, ClearSwapSec.
const floatFields = 8

// chunkRecords is the record capacity of one log chunk (128 KiB), and
// pageFloats the float capacity of one float page (64 KiB). Appending
// costs the same from 1024 to 16384 records per chunk (zeroing fresh
// memory dominates), so the sizes trade the allocation count, one per
// chunk or page (~170 chunks and ~140 pages for a 690k-event run),
// against the log's only slack, the unfilled tails of its last chunk and
// last page (under 1% of such a run).
const (
	chunkRecords = 4096
	pageFloats   = 8192
)

type (
	recordChunk [chunkRecords]record
	floatPage   [pageFloats]float64
)

// logDir is a log's directory: its record chunks, its float pages and its
// escaped events. It is pooled whole (slices and backing arrays) so a
// warmed run allocates nothing for it.
type logDir struct {
	chunks  []*recordChunk
	pages   []*floatPage
	escapes []serve.Event
}

// Every chunk and every page is the same size, so one pool of each serves
// all recorders; recycled recorders hand back their chunks, pages and
// directory for the next run (sync.Pool sheds them under GC pressure).
var (
	chunkPool = sync.Pool{New: func() any { return new(recordChunk) }}
	pagePool  = sync.Pool{New: func() any { return new(floatPage) }}
	dirPool   = sync.Pool{New: func() any { return new(logDir) }}
)

// eventLog is an append-only event stream stored as compact records in
// fixed-size pooled chunks, beside a float stream in fixed-size pooled
// pages, both filled in order. Appending writes into the last chunk and
// page or takes fresh ones, so nothing recorded ever moves or is copied,
// and the log carries no growth slack beyond its last chunk and page. It
// is lossless: reading a record back gives the appended event bit for bit.
// The zero value is an empty log.
type eventLog struct {
	dir *logDir // nil until the first event
	// cur is the last chunk, at full length; tail counts its records, so
	// tail == len(cur) means a fresh chunk is due. fcur and ftail are the
	// same for the last float page.
	cur   []record
	tail  int
	fcur  []float64
	ftail int
	// flat caches Events' decoded copy; it is extended, not rebuilt, when
	// events arrive after it was taken, from float index flatFl on.
	flat   []serve.Event
	flatFl int
}

func (l *eventLog) append(ev *serve.Event) {
	if l.tail == len(l.cur) {
		l.grow()
	}
	r := &l.cur[l.tail]
	l.tail++
	if !narrows(ev) {
		*r = record{kind: uint8(ev.Kind), flags: flagEscape, reqID: int32(uint32(len(l.dir.escapes)))}
		l.dir.escapes = append(l.dir.escapes, *ev)
		return
	}
	var flags, mask uint8
	if ev.SLOMet {
		flags = flagSLOMet
	}
	for i, v := range [floatFields]float64{
		ev.Bytes, ev.XferSec, ev.PrefillSec, ev.DecodeSec, ev.SwapSec,
		ev.ClearPrefillSec, ev.ClearDecodeSec, ev.ClearSwapSec,
	} {
		// The bit test, not v != 0, keeps -0 and every NaN payload.
		if math.Float64bits(v) != 0 {
			mask |= 1 << i
			l.putFloat(v)
		}
	}
	*r = record{
		timeSec: ev.TimeSec,
		reqID:   int32(ev.ReqID), tokens: int32(ev.Tokens), hist: int32(ev.Hist), replica: int32(ev.Replica),
		kind: uint8(ev.Kind), policy: uint8(ev.Policy), reason: uint8(ev.Reason), drop: uint8(ev.Drop),
		flags: flags, mask: mask,
	}
}

// narrows reports whether ev's ints fit int32 and its Policy a byte.
func narrows(ev *serve.Event) bool {
	return int(int32(ev.ReqID)) == ev.ReqID && int(int32(ev.Tokens)) == ev.Tokens &&
		int(int32(ev.Hist)) == ev.Hist && int(int32(ev.Replica)) == ev.Replica &&
		serve.PreemptPolicy(uint8(ev.Policy)) == ev.Policy
}

func (l *eventLog) putFloat(v float64) {
	if l.ftail == len(l.fcur) {
		p := pagePool.Get().(*floatPage)
		l.dir.pages = append(l.dir.pages, p)
		l.fcur, l.ftail = p[:], 0
	}
	l.fcur[l.ftail] = v
	l.ftail++
}

// grow starts a fresh chunk.
func (l *eventLog) grow() {
	if l.dir == nil {
		l.dir = dirPool.Get().(*logDir)
	}
	c := chunkPool.Get().(*recordChunk)
	l.dir.chunks = append(l.dir.chunks, c)
	l.cur, l.tail = c[:], 0
}

// len is the number of recorded events.
func (l *eventLog) len() int {
	if l.dir == nil {
		return 0
	}
	return (len(l.dir.chunks)-1)*chunkRecords + l.tail
}

// countKind counts the records of kind k, reading each kind byte in place.
func (l *eventLog) countKind(k serve.EventKind) int {
	n := 0
	for i := range l.len() {
		if serve.EventKind(l.dir.chunks[i/chunkRecords][i%chunkRecords].kind) == k {
			n++
		}
	}
	return n
}

// cursor walks a log in order, decoding one record per next call; walk
// starts one at the first event. rec and fl are the next record's index
// and its first float's index in the float stream.
type cursor struct {
	d       *logDir
	rec, fl int
	n       int // the log's length when the walk began
}

func (l *eventLog) walk() cursor { return cursor{d: l.dir, n: l.len()} }

// next decodes the next event into ev and reports whether there was one.
func (c *cursor) next(ev *serve.Event) bool {
	if c.rec == c.n {
		return false
	}
	d := c.d
	r := &d.chunks[c.rec/chunkRecords][c.rec%chunkRecords]
	c.rec++
	if r.flags&flagEscape != 0 {
		*ev = d.escapes[uint32(r.reqID)]
		return true
	}
	*ev = serve.Event{
		TimeSec: r.timeSec,
		Kind:    serve.EventKind(r.kind),
		Replica: int(r.replica), ReqID: int(r.reqID), Tokens: int(r.tokens), Hist: int(r.hist),
		Policy: serve.PreemptPolicy(r.policy), Reason: serve.PreemptReason(r.reason), Drop: serve.DropReason(r.drop),
		SLOMet: r.flags&flagSLOMet != 0,
	}
	if m := r.mask; m != 0 {
		fields := [floatFields]*float64{
			&ev.Bytes, &ev.XferSec, &ev.PrefillSec, &ev.DecodeSec, &ev.SwapSec,
			&ev.ClearPrefillSec, &ev.ClearDecodeSec, &ev.ClearSwapSec,
		}
		for ; m != 0; m &= m - 1 {
			*fields[bits.TrailingZeros8(m)] = d.pages[c.fl/pageFloats][c.fl%pageFloats]
			c.fl++
		}
	}
	return true
}

// events returns the stream decoded into a private slice, made once and
// extended by later events. The result's capacity is its length, so a
// caller's append cannot reach the cache's spare room.
func (l *eventLog) events() []serve.Event {
	n := l.len()
	if n == 0 {
		return nil
	}
	from := len(l.flat)
	// Growing past the capacity moves the copy to a fresh array, so an
	// earlier result keeps its events either way.
	l.flat = slices.Grow(l.flat, n-from)[:n]
	c := cursor{d: l.dir, rec: from, fl: l.flatFl, n: n}
	for i := from; i < n; i++ {
		c.next(&l.flat[i])
	}
	l.flatFl = c.fl
	return l.flat[:n:n]
}

// release returns the chunks, the pages and the directory to their pools
// and empties the log.
func (l *eventLog) release() {
	if d := l.dir; d != nil {
		for _, c := range d.chunks {
			chunkPool.Put(c)
		}
		for _, p := range d.pages {
			pagePool.Put(p)
		}
		clear(d.chunks)
		clear(d.pages)
		d.chunks, d.pages, d.escapes = d.chunks[:0], d.pages[:0], d.escapes[:0]
		dirPool.Put(d)
	}
	*l = eventLog{}
}
