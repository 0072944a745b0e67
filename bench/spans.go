package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call the benchmark made, on the host clock.
type span struct {
	name       string
	start, end time.Duration // offsets from the tracer's origin
	parent     int           // index of the enclosing span, -1 at top level
	args       map[string]string
}

// tracer keeps the traced rep's spans in memory; write exports them at
// exit.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.origin), parent: parent})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	t.spans[id].end = time.Since(t.origin)
	t.open = t.open[:len(t.open)-1]
}

// add records a closed span [from, to) under parent.
func (t *tracer) add(name string, from, to time.Time, parent int) {
	t.spans = append(t.spans, span{name: name, start: from.Sub(t.origin), end: to.Sub(t.origin), parent: parent})
}

// write exports the spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto): one complete event per span on a single track, so nesting
// follows from the intervals.
func (t *tracer) write(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	w := bufio.NewWriter(f)
	if _, err := w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		ev := event{Name: s.name, Cat: "bench", Ph: "X", Pid: 1, Tid: 1,
			Ts: float64(s.start.Nanoseconds()) / 1e3, Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: s.args}
		if s.parent >= 0 {
			ev.Args = map[string]string{"parent": t.spans[s.parent].name}
			for k, v := range s.args {
				ev.Args[k] = v
			}
		}
		if i > 0 {
			if err := w.WriteByte(','); err != nil {
				return err
			}
		}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	if _, err := w.WriteString("]}\n"); err != nil {
		return err
	}
	return w.Flush()
}
