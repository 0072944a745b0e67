package serve

// admitRecorder is the FIFO admission audit trail for scheduling-invariant
// tests: it records each request's first EvAdmit, in order, and forwards
// every event and sample to next.
type admitRecorder struct {
	next  Observer
	seen  map[int]bool
	order []int
}

func (a *admitRecorder) Event(ev Event) {
	if ev.Kind == EvAdmit && !a.seen[ev.ReqID] {
		a.seen[ev.ReqID] = true
		a.order = append(a.order, ev.ReqID)
	}
	if a.next != nil {
		a.next.Event(ev)
	}
}

func (a *admitRecorder) Sample(smp Sample) {
	if a.next != nil {
		a.next.Sample(smp)
	}
}

// runAudited is Run plus the request IDs in first-admission order.
// Observed runs are bit-identical to bare ones, so the report is Run's.
func runAudited(be Backend, cfg Config) (*Report, []int, error) {
	rec := &admitRecorder{next: cfg.Observer, seen: map[int]bool{}}
	cfg.Observer = rec
	rep, err := Run(be, cfg)
	return rep, rec.order, err
}
