package cllm

import (
	"io"

	"cllm/internal/obs"
	"cllm/internal/serve"
)

// ServeObservation is an observed run, attached to its report: the
// recorder, the attribution engine when attribution was on, and the
// report. Each artifact is rendered from the deterministic sim clock when
// written, so identical runs (any worker count) write identical bytes.
type ServeObservation struct {
	// Events is the number of lifecycle events recorded; Windows the
	// number of merged fleet-wide time-series windows.
	Events, Windows int

	rec    *obs.Recorder
	attrib *obs.Attribution
	rep    *serve.Report
}

// attach hangs the run's attribution and observation on out.
func (out *ServeReport) attach(rec *obs.Recorder, attrib *obs.Attribution) {
	if attrib != nil {
		out.Attrib = attrib.Report(out.Platform)
	}
	if rec != nil {
		out.Observation = &ServeObservation{Events: rec.Len(), Windows: len(rec.Series().Merged()),
			rec: rec, attrib: attrib, rep: &out.Report}
	}
}

// WriteTrace writes a Chrome trace-event timeline (load in Perfetto or
// chrome://tracing): one process per replica, one track per request,
// phase spans and event instants, plus the phase and tax counter tracks
// when attributed.
func (o *ServeObservation) WriteTrace(w io.Writer) error {
	_, err := w.Write(o.rec.PerfettoTraceWithCounters(o.attrib))
	return err
}

// WritePrometheus writes a Prometheus text-exposition (0.0.4) snapshot of
// the report, plus the phase histogram families when attributed.
func (o *ServeObservation) WritePrometheus(w io.Writer) error {
	text := obs.PrometheusText(o.rep)
	if o.attrib != nil {
		text = append(text, o.attrib.PrometheusText(o.rep.Platform)...)
	}
	_, err := w.Write(text)
	return err
}

// WriteTimeseries writes the merged windowed time series as CSV (queue
// depth, running batch, KV/swap occupancy, prefix hit rate, token rates).
func (o *ServeObservation) WriteTimeseries(w io.Writer) error {
	_, err := w.Write(o.rec.TimeseriesCSV())
	return err
}

// Release returns the recorder's memory to its pools. Call it once, after
// the last write; an observation never released is garbage-collected.
func (o *ServeObservation) Release() {
	o.rec.Recycle()
	o.rec = nil
}
