package cllm

import (
	"cllm/internal/obs"
	"cllm/internal/serve"
)

// ServeObservation carries a run's rendered observability artifacts,
// attached to a report when observation is enabled. All three artifacts
// are timestamped from the deterministic sim clock — identical runs (any
// worker count) serialize byte-identically.
type ServeObservation struct {
	// Events is the number of lifecycle events recorded; Windows the
	// number of merged fleet-wide time-series windows.
	Events, Windows int
	// TraceJSON is a Chrome trace-event timeline (load in Perfetto or
	// chrome://tracing): one process per replica, one track per request,
	// spans for the queued/preempted/prefill/decode phases and instants
	// for preemptions, swap transfers and drops.
	TraceJSON []byte
	// PrometheusText is a Prometheus text-exposition (0.0.4) snapshot of
	// the run's aggregate counters, gauges and latency summaries.
	PrometheusText []byte
	// TimeseriesCSV is the merged windowed time series (queue depth,
	// running batch, KV/swap occupancy, prefix hit rate, token rates).
	TimeseriesCSV []byte
}

// buildObservation renders the recorder's stream against the run's
// aggregate report, each artifact once. With an attribution engine
// attached, the trace gains the phase/tax counter tracks and the
// Prometheus snapshot the per-phase histogram families.
func buildObservation(rec *obs.Recorder, attrib *obs.Attribution, rep *serve.Report) *ServeObservation {
	o := &ServeObservation{
		Events:         rec.Len(),
		Windows:        len(rec.Series().Merged()),
		TraceJSON:      rec.PerfettoTraceWithCounters(attrib),
		PrometheusText: obs.PrometheusText(rep),
		TimeseriesCSV:  rec.TimeseriesCSV(),
	}
	if attrib != nil {
		o.PrometheusText = append(o.PrometheusText, attrib.PrometheusText(rep.Platform)...)
	}
	return o
}
