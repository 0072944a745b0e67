package serve

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"cllm/internal/tee"
)

// traceRecord is the byte length of one fuzzed trace request: an
// arrival time as raw float64 bits, then ID, lengths, prefix and class.
const traceRecord = 14

// fuzzTrace decodes data into a run config: the first byte picks the
// admission policy, each following traceRecord bytes one request of at
// most 16. The tiny model's 2048-token context is within reach of the
// lengths, so over-long requests occur; prefix lengths may exceed the
// prompt, IDs repeat and arrivals are any float64.
func fuzzTrace(data []byte) Config {
	cfg := tinyConfig(0, 0)
	cfg.MaxBatch = 4
	if len(data) == 0 {
		return cfg
	}
	cfg.Faults.Admission = AdmissionPolicy(data[0] % 3)
	for b := data[1:]; len(b) >= traceRecord && len(cfg.Trace) < 16; b = b[traceRecord:] {
		cfg.Trace = append(cfg.Trace, Request{
			ArrivalSec: math.Float64frombits(binary.LittleEndian.Uint64(b)),
			ID:         int(int8(b[8])),
			InputLen:   int(b[9]) * 8,
			OutputLen:  int(b[10]),
			PrefixID:   int(b[11] % 4),
			PrefixLen:  int(b[12]) * 8,
			Class:      RequestClass(b[13] % 4),
		})
	}
	return cfg
}

// encodeTrace is fuzzTrace's inverse for the seed corpus.
func encodeTrace(admission AdmissionPolicy, trace ...Request) []byte {
	out := []byte{byte(admission)}
	for _, r := range trace {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(r.ArrivalSec))
		out = append(out, byte(int8(r.ID)), byte(r.InputLen/8), byte(r.OutputLen),
			byte(r.PrefixID), byte(r.PrefixLen/8), byte(r.Class))
	}
	return out
}

// FuzzServeTrace feeds each explicit trace to Run in exact mode and in
// sketch mode with epochs of four requests.
// Validate must reject exactly what Run rejects, with the same error;
// every rejection must name the Trace field, the only one the fuzzer
// varies beyond valid settings; and an accepted trace's requests must
// all be accounted for as completed, dropped or unfinished, over a finite
// makespan with a finite mean TTFT.
func FuzzServeTrace(f *testing.F) {
	req := func(id int, at float64) Request {
		return Request{ID: id, ArrivalSec: at, InputLen: 64, OutputLen: 8}
	}
	chat := Request{ID: 3, ArrivalSec: 0.02, InputLen: 256, OutputLen: 16, PrefixID: 1, PrefixLen: 128, Class: ClassInteractive}
	for _, admission := range []AdmissionPolicy{AdmitFIFO, AdmitDeadline, AdmitShed} {
		for _, trace := range [][]Request{
			{req(0, 0), req(1, 0.01), req(2, 0.01), chat},
			{req(0, 0.5), req(1, 0.1)},     // unsorted
			{req(0, 0), req(0, 0.1)},       // duplicate ID
			{req(-3, 0), req(-1, 0.1)},     // negative IDs
			{req(0, -1)},                   // negative arrival
			{req(0, math.Copysign(0, -1))}, // −0 arrival
			{req(0, math.NaN())},           // the mutator makes no NaN or ±Inf
			{req(0, 0), req(1, math.Inf(1))},
			{req(0, math.Inf(-1))},
			{{ID: 0, InputLen: 2040, OutputLen: 255}}, // beyond the context
			{{ID: 0, InputLen: 64, OutputLen: 8, PrefixID: 2, PrefixLen: 72}},
			{{ID: 0, InputLen: 64, OutputLen: 0}},
			{{ID: 0, InputLen: 64, OutputLen: 8, Class: 3}},
		} {
			f.Add(encodeTrace(admission, trace...))
		}
	}
	be := cpuBackend(tee.TDX())
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := fuzzTrace(data)
		if len(cfg.Trace) == 0 {
			return
		}
		finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
		for _, mode := range []QuantileMode{QuantileExact, QuantileSketch} {
			cfg.QuantileMode = mode
			if mode == QuantileSketch {
				cfg.EpochRequests = 4
			}
			verr := cfg.Validate()
			rep, rerr := Run(be, cfg)
			if (verr == nil) != (rerr == nil) || (verr != nil && verr.Error() != rerr.Error()) {
				t.Fatalf("%s: Validate = %v, Run = %v for trace %+v", mode, verr, rerr, cfg.Trace)
			}
			if verr != nil {
				var ce *ConfigError
				if !errors.As(verr, &ce) || ce.Field != "Trace" {
					t.Fatalf("%s: rejection %v does not name the Trace field (trace %+v)", mode, verr, cfg.Trace)
				}
				continue
			}
			if n := rep.Completed + rep.Dropped + rep.Unfinished; n != len(cfg.Trace) {
				t.Fatalf("%s: %d completed + %d dropped + %d unfinished != %d requests (trace %+v)",
					mode, rep.Completed, rep.Dropped, rep.Unfinished, len(cfg.Trace), cfg.Trace)
			}
			if !finite(rep.MakespanSec) || !finite(rep.TTFT.Mean) {
				t.Fatalf("%s: makespan %g, mean TTFT %g from trace %+v", mode, rep.MakespanSec, rep.TTFT.Mean, cfg.Trace)
			}
		}
	})
}
