package harness

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "table1", "othermodels", "snc",
		"sev", "b100", "scaleout", "hybrid", "spr", "ablation", "serving",
		"chunked", "prefix", "fleet", "hetero", "autoscale", "preempt", "obs",
		"attrib", "overload", "disagg",
	}
	for _, id := range want {
		if _, err := Lookup(id); err != nil {
			t.Errorf("experiment %s not registered: %v", id, err)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
	if _, err := Lookup("fig99"); err == nil {
		t.Error("unknown experiment resolved")
	}
}

func TestAllExperimentsPassShapeChecks(t *testing.T) {
	// Every paper artifact must run and reproduce the paper's shape.
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res, err := e.Run(Options{Seed: 1, Quick: true})
			if err != nil {
				t.Fatalf("%s failed to run: %v", e.ID, err)
			}
			if len(res.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			for _, c := range res.Checks {
				if !c.Pass {
					t.Errorf("%s shape check failed: %s (%s)", e.ID, c.Name, c.Detail)
				}
			}
			out := res.Render()
			if !strings.Contains(out, res.ID) {
				t.Error("render missing experiment ID")
			}
		})
	}
}

func TestResultRender(t *testing.T) {
	r := &Result{
		ID: "x", Title: "demo", Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}},
		Checks: []Check{{Name: "c", Pass: true, Detail: "d"}},
		Notes:  []string{"n"},
	}
	out := r.Render()
	for _, want := range []string{"demo", "bb", "PASS", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if !r.Passed() {
		t.Error("Passed() = false with all-pass checks")
	}
	r.Checks = append(r.Checks, Check{Name: "f", Pass: false})
	if r.Passed() {
		t.Error("Passed() = true with a failing check")
	}
}

func TestChecksHelpers(t *testing.T) {
	if c := band("b", 5, 1, 10); !c.Pass {
		t.Error("band inside range failed")
	}
	if c := band("b", 11, 1, 10); c.Pass {
		t.Error("band outside range passed")
	}
	if c := ordering("o", []string{"a", "b"}, []float64{2, 1}); !c.Pass {
		t.Error("descending ordering failed")
	}
	if c := ordering("o", []string{"a", "b"}, []float64{1, 2}); c.Pass {
		t.Error("ascending ordering passed")
	}
}

// TestSweepExperimentsParallelMatchSerial: every experiment's independent
// runs go through sweep, so each must render the identical Result at
// workers=1 and workers=4 — rows, checks and notes byte for byte.
func TestSweepExperimentsParallelMatchSerial(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			serial, err := e.Run(Options{Seed: 1, Quick: true, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := e.Run(Options{Seed: 1, Quick: true, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Fatalf("parallel run differs from serial:\nserial:\n%s\nparallel:\n%s",
					serial.Render(), parallel.Render())
			}
		})
	}
}

// TestSweepCellOrder: sweep returns results in cell order and the
// lowest-index error, whatever the worker count.
func TestSweepCellOrder(t *testing.T) {
	for _, w := range []int{1, 4} {
		got, err := sweep(Options{Workers: w}, 5, func(i int) (int, error) { return i * i, nil })
		if err != nil || !reflect.DeepEqual(got, []int{0, 1, 4, 9, 16}) {
			t.Fatalf("workers=%d: got %v, %v", w, got, err)
		}
		_, err = sweep(Options{Workers: w}, 5, func(i int) (int, error) {
			if i >= 2 {
				return 0, fmt.Errorf("cell %d", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "cell 2" {
			t.Fatalf("workers=%d: got error %v, want cell 2", w, err)
		}
	}
}

// TestResultFormatsRoundTrip: the csv|json machine formats must carry the
// full table losslessly — every header and cell survives a parse round
// trip, including cells with commas, quotes and unicode, and rows shorter
// than the header are padded (JSON) rather than dropped.
func TestResultFormatsRoundTrip(t *testing.T) {
	r := &Result{
		ID:     "rt",
		Title:  "round trip",
		Header: []string{"plain", "comma,cell", "quote\"cell", "unicode"},
		Rows: [][]string{
			{"a", "x,y", `say "hi"`, "µ±∞"},
			{"b", "", "-", "swaps 3/4"},
			{"short"},
		},
		Checks: []Check{{Name: "c", Pass: true, Detail: "d"}},
		Notes:  []string{"note,with,commas"},
	}

	rows, err := csv.NewReader(strings.NewReader(r.CSV())).ReadAll()
	if err != nil {
		t.Fatalf("CSV output does not re-parse: %v", err)
	}
	// encoding/csv enforces uniform field counts; the short row must have
	// been emitted ragged-free or the reader rejects it. ReadAll with
	// FieldsPerRecord defaulting to the first record's length already
	// asserted uniformity above for all full-width rows.
	if !reflect.DeepEqual(rows[0], r.Header) {
		t.Fatalf("CSV header round trip: got %q", rows[0])
	}
	for i, want := range r.Rows[:2] {
		if !reflect.DeepEqual(rows[i+1], want) {
			t.Fatalf("CSV row %d round trip: got %q want %q", i, rows[i+1], want)
		}
	}

	out, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		ID     string              `json:"id"`
		Header []string            `json:"header"`
		Rows   []map[string]string `json:"rows"`
		Checks []struct {
			Name string `json:"name"`
			Pass bool   `json:"pass"`
		} `json:"checks"`
		Notes []string `json:"notes"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("JSON output does not re-parse: %v", err)
	}
	if doc.ID != "rt" || !reflect.DeepEqual(doc.Header, r.Header) {
		t.Fatalf("JSON metadata round trip: %+v", doc)
	}
	if len(doc.Rows) != len(r.Rows) {
		t.Fatalf("JSON dropped rows: %d vs %d", len(doc.Rows), len(r.Rows))
	}
	for i, row := range r.Rows {
		for j, h := range r.Header {
			want := ""
			if j < len(row) {
				want = row[j]
			}
			if got := doc.Rows[i][h]; got != want {
				t.Fatalf("JSON row %d %q = %q, want %q", i, h, got, want)
			}
		}
	}
	if len(doc.Checks) != 1 || !doc.Checks[0].Pass || len(doc.Notes) != 1 {
		t.Fatalf("JSON checks/notes round trip: %+v", doc)
	}
}

// TestOverloadAdmissionColumn: the overload table's admission cell names
// the policy each row actually ran — the shed row sheds requests, so it
// must not read "fifo".
func TestOverloadAdmissionColumn(t *testing.T) {
	e, err := Lookup("overload")
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(Options{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	col := -1
	for i, h := range res.Header {
		if h == "admission" {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("no admission column in %q", res.Header)
	}
	for _, row := range res.Rows {
		if row[0] == "burst+crash shed" {
			if row[col] != "shed" {
				t.Fatalf("burst+crash shed row admission = %q, want shed", row[col])
			}
			return
		}
	}
	t.Fatal("no burst+crash shed row")
}
