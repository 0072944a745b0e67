// Package harness is the experiment registry of the reproduction: one
// runnable experiment per paper table and figure. Each experiment produces
// the same rows/series the paper reports, alongside the paper's published
// values and a set of shape checks (orderings, bands, crossovers) that
// assert the reproduction preserves the paper's findings.
package harness

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Options tunes experiment execution.
type Options struct {
	// Seed drives all noise models.
	Seed int64
	// Quick shrinks output-token counts for fast CI runs.
	Quick bool
	// Workers bounds how many of an experiment's independent simulation
	// runs (its sweep cells: the platforms of a figure, rate grids,
	// policy sweeps) run at once. Every run is independently seeded and
	// results are merged in cell order, so any worker count renders the
	// identical Result — the harness test asserts serial/parallel
	// equality for every experiment. Default (<= 1) runs everything on
	// the caller's goroutine.
	Workers int
}

// tokens returns the output length to simulate: the paper measures ≥1000
// output tokens; Quick runs use fewer.
func (o Options) tokens(full int) int {
	if o.Quick && full > 24 {
		return 24
	}
	return full
}

// Check is one shape assertion against the paper.
type Check struct {
	Name   string
	Pass   bool
	Detail string
}

// Result is a completed experiment: a formatted table plus checks.
type Result struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Checks []Check
	Notes  []string
}

// Passed reports whether every shape check held.
func (r *Result) Passed() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// Render formats the result as an aligned text table.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Header)
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	for _, c := range r.Checks {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "check [%s] %s: %s\n", status, c.Name, c.Detail)
	}
	return b.String()
}

// CSV renders the result's table as RFC-4180 CSV: one header line followed
// by the data rows, every record padded to the header's width so strict
// readers (uniform FieldsPerRecord) always accept the output. Checks and
// notes are not part of the tabular schema — machine consumers wanting
// them should use JSON. The column schema per tool is documented in
// docs/serving-model.md.
func (r *Result) CSV() string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	_ = w.Write(r.Header)
	for _, row := range r.Rows {
		if len(row) < len(r.Header) {
			padded := make([]string, len(r.Header))
			copy(padded, row)
			row = padded
		}
		_ = w.Write(row)
	}
	w.Flush()
	return b.String()
}

// JSON renders the full result — metadata, rows keyed by header name,
// shape checks and notes — as an indented JSON document (schema in
// docs/serving-model.md). Rows shorter than the header are padded with
// empty strings.
func (r *Result) JSON() (string, error) {
	type check struct {
		Name   string `json:"name"`
		Pass   bool   `json:"pass"`
		Detail string `json:"detail"`
	}
	rows := make([]map[string]string, len(r.Rows))
	for i, row := range r.Rows {
		m := make(map[string]string, len(r.Header))
		for j, h := range r.Header {
			if j < len(row) {
				m[h] = row[j]
			} else {
				m[h] = ""
			}
		}
		rows[i] = m
	}
	checks := make([]check, len(r.Checks))
	for i, c := range r.Checks {
		checks[i] = check{Name: c.Name, Pass: c.Pass, Detail: c.Detail}
	}
	doc := struct {
		ID     string              `json:"id"`
		Title  string              `json:"title"`
		Header []string            `json:"header"`
		Rows   []map[string]string `json:"rows"`
		Checks []check             `json:"checks,omitempty"`
		Notes  []string            `json:"notes,omitempty"`
	}{r.ID, r.Title, r.Header, rows, checks, r.Notes}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}

// Experiment is a registered paper artifact.
type Experiment struct {
	ID    string
	Title string
	// Paper describes what the paper reports for this artifact.
	Paper string
	Run   func(Options) (*Result, error)
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("harness: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// All returns every experiment sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		ids := make([]string, 0, len(registry))
		for k := range registry {
			ids = append(ids, k)
		}
		sort.Strings(ids)
		return Experiment{}, fmt.Errorf("harness: unknown experiment %q (have %v)", id, ids)
	}
	return e, nil
}

// band checks a value against an expected range.
func band(name string, v, lo, hi float64) Check {
	return Check{
		Name:   name,
		Pass:   v >= lo && v <= hi,
		Detail: fmt.Sprintf("measured %.2f, paper band [%.2f, %.2f]", v, lo, hi),
	}
}

// ordering checks a strict descending chain.
func ordering(name string, labels []string, vals []float64) Check {
	pass := true
	for i := 1; i < len(vals); i++ {
		if vals[i] >= vals[i-1] {
			pass = false
		}
	}
	parts := make([]string, len(vals))
	for i := range vals {
		parts[i] = fmt.Sprintf("%s=%.3g", labels[i], vals[i])
	}
	return Check{Name: name, Pass: pass, Detail: strings.Join(parts, " > ")}
}

func pct(v float64) string { return fmt.Sprintf("%.2f%%", v) }
