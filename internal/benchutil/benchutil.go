// Package benchutil implements the experiment harness behind every table
// and figure of the paper's §5 evaluation. Each experiment function
// produces a printable result (a numeric Series table for the performance
// figures, a string tgql.Table for the dataset statistics and qualitative
// figures), and is shared by the gtbench command and the root-level
// testing.B benchmarks.
package benchutil

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/tgql"
)

// Printable is implemented by Experiment and tgql.Table: render as an
// aligned text block (WriteJSON renders either as one JSON object).
type Printable interface {
	Print(w io.Writer)
}

// Experiment is a numeric result: one row per x-axis point, one column per
// series (typically seconds or speedup factors).
type Experiment struct {
	ID     string
	Title  string
	XLabel string
	Series []string
	Rows   []ExpRow
}

// ExpRow is one x-axis point of an Experiment.
type ExpRow struct {
	X      string
	Values []float64
}

// Add appends a row.
func (e *Experiment) Add(x string, values ...float64) {
	if len(values) != len(e.Series) {
		panic(fmt.Sprintf("benchutil: row %q has %d values, want %d", x, len(values), len(e.Series)))
	}
	e.Rows = append(e.Rows, ExpRow{X: x, Values: values})
}

// Print renders the experiment as an aligned text table.
func (e *Experiment) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", e.ID, e.Title)
	widths := make([]int, len(e.Series)+1)
	widths[0] = len(e.XLabel)
	for _, r := range e.Rows {
		if len(r.X) > widths[0] {
			widths[0] = len(r.X)
		}
	}
	cells := make([][]string, len(e.Rows))
	for i, r := range e.Rows {
		cells[i] = make([]string, len(r.Values))
		for j, v := range r.Values {
			cells[i][j] = formatValue(e.Series[j], v)
		}
	}
	for j, s := range e.Series {
		widths[j+1] = len(s)
		for i := range cells {
			if len(cells[i][j]) > widths[j+1] {
				widths[j+1] = len(cells[i][j])
			}
		}
	}
	fmt.Fprintf(w, "%-*s", widths[0], e.XLabel)
	for j, s := range e.Series {
		fmt.Fprintf(w, "  %*s", widths[j+1], s)
	}
	fmt.Fprintln(w)
	for i, r := range e.Rows {
		fmt.Fprintf(w, "%-*s", widths[0], r.X)
		for j := range r.Values {
			fmt.Fprintf(w, "  %*s", widths[j+1], cells[i][j])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// formatValue renders a value of the named series compactly. The unit
// (seconds or ×) is implied by the series name; a work count — the
// entities a scan holds, the groups an aggregate has — prints as the
// integer it is.
func formatValue(series string, v float64) string {
	switch {
	case series == "entities" || strings.HasSuffix(series, "groups"):
		return strconv.FormatFloat(v, 'f', 0, 64)
	case v == 0:
		return "0"
	case v < 0.0001:
		return fmt.Sprintf("%.2g", v)
	case v < 1:
		return fmt.Sprintf("%.4f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// RunMeta describes the environment a JSON run executed in. When set via
// SetRunMeta, every WriteJSON result line carries it, so archived outputs
// remain self-describing when lines are split apart or concatenated
// across machines and runs.
type RunMeta struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Timestamp  string  `json:"timestamp"` // RFC 3339, UTC
	Git        string  `json:"git,omitempty"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
}

var runMeta *RunMeta

// SetRunMeta attaches m to every subsequent WriteJSON line; nil detaches.
func SetRunMeta(m *RunMeta) { runMeta = m }

// WriteJSON renders an Experiment or a Table as one JSON object (followed
// by a newline, so concatenated results form a JSON-lines stream), kind
// "experiment" or "table", with the run meta when SetRunMeta set one.
func WriteJSON(w io.Writer, p Printable) error {
	type meta struct {
		Kind string   `json:"kind"`
		Meta *RunMeta `json:"meta,omitempty"`
	}
	var v any
	switch p := p.(type) {
	case *Experiment:
		v = struct {
			meta
			*Experiment
		}{meta{"experiment", runMeta}, p}
	case *tgql.Table:
		v = struct {
			meta
			*tgql.Table
		}{meta{"table", runMeta}, p}
	default:
		return fmt.Errorf("benchutil: cannot render %T as JSON", p)
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}

// timed measures fn in seconds: the minimum over a few runs, repeating
// while the total stays under a small budget so very short operations get
// a stable reading without inflating the harness runtime.
func timed(fn func()) float64 {
	const (
		maxRuns   = 5
		budgetSec = 0.25
	)
	best := -1.0
	total := 0.0
	for run := 0; run < maxRuns; run++ {
		start := time.Now()
		fn()
		d := time.Since(start).Seconds()
		total += d
		if best < 0 || d < best {
			best = d
		}
		if total >= budgetSec {
			break
		}
	}
	return best
}
