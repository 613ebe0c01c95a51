package tgql

import (
	"fmt"
	"io"
	"strings"
)

// Table is a string-valued result: the rendering of STATS, TIMELINE,
// COARSEN, EVENTS, PATHS and TREND answers, and of the evaluation harness's
// dataset statistics and qualitative figures.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) {
	if len(cells) != len(t.Header) {
		panic(fmt.Sprintf("tgql: row has %d cells, want %d", len(cells), len(t.Header)))
	}
	t.Rows = append(t.Rows, cells)
}

// Print renders the table aligned.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for j, h := range t.Header {
		widths[j] = len(h)
	}
	for _, r := range t.Rows {
		for j, c := range r {
			if len(c) > widths[j] {
				widths[j] = len(c)
			}
		}
	}
	var line []string
	for j, h := range t.Header {
		line = append(line, fmt.Sprintf("%-*s", widths[j], h))
	}
	fmt.Fprintln(w, strings.Join(line, "  "))
	for _, r := range t.Rows {
		line = line[:0]
		for j, c := range r {
			line = append(line, fmt.Sprintf("%-*s", widths[j], c))
		}
		fmt.Fprintln(w, strings.Join(line, "  "))
	}
	fmt.Fprintln(w)
}
