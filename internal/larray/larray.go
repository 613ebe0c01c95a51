// Package larray is a literal Go implementation of the paper's §4 storage
// and algorithms: temporal graphs as labeled arrays (Table 2), the
// temporal operators as row-copying array transformations (Algorithm 1),
// and aggregation as the unpivot / merge / deduplicate / group-by-count
// pipeline (Algorithm 2).
//
// The optimized engine (packages ops and agg) uses bitset views and
// dictionary-encoded tuples instead; this package exists as an independent
// reference implementation — structured the way the paper's Modin/pandas
// code is — against which the optimized engine is cross-validated, and as
// the copy-out baseline of the copy-vs-view ablation benchmark.
package larray

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/timeline"
)

// Array is a labeled 2-D array of strings: rows carry entity labels (node
// ids or "u|v" edge ids), columns carry time-point or attribute labels.
type Array struct {
	RowLabels []string
	ColLabels []string
	rowIndex  map[string]int
	colIndex  map[string]int
	Cells     [][]string // [row][col]
}

// NewArray returns an empty array with the given column labels.
func NewArray(cols ...string) *Array {
	a := &Array{
		ColLabels: append([]string(nil), cols...),
		rowIndex:  make(map[string]int),
		colIndex:  make(map[string]int, len(cols)),
	}
	for i, c := range cols {
		a.colIndex[c] = i
	}
	return a
}

// AddRow appends a labeled row. It panics if the value count does not match
// the column count or the label already exists.
func (a *Array) AddRow(label string, values ...string) {
	if len(values) != len(a.ColLabels) {
		panic(fmt.Sprintf("larray: row %q has %d values, want %d", label, len(values), len(a.ColLabels)))
	}
	if _, dup := a.rowIndex[label]; dup {
		panic(fmt.Sprintf("larray: duplicate row label %q", label))
	}
	a.rowIndex[label] = len(a.RowLabels)
	a.RowLabels = append(a.RowLabels, label)
	a.Cells = append(a.Cells, append([]string(nil), values...))
}

// NumRows returns the number of rows.
func (a *Array) NumRows() int { return len(a.RowLabels) }

// Row returns the cells of the row with the given label.
func (a *Array) Row(label string) ([]string, bool) {
	i, ok := a.rowIndex[label]
	if !ok {
		return nil, false
	}
	return a.Cells[i], true
}

// Cell returns the value at (rowLabel, colLabel).
func (a *Array) Cell(rowLabel, colLabel string) (string, bool) {
	r, ok := a.rowIndex[rowLabel]
	if !ok {
		return "", false
	}
	c, ok := a.colIndex[colLabel]
	if !ok {
		return "", false
	}
	return a.Cells[r][c], true
}

// Restrict returns a copy of the array keeping only the given columns, in
// the given order — the paper's "restrict the input tables to the columns
// corresponding to time t ∈ T1 ∪ T2" (Algorithm 1, line 2).
func (a *Array) Restrict(cols ...string) *Array {
	out := NewArray(cols...)
	idx := make([]int, len(cols))
	for i, c := range cols {
		j, ok := a.colIndex[c]
		if !ok {
			panic(fmt.Sprintf("larray: no column %q", c))
		}
		idx[i] = j
	}
	for r, label := range a.RowLabels {
		vals := make([]string, len(cols))
		for i, j := range idx {
			vals[i] = a.Cells[r][j]
		}
		out.AddRow(label, vals...)
	}
	return out
}

// The missing-value marker of Table 2.
const missing = "-"

// GraphArrays is the §4 representation: V and E hold 0/1 existence flags
// per time column, S holds one column per static attribute, and A holds
// one array per time-varying attribute with one column per time point.
type GraphArrays struct {
	Times  []string
	V, E   *Array
	S      *Array
	A      map[string]*Array
	AOrder []string // deterministic iteration order for A
}

// edgeLabel encodes an edge row label; node labels must not contain '|'.
func edgeLabel(u, v string) string { return u + "|" + v }

// splitEdgeLabel is the inverse of edgeLabel.
func splitEdgeLabel(label string) (string, string) {
	i := strings.IndexByte(label, '|')
	return label[:i], label[i+1:]
}

// FromGraph converts a core graph into its labeled-array representation.
func FromGraph(g *core.Graph) *GraphArrays {
	times := g.Timeline().Labels()
	ga := &GraphArrays{Times: times, A: make(map[string]*Array)}

	ga.V = NewArray(times...)
	for n := 0; n < g.NumNodes(); n++ {
		row := make([]string, len(times))
		for t := range times {
			if g.NodeTau(core.NodeID(n)).Contains(t) {
				row[t] = "1"
			} else {
				row[t] = "0"
			}
		}
		ga.V.AddRow(g.NodeLabel(core.NodeID(n)), row...)
	}

	ga.E = NewArray(times...)
	for e := 0; e < g.NumEdges(); e++ {
		ep := g.Edge(core.EdgeID(e))
		row := make([]string, len(times))
		for t := range times {
			if g.EdgeTau(core.EdgeID(e)).Contains(t) {
				row[t] = "1"
			} else {
				row[t] = "0"
			}
		}
		ga.E.AddRow(edgeLabel(g.NodeLabel(ep.U), g.NodeLabel(ep.V)), row...)
	}

	var staticNames []string
	for a := 0; a < g.NumAttrs(); a++ {
		if g.Attr(core.AttrID(a)).Kind == core.Static {
			staticNames = append(staticNames, g.Attr(core.AttrID(a)).Name)
		}
	}
	ga.S = NewArray(staticNames...)
	for n := 0; n < g.NumNodes(); n++ {
		row := make([]string, 0, len(staticNames))
		for a := 0; a < g.NumAttrs(); a++ {
			if g.Attr(core.AttrID(a)).Kind != core.Static {
				continue
			}
			v := g.Dict(core.AttrID(a)).Value(g.StaticValue(core.AttrID(a), core.NodeID(n)))
			if v == "" {
				v = missing
			}
			row = append(row, v)
		}
		ga.S.AddRow(g.NodeLabel(core.NodeID(n)), row...)
	}

	for a := 0; a < g.NumAttrs(); a++ {
		if g.Attr(core.AttrID(a)).Kind != core.TimeVarying {
			continue
		}
		name := g.Attr(core.AttrID(a)).Name
		arr := NewArray(times...)
		for n := 0; n < g.NumNodes(); n++ {
			row := make([]string, len(times))
			for t := range times {
				v := g.ValueString(core.AttrID(a), core.NodeID(n), timeline.Time(t))
				if v == "" {
					v = missing
				}
				row[t] = v
			}
			arr.AddRow(g.NodeLabel(core.NodeID(n)), row...)
		}
		ga.A[name] = arr
		ga.AOrder = append(ga.AOrder, name)
	}
	return ga
}

// intervalCols translates an interval into its time-column labels.
func (ga *GraphArrays) intervalCols(iv timeline.Interval) []string {
	var cols []string
	for _, t := range iv.Times() {
		cols = append(cols, iv.Timeline().Label(t))
	}
	return cols
}

// anyOne reports whether any cell of the row is "1".
func anyOne(row []string) bool {
	for _, c := range row {
		if c == "1" {
			return true
		}
	}
	return false
}

// copyEntities builds the output arrays from the node and edge rows, over
// cols, that keepNode and keepEdge select, mirroring Algorithm 1's insert
// loops (lines 3–14).
func (ga *GraphArrays) copyEntities(cols []string, keepNode, keepEdge func(label string, row []string) bool) *GraphArrays {
	out := &GraphArrays{Times: cols, A: make(map[string]*Array), AOrder: ga.AOrder}
	out.V = NewArray(cols...)
	out.S = NewArray(ga.S.ColLabels...)
	for _, name := range ga.AOrder {
		out.A[name] = NewArray(cols...)
	}
	rv := ga.V.Restrict(cols...)
	restrictedA := make(map[string]*Array, len(ga.AOrder))
	for _, name := range ga.AOrder {
		restrictedA[name] = ga.A[name].Restrict(cols...)
	}
	for r, label := range rv.RowLabels {
		if !keepNode(label, rv.Cells[r]) {
			continue
		}
		out.V.AddRow(label, rv.Cells[r]...)
		srow, _ := ga.S.Row(label)
		out.S.AddRow(label, srow...)
		for _, name := range ga.AOrder {
			arow, _ := restrictedA[name].Row(label)
			out.A[name].AddRow(label, arow...)
		}
	}
	out.E = NewArray(cols...)
	re := ga.E.Restrict(cols...)
	for r, label := range re.RowLabels {
		if keepEdge(label, re.Cells[r]) {
			out.E.AddRow(label, re.Cells[r]...)
		}
	}
	return out
}

func anyOneRow(_ string, row []string) bool { return anyOne(row) }

// Union implements Algorithm 1: keep every node/edge with a 1 in some
// column of T1 ∪ T2, restricted to those columns.
func (ga *GraphArrays) Union(t1, t2 timeline.Interval) *GraphArrays {
	cols := ga.intervalCols(t1.Union(t2))
	return ga.copyEntities(cols, anyOneRow, anyOneRow)
}

// Intersection keeps entities with a 1 in some column of T1 and in some
// column of T2 (§4.1), restricted to T1 ∪ T2.
func (ga *GraphArrays) Intersection(t1, t2 timeline.Interval) *GraphArrays {
	cols1 := map[string]bool{}
	for _, c := range ga.intervalCols(t1) {
		cols1[c] = true
	}
	cols := ga.intervalCols(t1.Union(t2))
	cols2 := map[string]bool{}
	for _, c := range ga.intervalCols(t2) {
		cols2[c] = true
	}
	keep := func(_ string, row []string) bool {
		in1, in2 := false, false
		for i, c := range cols {
			if row[i] == "1" {
				if cols1[c] {
					in1 = true
				}
				if cols2[c] {
					in2 = true
				}
			}
		}
		return in1 && in2
	}
	return ga.copyEntities(cols, keep, keep)
}

// Difference implements §4.1's difference T1 − T2: an edge row is kept when
// it has a 1 in T1 and none in T2; a node row when it has a 1 in T1 and
// either none in T2 or an endpoint role in a kept edge (Definition 2.5).
// The result is restricted to T1's columns.
func (ga *GraphArrays) Difference(t1, t2 timeline.Interval) *GraphArrays {
	cols1 := ga.intervalCols(t1)
	cols2 := ga.intervalCols(t2)
	v2 := ga.V.Restrict(cols2...)
	e2 := ga.E.Restrict(cols2...)
	gone := func(label string, arr *Array) bool {
		row, ok := arr.Row(label)
		return ok && !anyOne(row)
	}

	// First pass over edges to find surviving endpoints.
	endpoints := map[string]bool{}
	re1 := ga.E.Restrict(cols1...)
	keptEdges := map[string]bool{}
	for r, label := range re1.RowLabels {
		if anyOne(re1.Cells[r]) && gone(label, e2) {
			keptEdges[label] = true
			u, v := splitEdgeLabel(label)
			endpoints[u] = true
			endpoints[v] = true
		}
	}

	return ga.copyEntities(cols1, func(label string, row []string) bool {
		return anyOne(row) && (gone(label, v2) || endpoints[label])
	}, func(label string, _ []string) bool { return keptEdges[label] })
}
