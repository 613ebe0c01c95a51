package ops

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gtest"
	"repro/internal/larray"
	"repro/internal/timeline"
)

// This file keeps the row-major reading of the paper's V and E arrays — probe
// τ of every node and every edge — that the constructors ran before they
// became column algebra over the point index. It survives here, once, as
// their oracle, beside package larray's literal Algorithm 1. bench/'s
// reference engine builds its views through the exported constructors, so
// these rows are what cross-checks view construction.

// rowMajorIn reports whether an entity with timestamp tau exists in the
// selector's interval: at some point of it under Exists, at every point —
// of a non-empty interval — under ForAll.
func rowMajorIn(s Sel, tau *bitset.Set) bool {
	if s.Interval.IsEmpty() {
		return false
	}
	if s.ForAll {
		return tau.ContainsAll(s.Interval.Mask())
	}
	return tau.Intersects(s.Interval.Mask())
}

// rowMajorSelect keeps the nodes and edges whose timestamp passes keep.
func rowMajorSelect(g *core.Graph, keep func(tau *bitset.Set) bool) (nodes, edges *bitset.Set) {
	nodes, edges = bitset.New(g.NumNodes()), bitset.New(g.NumEdges())
	for n := 0; n < g.NumNodes(); n++ {
		if keep(g.NodeTau(core.NodeID(n))) {
			nodes.Add(n)
		}
	}
	for e := 0; e < g.NumEdges(); e++ {
		if keep(g.EdgeTau(core.EdgeID(e))) {
			edges.Add(e)
		}
	}
	return nodes, edges
}

// rowMajorStability is Definition 2.4 under selector semantics.
func rowMajorStability(g *core.Graph, old, new Sel) (nodes, edges *bitset.Set) {
	return rowMajorSelect(g, func(tau *bitset.Set) bool { return rowMajorIn(old, tau) && rowMajorIn(new, tau) })
}

// rowMajorDifference is Definition 2.5 under selector semantics: edges in
// pos and not in neg; nodes in pos and either not in neg or an endpoint of
// a kept edge.
func rowMajorDifference(g *core.Graph, pos, neg Sel) (nodes, edges *bitset.Set) {
	_, edges = rowMajorSelect(g, func(tau *bitset.Set) bool { return rowMajorIn(pos, tau) && !rowMajorIn(neg, tau) })
	endpoint := bitset.New(g.NumNodes())
	edges.ForEach(func(e int) {
		ep := g.Edge(core.EdgeID(e))
		endpoint.Add(int(ep.U))
		endpoint.Add(int(ep.V))
	})
	nodes = bitset.New(g.NumNodes())
	for n := 0; n < g.NumNodes(); n++ {
		if tau := g.NodeTau(core.NodeID(n)); rowMajorIn(pos, tau) && (!rowMajorIn(neg, tau) || endpoint.Contains(n)) {
			nodes.Add(n)
		}
	}
	return nodes, edges
}

// checkView compares a constructed view with the oracle's selection and the
// interval the definition restricts timestamps to.
func checkView(t *testing.T, what string, v *View, nodes, edges *bitset.Set, times timeline.Interval) {
	t.Helper()
	if !v.Nodes().Equal(nodes) || v.Nodes().Len() != nodes.Len() {
		t.Fatalf("%s: nodes %v, row-major %v", what, v.Nodes().Indices(), nodes.Indices())
	}
	if !v.Edges().Equal(edges) || v.Edges().Len() != edges.Len() {
		t.Fatalf("%s: edges %v, row-major %v", what, v.Edges().Indices(), edges.Indices())
	}
	if !v.Times().Equal(times) {
		t.Fatalf("%s: times %s, want %s", what, v.Times(), times)
	}
}

// arrayEntities renders a labeled-array result the way viewNodes/viewEdges
// render a view.
func arrayEntities(ga *larray.GraphArrays) (nodes, edges []string) {
	nodes = append(nodes, ga.V.RowLabels...)
	for _, l := range ga.E.RowLabels {
		edges = append(edges, strings.Replace(l, "|", "-", 1))
	}
	sort.Strings(nodes)
	sort.Strings(edges)
	return nodes, edges
}

// intervalCases are the operand pairs every graph is checked on: contiguous
// and gapped, disjoint, overlapping, nested and identical, single points,
// the whole timeline, and empty operands on either side.
func intervalCases(r *rand.Rand, tl *timeline.Timeline) [][2]timeline.Interval {
	T := tl.Len()
	at := func(f float64) timeline.Time { return timeline.Time(min(T-1, int(f*float64(T)))) }
	r1, r2 := gtest.RandomRange(r, tl), gtest.RandomRange(r, tl)
	g1, g2 := gtest.RandomInterval(r, tl), gtest.RandomInterval(r, tl)
	p := tl.Point(timeline.Time(r.Intn(T)))
	return [][2]timeline.Interval{
		{r1, r2}, {g1, g2}, {r1, g1}, {g2, r2}, // random contiguous / gapped
		{tl.Range(0, at(0.4)), tl.Range(at(0.6), timeline.Time(T-1))}, // disjoint halves with a gap
		{tl.Range(0, at(0.6)), tl.Range(at(0.3), timeline.Time(T-1))}, // overlapping
		{tl.All(), r1}, {r1, tl.All()}, // nested
		{r1, r1}, {g1, g1}, {tl.All(), tl.All()}, // identical
		{p, tl.Point(timeline.Time(r.Intn(T)))}, {p, p}, {p, g1}, // single points
		{tl.Empty(), r1}, {g1, tl.Empty()}, {tl.Empty(), tl.Empty()}, // empty operands
	}
}

// TestConstructorsMatchRowMajorAndArrays: the six view constructors — column
// algebra over the point index — select exactly what the row-major loops
// select and what Algorithm 1 on labeled arrays keeps, on 50 random graphs,
// multi-word timelines, an accumulator-built graph (index columns and value
// rows shorter than the id space) and synthetic DBLP.
func TestConstructorsMatchRowMajorAndArrays(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	wide := gtest.DefaultParams()
	wide.MaxNodes, wide.MaxEdges, wide.MaxTimes = 150, 500, 12
	type row struct {
		name string
		g    *core.Graph
	}
	var rows []row
	for i := 0; i < 50; i++ {
		rows = append(rows, row{"random", gtest.RandomGraph(r, gtest.DefaultParams())})
	}
	rows = append(rows,
		row{"long-lived-320", gtest.LongLivedGraph(r, 320)},
		row{"accumulated", gtest.Accumulated(gtest.RandomGraph(r, wide))},
		row{"accumulated-long-lived", gtest.Accumulated(gtest.LongLivedGraph(r, 130))},
		row{"dblp", dataset.DBLPScaled(1, 0.2)},
	)
	for _, row := range rows {
		g, tl := row.g, row.g.Timeline()
		ga := larray.FromGraph(g)
		for i, iv := range intervalCases(r, tl) {
			t1, t2 := iv[0], iv[1]
			what := func(op string) string {
				return row.name + " case " + string(rune('a'+i)) + " " + op + " " + t1.String() + " " + t2.String()
			}

			nodes, edges := rowMajorSelect(g, func(tau *bitset.Set) bool { return rowMajorIn(ForAll(t1), tau) })
			checkView(t, what("project"), Project(g, t1), nodes, edges, t1)

			both := t1.Union(t2)
			nodes, edges = rowMajorSelect(g, func(tau *bitset.Set) bool { return rowMajorIn(Exists(both), tau) })
			union := Union(g, t1, t2)
			checkView(t, what("union"), union, nodes, edges, both)

			nodes, edges = rowMajorStability(g, Exists(t1), Exists(t2))
			inter := Intersection(g, t1, t2)
			checkView(t, what("intersection"), inter, nodes, edges, both)

			nodes, edges = rowMajorDifference(g, Exists(t1), Exists(t2))
			diff := Difference(g, t1, t2)
			checkView(t, what("difference"), diff, nodes, edges, t1)

			// Every pairing of the two semantics on the generalized forms.
			for _, sels := range [][2]Sel{
				{Exists(t1), ForAll(t2)}, {ForAll(t1), Exists(t2)}, {ForAll(t1), ForAll(t2)}, {Exists(t1), Exists(t2)},
			} {
				nodes, edges = rowMajorStability(g, sels[0], sels[1])
				checkView(t, what("stability-view"), StabilityView(g, sels[0], sels[1]), nodes, edges, both)
				nodes, edges = rowMajorDifference(g, sels[0], sels[1])
				checkView(t, what("difference-view"), DifferenceView(g, sels[0], sels[1]), nodes, edges, t1)
			}

			for _, c := range []struct {
				op   string
				view *View
				arr  *larray.GraphArrays
			}{
				{"union", union, ga.Union(t1, t2)},
				{"intersection", inter, ga.Intersection(t1, t2)},
				{"difference", diff, ga.Difference(t1, t2)},
			} {
				wantNodes, wantEdges := arrayEntities(c.arr)
				if got := viewNodes(c.view); !eq(got, wantNodes) {
					t.Fatalf("%s: nodes %v, Algorithm 1 keeps %v", what(c.op), got, wantNodes)
				}
				if got := viewEdges(c.view); !eq(got, wantEdges) {
					t.Fatalf("%s: edges %v, Algorithm 1 keeps %v", what(c.op), got, wantEdges)
				}
			}
		}
	}
}

// TestEmptyIntervalsSelectNothing pins the one selector's rule for an empty
// interval under both semantics: no entity exists "throughout" or "at some
// point of" no points (Definition 2.1 admits no empty timestamp), so
// Project(g, ∅) and Union(g, ∅, ∅) are empty views.
func TestEmptyIntervalsSelectNothing(t *testing.T) {
	g := core.PaperExample()
	none := g.Timeline().Empty()
	for name, v := range map[string]*View{
		"Project(∅)":                   Project(g, none),
		"Project(zero Interval)":       Project(g, timeline.Interval{}),
		"Union(∅, ∅)":                  Union(g, none, none),
		"Intersection(∅, all)":         Intersection(g, none, g.Timeline().All()),
		"Difference(∅, t0)":            Difference(g, none, g.Timeline().Point(0)),
		"StabilityView(ForAll(∅), t0)": StabilityView(g, ForAll(none), Exists(g.Timeline().Point(0))),
	} {
		if v.NumNodes() != 0 || v.NumEdges() != 0 {
			t.Errorf("%s keeps %d nodes and %d edges, want none", name, v.NumNodes(), v.NumEdges())
		}
	}
	// An empty subtrahend removes nothing.
	all := g.Timeline().All()
	if d, u := Difference(g, all, none), Union(g, all, all); d.NumNodes() != u.NumNodes() || d.NumEdges() != u.NumEdges() {
		t.Errorf("Difference(all, ∅) keeps %d/%d, the whole graph is %d/%d", d.NumNodes(), d.NumEdges(), u.NumNodes(), u.NumEdges())
	}
}
