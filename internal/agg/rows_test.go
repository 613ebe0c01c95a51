package agg

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gtest"
	"repro/internal/ops"
	"repro/internal/timeline"
)

// flipGraph builds nodes on a T-point timeline whose varying value runs
// a, a, b, b, a, a, … (shifted per node), so every interval of four or more
// points sees a node exhibit a, then b, then a again: DIST must count (node,
// a) once although a comes back. One value in eleven is missing. Edges join
// neighbouring nodes at the points both exist, with a gap every fifth point.
func flipGraph(T, nodes int) *core.Graph {
	labels := make([]string, T)
	for i := range labels {
		labels[i] = fmt.Sprintf("p%03d", i)
	}
	b := core.NewBuilder(timeline.MustNew(labels...),
		core.AttrSpec{Name: "grp", Kind: core.Static},
		core.AttrSpec{Name: "val", Kind: core.TimeVarying})
	for n := 0; n < nodes; n++ {
		id := b.AddNode(fmt.Sprintf("n%d", n))
		b.SetStatic(0, id, fmt.Sprintf("g%d", n%3))
		for t := n % 5; t < T; t++ {
			b.SetNodeTime(id, timeline.Time(t))
			if (7*t+n)%11 != 0 {
				b.SetVarying(1, id, timeline.Time(t), []string{"a", "b"}[(t+n)/2%2])
			}
		}
	}
	for n := 0; n+1 < nodes; n++ {
		e := b.AddEdge(core.NodeID(n), core.NodeID(n+1))
		for t := max(n%5, (n+1)%5); t < T; t++ {
			if (t+n)%5 != 0 {
				b.SetEdgeTime(e, timeline.Time(t))
			}
		}
	}
	return b.MustBuild()
}

// pairViews are the edge-only views of ops.NewEdgePairView — the node side
// is empty — for stability and difference between consecutive points.
func pairViews(g *core.Graph) []*ops.View {
	pv := ops.NewEdgePairView(g)
	var out []*ops.View
	for t := 0; t+1 < g.Timeline().Len(); t += 7 {
		a, b := ops.NewIncrementalView(g, timeline.Time(t)), ops.NewIncrementalView(g, timeline.Time(t+1))
		out = append(out, pv.Stability(a, b))
		a, b = ops.NewIncrementalView(g, timeline.Time(t)), ops.NewIncrementalView(g, timeline.Time(t+1))
		out = append(out, pv.Difference(b, a))
	}
	return out
}

// TestDedupeMatchesMapEngine pins DIST's word-by-word deduplication and the
// code rows it reads to the entity-major map engine, DIST and ALL, serial
// and sharded (parallelMinEntities forced to 0), unfiltered and filtered:
// on timelines of more than 64 points, so an interval spans several τ
// words; on values that go a → b → a inside one interval; on accumulator
// snapshots whose rows and columns were frozen before later nodes joined;
// and on project/union/intersection/difference views plus the edge-only
// pair views.
func TestDedupeMatchesMapEngine(t *testing.T) {
	defer forceParallel(t)()
	r := rand.New(rand.NewSource(53))
	graphs := map[string]*core.Graph{
		"long-lived-150":             gtest.LongLivedGraph(r, 150),
		"accumulated-long-lived-100": gtest.Accumulated(gtest.LongLivedGraph(r, 100)),
		"flip-70":                    flipGraph(70, 300),
		"accumulated-flip-70":        gtest.Accumulated(flipGraph(70, 150)),
	}
	for name, g := range graphs {
		tl := g.Timeline()
		views := append(scanViews(r, g), pairViews(g)...)
		views = append(views,
			ops.Union(g, tl.Range(0, timeline.Time(tl.Len()-1)), tl.Point(0)),
			ops.Intersection(g, tl.Range(3, 40), tl.Range(30, timeline.Time(tl.Len()-1))),
			ops.Difference(g, tl.Range(0, 66), tl.Range(67, timeline.Time(tl.Len()-1))))
		for _, s := range varyingSchemas(t, g) {
			checkOracles(t, name, s, views)
		}
	}
}

// TestCodesFrozenAccumulatorRows: an accumulator snapshot whose varying
// rows and existence columns were frozen before later nodes arrived has
// short early rows — the code row of a point covers exactly that point's
// nodes — and a snapshot's rows stay its own after the accumulator grows.
func TestCodesFrozenAccumulatorRows(t *testing.T) {
	acc := core.NewAccumulator(core.AttrSpec{Name: "grp", Kind: core.Static}, core.AttrSpec{Name: "val", Kind: core.TimeVarying})
	point := func(label string, nodes ...string) {
		acc.AddPoint(label)
		for i, n := range nodes {
			id := acc.EnsureNode(n)
			acc.SetNodeTime(id)
			acc.SetStatic(0, id, "g"+n)
			acc.SetVarying(1, id, []string{"a", "b"}[(len(label)+i)%2])
			if i > 0 {
				acc.SetEdgeTime(acc.EnsureEdge(acc.EnsureNode(nodes[i-1]), id))
			}
		}
	}
	point("t0", "x", "y")
	early := acc.Snapshot()
	point("t01", "y", "z", "x")
	point("t012", "w", "x", "z")
	late := acc.Snapshot()
	for name, g := range map[string]*core.Graph{"early": early, "late": late} {
		tl := g.Timeline()
		views := []*ops.View{ops.Union(g, tl.All(), tl.All()), ops.Intersection(g, tl.Point(0), tl.All()), ops.Difference(g, tl.All(), tl.Point(0))}
		for _, attrs := range [][]string{{"val"}, {"grp", "val"}} {
			s, err := ByName(g, attrs...)
			if err != nil {
				t.Fatal(err)
			}
			for p := 0; p < tl.Len(); p++ {
				if got, want := len(s.Codes(timeline.Time(p))), g.PointIndex().NodesAt(timeline.Time(p)).Len(); got != want {
					t.Errorf("%s %v: row %d covers %d nodes, its column %d", name, attrs, p, got, want)
				}
			}
			checkOracles(t, name, s, views)
		}
	}
	if got := len(MustSchema(late, 1).Codes(0)); got != 2 {
		t.Errorf("late snapshot's first row covers %d nodes, want the 2 that existed then", got)
	}
}

// TestCodesConcurrentFirstTouch: goroutines that first-touch one schema's
// rows together all get the one row built per point (run under -race), and
// the graph's row bytes count each row once.
func TestCodesConcurrentFirstTouch(t *testing.T) {
	g := dataset.DBLPScaled(3, 0.05)
	s := MustSchema(g, g.MustAttr("gender"), g.MustAttr("publications"))
	T := g.Timeline().Len()
	rows := make([][][]int64, 8)
	var wg sync.WaitGroup
	for w := range rows {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rows[w] = make([][]int64, T)
			for i := range T {
				p := timeline.Time((i + 3*w) % T)
				rows[w][p] = s.Codes(p)
			}
		}(w)
	}
	wg.Wait()
	var bytes int64
	for p := range T {
		for w := range rows {
			if &rows[w][p][0] != &rows[0][p][0] {
				t.Fatalf("point %d: goroutine %d got a row of its own", p, w)
			}
		}
		for n, c := range rows[0][p] {
			if tu, ok := s.TupleAt(core.NodeID(n), timeline.Time(p)); g.NodeTau(core.NodeID(n)).Contains(p) && ok != (c >= 0) || ok && c >= 0 && int64(tu) != c {
				t.Fatalf("point %d node %d: row holds %d, TupleAt (%d, %v)", p, n, c, tu, ok)
			}
		}
		bytes += int64(len(rows[0][p])) * 8
	}
	if got := TupleRowBytes(g); got != bytes {
		t.Errorf("TupleRowBytes = %d, want %d (one row per point)", got, bytes)
	}

	static := MustSchema(g, g.MustAttr("gender"))
	if &static.Codes(0)[0] != &static.Codes(timeline.Time(T - 1))[0] {
		t.Error("an all-static schema built a second row")
	}
	if got, want := TupleRowBytes(g), bytes+int64(g.NumNodes())*8; got != want {
		t.Errorf("after a static row: TupleRowBytes = %d, want %d", got, want)
	}
}

// TestReleaseRows: releasing a graph's rows returns TupleRowBytes to zero,
// the all-static schema's one row counted once, and a later read rebuilds
// an equal row.
func TestReleaseRows(t *testing.T) {
	g := dataset.DBLPScaled(3, 0.05)
	varying := MustSchema(g, g.MustAttr("gender"), g.MustAttr("publications"))
	static := MustSchema(g, g.MustAttr("gender"))
	T := g.Timeline().Len()
	before := make([][]int64, T)
	for p := range T {
		before[p] = varying.Codes(timeline.Time(p))
		static.Codes(timeline.Time(p))
	}
	ReleaseRows(g)
	if got := TupleRowBytes(g); got != 0 {
		t.Fatalf("after ReleaseRows: TupleRowBytes = %d, want 0", got)
	}
	for p := range T {
		row := varying.Codes(timeline.Time(p))
		if &row[0] == &before[p][0] || !slices.Equal(row, before[p]) {
			t.Fatalf("point %d: the row read after the release is not an equal rebuild", p)
		}
	}
	if got, want := TupleRowBytes(g), int64(len(slices.Concat(before...)))*8; got != want {
		t.Errorf("after rebuilding the varying rows: TupleRowBytes = %d, want %d", got, want)
	}
}

// TestNewSchemaInterned: concurrent NewSchema calls for one attribute list
// on one graph return one *Schema; another order, another list or another
// graph is another schema, and invalid lists are still refused.
func TestNewSchemaInterned(t *testing.T) {
	g := core.PaperExample()
	gender, pubs := g.MustAttr("gender"), g.MustAttr("publications")
	got := make([]*Schema, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = MustSchema(g, gender, pubs)
		}(i)
	}
	wg.Wait()
	for i, s := range got {
		if s != got[0] {
			t.Fatalf("call %d returned a second schema", i)
		}
	}
	if s, _ := ByName(g, "gender", "publications"); s != got[0] {
		t.Error("ByName on the same attributes returned a second schema")
	}
	for what, s := range map[string]*Schema{
		"reordered":   MustSchema(g, pubs, gender),
		"subset":      MustSchema(g, gender),
		"other graph": MustSchema(core.PaperExample(), gender, pubs),
	} {
		if s == got[0] {
			t.Errorf("%s: shares the schema of (gender, publications) on the first graph", what)
		}
	}
	for _, attrs := range [][]core.AttrID{nil, {gender, gender}, {99}} {
		if _, err := NewSchema(g, attrs...); err == nil {
			t.Errorf("NewSchema(%v) = nil error", attrs)
		}
	}
}
