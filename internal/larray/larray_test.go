package larray

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/gtest"
	"repro/internal/ops"
	"repro/internal/timeline"
)

func TestFromGraphMatchesTable2(t *testing.T) {
	ga := FromGraph(core.PaperExample())
	if got, _ := ga.V.Cell("u1", "t2"); got != "0" {
		t.Errorf("V[u1,t2] = %q, want 0", got)
	}
	if got, _ := ga.V.Cell("u2", "t1"); got != "1" {
		t.Errorf("V[u2,t1] = %q, want 1", got)
	}
	if got, _ := ga.S.Cell("u4", "gender"); got != "f" {
		t.Errorf("S[u4] = %q, want f", got)
	}
	if got, _ := ga.A["publications"].Cell("u1", "t2"); got != "-" {
		t.Errorf("A[u1,t2] = %q, want -", got)
	}
	if got, _ := ga.A["publications"].Cell("u4", "t0"); got != "2" {
		t.Errorf("A[u4,t0] = %q, want 2", got)
	}
	if got, _ := ga.E.Cell("u1|u3", "t0"); got != "1" {
		t.Errorf("E[u1|u3,t0] = %q, want 1", got)
	}
}

func TestArrayBasics(t *testing.T) {
	a := NewArray("x", "y")
	a.AddRow("r1", "1", "2")
	a.AddRow("r2", "3", "4")
	if a.NumRows() != 2 {
		t.Fatalf("NumRows = %d", a.NumRows())
	}
	if _, ok := a.Cell("r3", "x"); ok {
		t.Error("missing row should not be found")
	}
	if _, ok := a.Cell("r1", "z"); ok {
		t.Error("missing column should not be found")
	}
	r := a.Restrict("y")
	if got, _ := r.Cell("r2", "y"); got != "4" {
		t.Errorf("restricted cell = %q", got)
	}
	if len(r.ColLabels) != 1 {
		t.Errorf("restricted cols = %v", r.ColLabels)
	}
}

func TestArrayPanics(t *testing.T) {
	a := NewArray("x")
	a.AddRow("r", "1")
	for _, fn := range []func(){
		func() { a.AddRow("r", "2") },      // duplicate label
		func() { a.AddRow("s", "1", "2") }, // wrong arity
		func() { a.Restrict("nope") },      // unknown column
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestUnionAlgorithm1(t *testing.T) {
	g := core.PaperExample()
	tl := g.Timeline()
	ga := FromGraph(g)
	u := ga.Union(tl.Point(0), tl.Point(1))
	if u.V.NumRows() != 4 {
		t.Errorf("union nodes = %d, want 4", u.V.NumRows())
	}
	if u.E.NumRows() != 4 {
		t.Errorf("union edges = %d, want 4", u.E.NumRows())
	}
	if len(u.V.ColLabels) != 2 {
		t.Errorf("union cols = %v, want [t0 t1]", u.V.ColLabels)
	}
	if _, ok := u.V.Row("u5"); ok {
		t.Error("u5 should not be in union of (t0,t1)")
	}
}

func TestIntersectionArrays(t *testing.T) {
	g := core.PaperExample()
	tl := g.Timeline()
	i := FromGraph(g).Intersection(tl.Point(0), tl.Point(1))
	if i.V.NumRows() != 3 {
		t.Errorf("intersection nodes = %d, want 3 (u1,u2,u4)", i.V.NumRows())
	}
	if i.E.NumRows() != 2 {
		t.Errorf("intersection edges = %d, want 2", i.E.NumRows())
	}
}

func TestDifferenceArrays(t *testing.T) {
	g := core.PaperExample()
	tl := g.Timeline()
	d := FromGraph(g).Difference(tl.Point(0), tl.Point(1))
	if d.E.NumRows() != 1 {
		t.Errorf("difference edges = %d, want 1 (u1|u3)", d.E.NumRows())
	}
	if _, ok := d.E.Row("u1|u3"); !ok {
		t.Error("u1|u3 should be the deleted edge")
	}
	// u1 kept as endpoint, u3 as vanished node.
	if d.V.NumRows() != 2 {
		t.Errorf("difference nodes = %d, want 2", d.V.NumRows())
	}
	if len(d.V.ColLabels) != 1 || d.V.ColLabels[0] != "t0" {
		t.Errorf("difference restricted to %v, want [t0]", d.V.ColLabels)
	}
}

func TestAggregateFig3d(t *testing.T) {
	g := core.PaperExample()
	tl := g.Timeline()
	u := FromGraph(g).Union(tl.Point(0), tl.Point(1))
	dist := u.Aggregate([]string{"gender", "publications"}, true)
	if dist.Nodes["f,1"] != 3 {
		t.Errorf("DIST w(f,1) = %d, want 3", dist.Nodes["f,1"])
	}
	all := u.Aggregate([]string{"gender", "publications"}, false)
	if all.Nodes["f,1"] != 4 {
		t.Errorf("ALL w(f,1) = %d, want 4", all.Nodes["f,1"])
	}
	if dist.Edges[EdgeLabel("m,3", "f,1")] != 2 {
		t.Errorf("DIST w((m,3)→(f,1)) = %d, want 2", dist.Edges[EdgeLabel("m,3", "f,1")])
	}
}

func TestAggregateStaticPath(t *testing.T) {
	g := core.PaperExample()
	tl := g.Timeline()
	u := FromGraph(g).Union(tl.Point(0), tl.Point(1))
	dist := u.Aggregate([]string{"gender"}, true)
	if dist.Nodes["f"] != 3 || dist.Nodes["m"] != 1 {
		t.Errorf("DIST gender = %v", dist.Nodes)
	}
	all := u.Aggregate([]string{"gender"}, false)
	if all.Nodes["f"] != 5 || all.Nodes["m"] != 2 {
		t.Errorf("ALL gender = %v", all.Nodes)
	}
	if all.Edges[EdgeLabel("m", "f")] != 4 {
		t.Errorf("ALL w(m→f) = %d, want 4", all.Edges[EdgeLabel("m", "f")])
	}
}

// aggToLabels converts the optimized engine's aggregate graph into the
// string-keyed representation of the reference engine.
func aggToLabels(ag *agg.Graph) AggResult {
	res := AggResult{Nodes: make(map[string]int64), Edges: make(map[string]int64)}
	for tu, w := range ag.Nodes {
		res.Nodes[ag.Schema.Label(tu)] = w
	}
	for k, w := range ag.Edges {
		res.Edges[EdgeLabel(ag.Schema.Label(k.From), ag.Schema.Label(k.To))] = w
	}
	return res
}

func sameResult(a, b AggResult) bool {
	if len(a.Nodes) != len(b.Nodes) || len(a.Edges) != len(b.Edges) {
		return false
	}
	for k, v := range a.Nodes {
		if b.Nodes[k] != v {
			return false
		}
	}
	for k, v := range a.Edges {
		if b.Edges[k] != v {
			return false
		}
	}
	return true
}

// TestQuickReferenceEngineMatchesOptimized cross-validates the two
// engines: for random graphs, contiguous and gapped interval pairs, every
// operator and both aggregation kinds, the literal Algorithm 1+2 pipeline
// and the bitset/dictionary engine must produce identical aggregate graphs.
func TestQuickReferenceEngineMatchesOptimized(t *testing.T) {
	multiWord := gtest.DefaultParams()
	multiWord.MaxTimes = 320
	accumulated := gtest.DefaultParams()
	accumulated.MaxNodes, accumulated.MaxEdges, accumulated.MaxTimes = 150, 400, 10
	for _, row := range []struct {
		name  string
		gen   func(*rand.Rand) *core.Graph
		count int
	}{
		{"one-word", func(r *rand.Rand) *core.Graph { return gtest.RandomGraph(r, gtest.DefaultParams()) }, 60},
		// τ past one 64-bit word (the serving workloads reach T = 1132):
		// per-point coin-flip lifetimes, then entities alive for one long
		// stretch. Fewer iterations — Algorithm 1 copies every row per point.
		{"multi-word", func(r *rand.Rand) *core.Graph { return gtest.RandomGraph(r, multiWord) }, 8},
		{"multi-word-long-lived", func(r *rand.Rand) *core.Graph { return gtest.LongLivedGraph(r, 320) }, 8},
		// Built the way ingest builds: value rows and point-index columns
		// frozen per point, shorter than the id space for later nodes.
		{"accumulated", func(r *rand.Rand) *core.Graph { return gtest.Accumulated(gtest.RandomGraph(r, accumulated)) }, 30},
	} {
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			g := row.gen(r)
			if g.NumAttrs() == 0 {
				return true
			}
			// Random non-empty attribute subset, random order.
			perm := r.Perm(g.NumAttrs())
			n := 1 + r.Intn(g.NumAttrs())
			var ids []core.AttrID
			var names []string
			for _, p := range perm[:n] {
				ids = append(ids, core.AttrID(p))
				names = append(names, g.Attr(core.AttrID(p)).Name)
			}
			schema := agg.MustSchema(g, ids...)
			ga := FromGraph(g)
			tl := g.Timeline()
			r1, r2 := gtest.RandomRange(r, tl), gtest.RandomRange(r, tl)
			g1, g2 := gtest.RandomInterval(r, tl), gtest.RandomInterval(r, tl)

			type casePair struct {
				view *ops.View
				arr  *GraphArrays
			}
			// (r1, r1) keeps even the union's interval contiguous.
			for _, iv := range [][2]timeline.Interval{{g1, g2}, {r1, r2}, {r1, r1}, {r1, g1}} {
				t1, t2 := iv[0], iv[1]
				cases := []casePair{
					{ops.Union(g, t1, t2), ga.Union(t1, t2)},
					{ops.Intersection(g, t1, t2), ga.Intersection(t1, t2)},
					{ops.Difference(g, t1, t2), ga.Difference(t1, t2)},
					{ops.Difference(g, t2, t1), ga.Difference(t2, t1)},
				}
				for _, c := range cases {
					for _, distinct := range []bool{true, false} {
						kind := agg.All
						if distinct {
							kind = agg.Distinct
						}
						fast := aggToLabels(agg.Aggregate(c.view, schema, kind))
						ref := c.arr.Aggregate(names, distinct)
						if !sameResult(fast, ref) {
							return false
						}
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: row.count}); err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
	}
}
