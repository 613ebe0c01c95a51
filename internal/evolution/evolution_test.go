package evolution

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

func fixture(t *testing.T) (*core.Graph, *View, *agg.Schema) {
	t.Helper()
	g := core.PaperExample()
	tl := g.Timeline()
	ev := NewView(g, tl.Point(0), tl.Point(1))
	s, err := agg.ByName(g, "gender", "publications")
	if err != nil {
		t.Fatal(err)
	}
	return g, ev, s
}

func TestFig4aNodeClasses(t *testing.T) {
	g, ev, _ := fixture(t)
	want := map[string]Class{
		"u1": Stability,
		"u2": Stability,
		"u3": Shrinkage,
		"u4": Stability,
	}
	for label, wantClass := range want {
		n, _ := g.NodeByLabel(label)
		c, ok := ev.NodeClass(n)
		if !ok || c != wantClass {
			t.Errorf("class(%s) = %v,%v, want %v", label, c, ok, wantClass)
		}
	}
	// u5 exists only at t2 — not part of the evolution graph t0→t1.
	u5, _ := g.NodeByLabel("u5")
	if _, ok := ev.NodeClass(u5); ok {
		t.Error("u5 should not be in the evolution graph")
	}
}

func TestFig4aEdgeClasses(t *testing.T) {
	g, ev, _ := fixture(t)
	edge := func(u, v string) core.EdgeID {
		nu, _ := g.NodeByLabel(u)
		nv, _ := g.NodeByLabel(v)
		for e := range g.NumEdges() {
			if g.Edge(core.EdgeID(e)) == (core.Endpoints{U: nu, V: nv}) {
				return core.EdgeID(e)
			}
		}
		t.Fatalf("edge (%s,%s) missing", u, v)
		return 0
	}
	cases := []struct {
		u, v string
		want Class
	}{
		{"u1", "u2", Stability},
		{"u2", "u4", Stability},
		{"u1", "u3", Shrinkage},
		{"u1", "u4", Growth},
	}
	for _, c := range cases {
		got, ok := ev.EdgeClass(edge(c.u, c.v))
		if !ok || got != c.want {
			t.Errorf("class(%s→%s) = %v,%v, want %v", c.u, c.v, got, ok, c.want)
		}
	}
}

// TestFig4bAggregation asserts the paper's exact example: in the
// aggregation of the evolution graph t0→t1 on (gender, publications), node
// (f,1) has stability 1 (u2), growth 1 (u4's new appearance) and
// shrinkage 1 (u3's removed appearance).
func TestFig4bAggregation(t *testing.T) {
	g, _, s := fixture(t)
	tl := g.Timeline()
	a := Aggregate(g, tl.Point(0), tl.Point(1), s, agg.Distinct, nil)
	tu, ok := s.Encode("f", "1")
	if !ok {
		t.Fatal("Encode(f,1) failed")
	}
	got := a.NodeWeights(tu)
	if got != (Weights{St: 1, Gr: 1, Shr: 1}) {
		t.Fatalf("weights(f,1) = %+v, want St=1 Gr=1 Shr=1 (paper Fig. 4b)", got)
	}
	// u4's (f,2) tuple at t0 disappears, u1's (m,3)→(m,1) transition.
	f2, _ := s.Encode("f", "2")
	if w := a.NodeWeights(f2); w != (Weights{Shr: 1}) {
		t.Errorf("weights(f,2) = %+v, want Shr=1", w)
	}
	m3, _ := s.Encode("m", "3")
	if w := a.NodeWeights(m3); w != (Weights{Shr: 1}) {
		t.Errorf("weights(m,3) = %+v, want Shr=1", w)
	}
	m1, _ := s.Encode("m", "1")
	if w := a.NodeWeights(m1); w != (Weights{Gr: 1}) {
		t.Errorf("weights(m,1) = %+v, want Gr=1", w)
	}
}

func TestFig4bEdgeAggregation(t *testing.T) {
	g, _, s := fixture(t)
	tl := g.Timeline()
	a := Aggregate(g, tl.Point(0), tl.Point(1), s, agg.Distinct, nil)
	key := func(f, fp, to, tp string) agg.EdgeKey {
		a1, _ := s.Encode(f, fp)
		a2, _ := s.Encode(to, tp)
		return agg.EdgeKey{From: a1, To: a2}
	}
	// (m,3)→(f,1): edges u1→u2 and u1→u3 at t0, both gone (tuple-wise) at t1.
	if w := a.Edges[key("m", "3", "f", "1")]; w != (Weights{Shr: 2}) {
		t.Errorf("((m,3)→(f,1)) = %+v, want Shr=2", w)
	}
	// (m,1)→(f,1): edges u1→u2 and u1→u4 exhibit it newly at t1.
	if w := a.Edges[key("m", "1", "f", "1")]; w != (Weights{Gr: 2}) {
		t.Errorf("((m,1)→(f,1)) = %+v, want Gr=2", w)
	}
	// (f,1)→(f,2) at t0 shrinks, (f,1)→(f,1) grows (edge u2→u4).
	if w := a.Edges[key("f", "1", "f", "2")]; w != (Weights{Shr: 1}) {
		t.Errorf("((f,1)→(f,2)) = %+v, want Shr=1", w)
	}
	if w := a.Edges[key("f", "1", "f", "1")]; w != (Weights{Gr: 1}) {
		t.Errorf("((f,1)→(f,1)) = %+v, want Gr=1", w)
	}
}

func TestStaticAggregationClassifiesEntities(t *testing.T) {
	// On a static schema (gender), evolution aggregation counts entities
	// per class: t0→t1 has u1,u2,u4 stable (m:1, f:2) and u3 shrinking.
	g, _, _ := fixture(t)
	tl := g.Timeline()
	s := agg.MustSchema(g, g.MustAttr("gender"))
	a := Aggregate(g, tl.Point(0), tl.Point(1), s, agg.Distinct, nil)
	m, _ := s.Encode("m")
	f, _ := s.Encode("f")
	if w := a.NodeWeights(m); w != (Weights{St: 1}) {
		t.Errorf("weights(m) = %+v, want St=1", w)
	}
	if w := a.NodeWeights(f); w != (Weights{St: 2, Shr: 1}) {
		t.Errorf("weights(f) = %+v, want St=2 Shr=1", w)
	}
}

func TestFilterRestrictsAppearances(t *testing.T) {
	// Keep only appearances with publications > 2 (u1@t0 with 3, u5@t2
	// with 3): on gender, t0→t1 then has only a shrinking (m).
	g, _, _ := fixture(t)
	tl := g.Timeline()
	s := agg.MustSchema(g, g.MustAttr("gender"))
	pubs := g.MustAttr("publications")
	highActivity := func(n core.NodeID, t timeline.Time) bool {
		v := g.ValueString(pubs, n, t)
		return v == "3" // domain is {1,2,3}; >2 means 3
	}
	a := Aggregate(g, tl.Point(0), tl.Point(1), s, agg.Distinct, highActivity)
	m, _ := s.Encode("m")
	f, _ := s.Encode("f")
	if w := a.NodeWeights(m); w != (Weights{Shr: 1}) {
		t.Errorf("weights(m) = %+v, want Shr=1", w)
	}
	if w := a.NodeWeights(f); w.Total() != 0 {
		t.Errorf("weights(f) = %+v, want empty", w)
	}
	// Edges: at t0 u1 (pubs 3) → u2 (pubs 1): u2 fails the filter, so no
	// edge appearance survives.
	if len(a.Edges) != 0 {
		t.Errorf("edges = %v, want none", a.Edges)
	}
}

func TestAllKindCountsAppearances(t *testing.T) {
	// Between [t0,t1] and [t2]: u2 exhibits (f,1) at t0,t1 (old) and t2
	// (new) → ALL stability weight 3 for its contribution; u4 exhibits
	// (f,2)@t0 (Shr 1) and (f,1)@t1,t2 (St 2).
	g, _, s := fixture(t)
	tl := g.Timeline()
	a := Aggregate(g, tl.Range(0, 1), tl.Point(2), s, agg.All, nil)
	f1, _ := s.Encode("f", "1")
	w := a.NodeWeights(f1)
	// u2 contributes St 3 (t0,t1 + t2), u4 contributes St 2 (t1 + t2),
	// u3 contributes Shr 1 (t0).
	if w.St != 5 || w.Shr != 1 || w.Gr != 0 {
		t.Errorf("ALL weights(f,1) = %+v, want St=5 Shr=1 Gr=0", w)
	}
}

func TestViewPartsConsistentWithOperators(t *testing.T) {
	g, ev, _ := fixture(t)
	tl := g.Timeline()
	if ev.Stable.NumNodes() != ops.Intersection(g, tl.Point(0), tl.Point(1)).NumNodes() {
		t.Error("Stable part disagrees with Intersection")
	}
	if ev.Removed.NumEdges() != ops.Difference(g, tl.Point(0), tl.Point(1)).NumEdges() {
		t.Error("Removed part disagrees with Difference(old, new)")
	}
	if ev.Added.NumEdges() != ops.Difference(g, tl.Point(1), tl.Point(0)).NumEdges() {
		t.Error("Added part disagrees with Difference(new, old)")
	}
}

func TestQuickEvolutionPartition(t *testing.T) {
	// Definition 2.7: V> = V∩ ∪ V− ∪ V−' and every node of the union view
	// on (Told, Tnew) has exactly one class.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := gtest.RandomGraph(r, gtest.DefaultParams())
		tl := g.Timeline()
		told := gtest.RandomInterval(r, tl)
		tnew := gtest.RandomInterval(r, tl)
		ev := NewView(g, told, tnew)
		u := ops.Union(g, told, tnew)
		ok := true
		u.ForEachNode(func(n core.NodeID) {
			if _, in := ev.NodeClass(n); !in {
				ok = false
			}
		})
		u.ForEachEdge(func(e core.EdgeID) {
			c, in := ev.EdgeClass(e)
			if !in {
				ok = false
				return
			}
			// The class must match membership in the three parts.
			switch c {
			case Stability:
				if !ev.Stable.ContainsEdge(e) {
					ok = false
				}
			case Shrinkage:
				if !ev.Removed.ContainsEdge(e) {
					ok = false
				}
			case Growth:
				if !ev.Added.ContainsEdge(e) {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickWeightsConsistentWithPlainAggregation(t *testing.T) {
	// For static schemas, the evolution triple must tie out against plain
	// aggregations of the three operator views: St(v) = DIST weight in the
	// intersection view; Gr + Shr relate to the difference views' node
	// sets restricted to actually-disappearing/appearing entities.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := gtest.RandomGraph(r, gtest.DefaultParams())
		var static []core.AttrID
		for a := 0; a < g.NumAttrs(); a++ {
			if g.Attr(core.AttrID(a)).Kind == core.Static {
				static = append(static, core.AttrID(a))
			}
		}
		if len(static) == 0 {
			return true
		}
		s := agg.MustSchema(g, static...)
		tl := g.Timeline()
		told := gtest.RandomInterval(r, tl)
		tnew := gtest.RandomInterval(r, tl)
		ev := Aggregate(g, told, tnew, s, agg.Distinct, nil)
		stable := agg.Aggregate(ops.Intersection(g, told, tnew), s, agg.Distinct)
		for tu, w := range ev.Nodes {
			if w.St != stable.Nodes[tu] {
				return false
			}
		}
		for k, w := range ev.Edges {
			if w.St != stable.Edges[k] {
				return false
			}
		}
		// Edge growth = DIST weight in Difference(new, old) view.
		added := agg.Aggregate(ops.Difference(g, tnew, told), s, agg.Distinct)
		removed := agg.Aggregate(ops.Difference(g, told, tnew), s, agg.Distinct)
		for k, w := range ev.Edges {
			if w.Gr != added.Edges[k] || w.Shr != removed.Edges[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDistinctTripleAtMostAll(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := gtest.RandomGraph(r, gtest.DefaultParams())
		if g.NumAttrs() == 0 {
			return true
		}
		attrs := make([]core.AttrID, g.NumAttrs())
		for i := range attrs {
			attrs[i] = core.AttrID(i)
		}
		s := agg.MustSchema(g, attrs...)
		tl := g.Timeline()
		told := gtest.RandomInterval(r, tl)
		tnew := gtest.RandomInterval(r, tl)
		dist := Aggregate(g, told, tnew, s, agg.Distinct, nil)
		all := Aggregate(g, told, tnew, s, agg.All, nil)
		for tu, w := range dist.Nodes {
			aw := all.Nodes[tu]
			if aw.St < w.St || aw.Gr < w.Gr || aw.Shr < w.Shr {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
