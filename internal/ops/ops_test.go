package ops

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/gtest"
)

// viewNodes returns the labels of a view's nodes, sorted.
// edgeByEndpoints returns the edge (u, v) of g, if present.
func edgeByEndpoints(g *core.Graph, u, v core.NodeID) (core.EdgeID, bool) {
	for e := range g.NumEdges() {
		if g.Edge(core.EdgeID(e)) == (core.Endpoints{U: u, V: v}) {
			return core.EdgeID(e), true
		}
	}
	return 0, false
}

func viewNodes(v *View) []string {
	var out []string
	v.ForEachNode(func(n core.NodeID) { out = append(out, v.Graph().NodeLabel(n)) })
	sort.Strings(out)
	return out
}

// viewEdges returns "u-v" labels of a view's edges, sorted.
func viewEdges(v *View) []string {
	var out []string
	v.ForEachEdge(func(e core.EdgeID) {
		ep := v.Graph().Edge(e)
		out = append(out, v.Graph().NodeLabel(ep.U)+"-"+v.Graph().NodeLabel(ep.V))
	})
	sort.Strings(out)
	return out
}

func eq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestProjectPoint(t *testing.T) {
	g := core.PaperExample()
	tl := g.Timeline()
	v := At(g, 0)
	if got := viewNodes(v); !eq(got, []string{"u1", "u2", "u3", "u4"}) {
		t.Errorf("nodes at t0 = %v", got)
	}
	if got := viewEdges(v); !eq(got, []string{"u1-u2", "u1-u3", "u2-u4"}) {
		t.Errorf("edges at t0 = %v", got)
	}
	v2 := Project(g, tl.Point(2))
	if got := viewNodes(v2); !eq(got, []string{"u2", "u4", "u5"}) {
		t.Errorf("nodes at t2 = %v", got)
	}
	if got := viewEdges(v2); !eq(got, []string{"u2-u4", "u2-u5", "u4-u5"}) {
		t.Errorf("edges at t2 = %v", got)
	}
}

func TestProjectIntervalRequiresFullContainment(t *testing.T) {
	g := core.PaperExample()
	v := Project(g, g.Timeline().Range(0, 1))
	if got := viewNodes(v); !eq(got, []string{"u1", "u2", "u4"}) {
		t.Errorf("nodes on [t0,t1] = %v", got)
	}
	if got := viewEdges(v); !eq(got, []string{"u1-u2", "u2-u4"}) {
		t.Errorf("edges on [t0,t1] = %v", got)
	}
}

func TestUnionMatchesFig2(t *testing.T) {
	g := core.PaperExample()
	tl := g.Timeline()
	v := Union(g, tl.Point(0), tl.Point(1))
	if got := viewNodes(v); !eq(got, []string{"u1", "u2", "u3", "u4"}) {
		t.Errorf("union nodes = %v", got)
	}
	if got := viewEdges(v); !eq(got, []string{"u1-u2", "u1-u3", "u1-u4", "u2-u4"}) {
		t.Errorf("union edges = %v", got)
	}
	// τu is restricted to T1 ∪ T2: u2 exists at t0,t1,t2 but the union view
	// on (t0,t1) must only keep t0,t1.
	u2, _ := g.NodeByLabel("u2")
	if got := v.NodeTimes(u2).String(); got != "110" {
		t.Errorf("τu_∪(u2) = %s, want 110", got)
	}
}

func TestIntersectionKeepsStablePart(t *testing.T) {
	g := core.PaperExample()
	tl := g.Timeline()
	v := Intersection(g, tl.Point(0), tl.Point(1))
	if got := viewNodes(v); !eq(got, []string{"u1", "u2", "u4"}) {
		t.Errorf("intersection nodes = %v", got)
	}
	if got := viewEdges(v); !eq(got, []string{"u1-u2", "u2-u4"}) {
		t.Errorf("intersection edges = %v", got)
	}
}

func TestDifferenceShrinkage(t *testing.T) {
	g := core.PaperExample()
	tl := g.Timeline()
	// t0 − t1: deletions going into t1.
	v := Difference(g, tl.Point(0), tl.Point(1))
	if got := viewEdges(v); !eq(got, []string{"u1-u3"}) {
		t.Errorf("difference edges = %v", got)
	}
	// u3 vanished; u1 still exists at t1 but is kept as an endpoint of a
	// deleted edge (Definition 2.5's E− clause).
	if got := viewNodes(v); !eq(got, []string{"u1", "u3"}) {
		t.Errorf("difference nodes = %v", got)
	}
	// Timestamps restricted to T1 only.
	u1, _ := g.NodeByLabel("u1")
	if got := v.NodeTimes(u1).String(); got != "100" {
		t.Errorf("τu_−(u1) = %s, want 100", got)
	}
}

func TestDifferenceGrowth(t *testing.T) {
	g := core.PaperExample()
	tl := g.Timeline()
	// t1 − t0: additions at t1.
	v := Difference(g, tl.Point(1), tl.Point(0))
	if got := viewEdges(v); !eq(got, []string{"u1-u4"}) {
		t.Errorf("growth edges = %v", got)
	}
	if got := viewNodes(v); !eq(got, []string{"u1", "u4"}) {
		t.Errorf("growth nodes = %v", got)
	}
	// t2 − [t0,t1]: u5 and its edges are new.
	v2 := Difference(g, tl.Point(2), tl.Range(0, 1))
	if got := viewNodes(v2); !eq(got, []string{"u2", "u4", "u5"}) {
		t.Errorf("growth nodes at t2 = %v", got)
	}
	if got := viewEdges(v2); !eq(got, []string{"u2-u5", "u4-u5"}) {
		t.Errorf("growth edges at t2 = %v", got)
	}
}

func TestDifferenceAsymmetric(t *testing.T) {
	g := core.PaperExample()
	tl := g.Timeline()
	a := Difference(g, tl.Point(0), tl.Point(1))
	b := Difference(g, tl.Point(1), tl.Point(0))
	if eq(viewEdges(a), viewEdges(b)) {
		t.Error("difference should not be symmetric on the fixture")
	}
}

func TestMaterializeRoundTrip(t *testing.T) {
	g := core.PaperExample()
	tl := g.Timeline()
	v := Union(g, tl.Point(0), tl.Point(1))
	m, err := Materialize(v)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumNodes() != v.NumNodes() || m.NumEdges() != v.NumEdges() {
		t.Fatalf("materialized sizes %d/%d, want %d/%d",
			m.NumNodes(), m.NumEdges(), v.NumNodes(), v.NumEdges())
	}
	// Attribute values survive.
	u2, _ := m.NodeByLabel("u2")
	if got := m.ValueString(m.MustAttr("gender"), u2, 0); got != "f" {
		t.Errorf("gender(u2) = %q", got)
	}
	if got := m.ValueString(m.MustAttr("publications"), u2, 1); got != "1" {
		t.Errorf("publications(u2,t1) = %q", got)
	}
	// τ restricted: u2 must not exist at t2 in the materialized graph.
	if m.NodeTau(u2).Contains(2) {
		t.Error("materialized union on (t0,t1) should not keep t2")
	}
}

func TestQuickUnionIntersectionLaws(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := gtest.RandomGraph(r, gtest.DefaultParams())
		tl := g.Timeline()
		t1 := gtest.RandomInterval(r, tl)
		t2 := gtest.RandomInterval(r, tl)

		u12, u21 := Union(g, t1, t2), Union(g, t2, t1)
		i12, i21 := Intersection(g, t1, t2), Intersection(g, t2, t1)
		// Commutativity.
		if !eq(viewNodes(u12), viewNodes(u21)) || !eq(viewEdges(u12), viewEdges(u21)) {
			return false
		}
		if !eq(viewNodes(i12), viewNodes(i21)) || !eq(viewEdges(i12), viewEdges(i21)) {
			return false
		}
		// Intersection ⊆ each side's union selection.
		for _, n := range viewNodes(i12) {
			id, _ := g.NodeByLabel(n)
			if !u12.ContainsNode(id) {
				return false
			}
		}
		// Self union/intersection coincide.
		uSelf, iSelf := Union(g, t1, t1), Intersection(g, t1, t1)
		return eq(viewNodes(uSelf), viewNodes(iSelf)) && eq(viewEdges(uSelf), viewEdges(iSelf))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDifferencePartitionsUnion(t *testing.T) {
	// Every edge of Union(T1,T2) is in exactly one of: Intersection(T1,T2),
	// Difference(T1,T2), Difference(T2,T1). (This is the evolution-graph
	// partition property of Definition 2.7 at the operator level.)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := gtest.RandomGraph(r, gtest.DefaultParams())
		tl := g.Timeline()
		t1 := gtest.RandomInterval(r, tl)
		t2 := gtest.RandomInterval(r, tl)
		u := Union(g, t1, t2)
		i := Intersection(g, t1, t2)
		d12 := Difference(g, t1, t2)
		d21 := Difference(g, t2, t1)
		okAll := true
		u.ForEachEdge(func(e core.EdgeID) {
			in := 0
			if i.ContainsEdge(e) {
				in++
			}
			if d12.ContainsEdge(e) {
				in++
			}
			if d21.ContainsEdge(e) {
				in++
			}
			if in != 1 {
				okAll = false
			}
		})
		return okAll
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickProjectSubsetOfUnion(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := gtest.RandomGraph(r, gtest.DefaultParams())
		tl := g.Timeline()
		t1 := gtest.RandomRange(r, tl)
		p := Project(g, t1)
		u := Union(g, t1, t1)
		okAll := true
		p.ForEachNode(func(n core.NodeID) {
			if !u.ContainsNode(n) {
				okAll = false
			}
		})
		p.ForEachEdge(func(e core.EdgeID) {
			if !u.ContainsEdge(e) {
				okAll = false
			}
		})
		return okAll
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMaterializeAlwaysValid(t *testing.T) {
	// Materialize must yield a valid graph (Builder validation passes) for
	// any operator output, including difference views that keep endpoint
	// nodes existing in T2.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := gtest.RandomGraph(r, gtest.DefaultParams())
		tl := g.Timeline()
		t1 := gtest.RandomInterval(r, tl)
		t2 := gtest.RandomInterval(r, tl)
		for _, v := range []*View{
			Union(g, t1, t2),
			Intersection(g, t1, t2),
			Difference(g, t1, t2),
			Difference(g, t2, t1),
		} {
			if v.NumNodes() == 0 {
				continue
			}
			m, err := Materialize(v)
			if err != nil {
				return false
			}
			if m.NumNodes() != v.NumNodes() || m.NumEdges() != v.NumEdges() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestViewTimes(t *testing.T) {
	g := core.PaperExample()
	tl := g.Timeline()
	if got := Union(g, tl.Point(0), tl.Point(2)).Times(); !got.Equal(tl.Of(0, 2)) {
		t.Errorf("union Times = %v", got)
	}
	if got := Difference(g, tl.Point(0), tl.Point(1)).Times(); !got.Equal(tl.Point(0)) {
		t.Errorf("difference Times = %v, want t0 only", got)
	}
}

func TestEdgeTimesRestricted(t *testing.T) {
	g := core.PaperExample()
	tl := g.Timeline()
	v := Union(g, tl.Point(0), tl.Point(1))
	u2, _ := g.NodeByLabel("u2")
	u4, _ := g.NodeByLabel("u4")
	e, ok := edgeByEndpoints(g, u2, u4)
	if !ok {
		t.Fatal("edge (u2,u4) missing")
	}
	if got := v.EdgeTimes(e).String(); got != "110" {
		t.Errorf("τe_∪(u2,u4) = %s, want 110", got)
	}
}
