package ops

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/gtest"
)

func TestExistsSelectorsMatchBinaryOperators(t *testing.T) {
	g := core.PaperExample()
	tl := g.Timeline()
	t1, t2 := tl.Point(0), tl.Point(1)

	stab := StabilityView(g, Exists(t1), Exists(t2))
	inter := Intersection(g, t1, t2)
	if !eq(viewNodes(stab), viewNodes(inter)) || !eq(viewEdges(stab), viewEdges(inter)) {
		t.Error("StabilityView with Exists selectors should equal Intersection")
	}
	if !stab.Times().Equal(inter.Times()) {
		t.Error("Times differ")
	}

	diff := DifferenceView(g, Exists(t1), Exists(t2))
	plain := Difference(g, t1, t2)
	if !eq(viewNodes(diff), viewNodes(plain)) || !eq(viewEdges(diff), viewEdges(plain)) {
		t.Error("DifferenceView with Exists selectors should equal Difference")
	}
}

func TestForAllSemantics(t *testing.T) {
	g := core.PaperExample()
	tl := g.Timeline()
	// Entities existing at every point of [t0,t2]: u2, u4 and edge u2→u4.
	v := StabilityView(g, ForAll(tl.All()), ForAll(tl.All()))
	if got := viewNodes(v); !eq(got, []string{"u2", "u4"}) {
		t.Errorf("ForAll nodes = %v", got)
	}
	if got := viewEdges(v); !eq(got, []string{"u2-u4"}) {
		t.Errorf("ForAll edges = %v", got)
	}
}

func TestForAllEmptyIntervalMatchesNothing(t *testing.T) {
	g := core.PaperExample()
	tl := g.Timeline()
	v := StabilityView(g, ForAll(tl.Empty()), Exists(tl.All()))
	if v.NumNodes() != 0 || v.NumEdges() != 0 {
		t.Errorf("ForAll(∅) should match nothing, got %d/%d", v.NumNodes(), v.NumEdges())
	}
	// Exists(∅) likewise.
	v2 := StabilityView(g, Exists(tl.Empty()), Exists(tl.All()))
	if v2.NumNodes() != 0 {
		t.Errorf("Exists(∅) should match nothing, got %d nodes", v2.NumNodes())
	}
}

func TestDifferenceViewForAllNeg(t *testing.T) {
	g := core.PaperExample()
	tl := g.Timeline()
	// Growth at t2 w.r.t. ForAll([t0,t1]): edges existing at t2 but not
	// throughout [t0,t1] — u2→u4 exists at both t0 and t1, so it is
	// excluded; u4→u5 and u2→u5 are new.
	v := DifferenceView(g, Exists(tl.Point(2)), ForAll(tl.Range(0, 1)))
	if got := viewEdges(v); !eq(got, []string{"u2-u5", "u4-u5"}) {
		t.Errorf("edges = %v", got)
	}
	// With Exists semantics on the old side, u2→u4 is also excluded (it
	// intersects [t0,t1]) — same outcome here, but under ForAll an edge
	// that existed only at t1 would be kept.
	u1, _ := g.NodeByLabel("u1")
	u4, _ := g.NodeByLabel("u4")
	if _, ok := edgeByEndpoints(g, u1, u4); !ok {
		t.Fatal("fixture edge (u1,u4) missing")
	}
	// (u1,u4) exists only at t1: not at t2, so not part of either view.
	if v.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", v.NumEdges())
	}
}

func TestQuickSelectorGeneralization(t *testing.T) {
	// With Exists selectors the generalized views must coincide with the
	// paper's binary operators on random graphs; ForAll views are always
	// subsets of their Exists counterparts.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := gtest.RandomGraph(r, gtest.DefaultParams())
		tl := g.Timeline()
		t1 := gtest.RandomInterval(r, tl)
		t2 := gtest.RandomInterval(r, tl)

		stab := StabilityView(g, Exists(t1), Exists(t2))
		inter := Intersection(g, t1, t2)
		if !eq(viewNodes(stab), viewNodes(inter)) || !eq(viewEdges(stab), viewEdges(inter)) {
			return false
		}
		diff := DifferenceView(g, Exists(t1), Exists(t2))
		plain := Difference(g, t1, t2)
		if !eq(viewNodes(diff), viewNodes(plain)) || !eq(viewEdges(diff), viewEdges(plain)) {
			return false
		}
		// ForAll ⊆ Exists on the same intervals.
		strict := StabilityView(g, ForAll(t1), ForAll(t2))
		ok := true
		strict.ForEachNode(func(n core.NodeID) {
			if !stab.ContainsNode(n) {
				ok = false
			}
		})
		strict.ForEachEdge(func(e core.EdgeID) {
			if !stab.ContainsEdge(e) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
