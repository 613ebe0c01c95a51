package ops

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/gtest"
	"repro/internal/timeline"
)

// viewsEqual compares two views entity-for-entity and interval-for-interval.
func viewsEqual(a, b *View) bool {
	return a.g == b.g && a.nodes.Equal(b.nodes) && a.edges.Equal(b.edges) &&
		a.times.Equal(b.times)
}

// TestQuickIncrementalMatchesScratch is the randomized property test of the
// incremental fast path: after N single-point extensions in a random
// direction, an IncrementalView must equal the from-scratch operator result
// — ops.Union under union semantics, the ForAll StabilityView (the §3.1
// generalization of ops.Intersection) under intersection semantics — and
// the PairView combinations of two IncrementalViews must equal
// StabilityView/DifferenceView on the equivalent selectors.
func TestQuickIncrementalMatchesScratch(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := gtest.RandomGraph(r, gtest.DefaultParams())
		tl := g.Timeline()

		// Grow a contiguous interval one point at a time, extending left or
		// right at random, checking the invariant after every step.
		anchor := timeline.Time(r.Intn(tl.Len()))
		union := NewIncrementalView(g, anchor)
		inter := NewIncrementalView(g, anchor)
		lo, hi := anchor, anchor
		for step := 0; step < tl.Len()+2; step++ {
			// Union semantics: selection = Union(g, iv, iv) restricted sets.
			want := Union(g, union.Interval(), union.Interval())
			if !viewsEqual(union.View(), want) {
				return false
			}
			// Intersection semantics: entities existing at every point.
			fa := ForAll(inter.Interval())
			wantI := StabilityView(g, fa, fa)
			got := inter.View()
			if !got.nodes.Equal(wantI.nodes) || !got.edges.Equal(wantI.edges) {
				return false
			}
			// Extend one side at random.
			var next timeline.Time
			if r.Intn(2) == 0 && lo > 0 {
				lo--
				next = lo
			} else if hi+1 < timeline.Time(tl.Len()) {
				hi++
				next = hi
			} else if lo > 0 {
				lo--
				next = lo
			} else {
				break
			}
			union.ExtendUnion(next)
			inter.ExtendIntersect(next)
		}

		// Pair combinations against the scratch selectors, across random
		// anchored sides and both semantics per side; an edge-only combiner
		// must agree on edges and times and select no node.
		pv, epv := NewPairView(g), NewEdgePairView(g)
		edgesOf := func(got, want *View) bool {
			return got.nodes.IsEmpty() && got.edges.Equal(want.edges) && got.times.Equal(want.times)
		}
		for trial := 0; trial < 4; trial++ {
			mkSide := func() (*IncrementalView, Sel) {
				iv := NewIncrementalView(g, timeline.Time(r.Intn(tl.Len())))
				forAll := r.Intn(2) == 0
				for k := r.Intn(tl.Len()); k > 0; k-- {
					t := timeline.Time(r.Intn(tl.Len()))
					if forAll {
						iv.ExtendIntersect(t)
					} else {
						iv.ExtendUnion(t)
					}
				}
				if forAll {
					return iv, ForAll(iv.Interval())
				}
				return iv, Exists(iv.Interval())
			}
			oldIV, oldSel := mkSide()
			newIV, newSel := mkSide()
			if !viewsEqual(pv.Stability(oldIV, newIV), StabilityView(g, oldSel, newSel)) {
				return false
			}
			if !viewsEqual(pv.Difference(newIV, oldIV), DifferenceView(g, newSel, oldSel)) {
				return false
			}
			if !viewsEqual(pv.Difference(oldIV, newIV), DifferenceView(g, oldSel, newSel)) {
				return false
			}
			if !edgesOf(epv.Stability(oldIV, newIV), StabilityView(g, oldSel, newSel)) ||
				!edgesOf(epv.Difference(newIV, oldIV), DifferenceView(g, newSel, oldSel)) ||
				!edgesOf(epv.Difference(oldIV, newIV), DifferenceView(g, oldSel, newSel)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalViewReset checks that Reset reuses buffers correctly after
// arbitrary extension history.
func TestIncrementalViewReset(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g := gtest.RandomGraph(r, gtest.DefaultParams())
	tl := g.Timeline()
	iv := NewIncrementalView(g, 0)
	for t := 1; t < tl.Len(); t++ {
		iv.ExtendIntersect(timeline.Time(t))
	}
	iv.Reset(0)
	fresh := NewIncrementalView(g, 0)
	if !iv.nodes.Equal(fresh.nodes) || !iv.edges.Equal(fresh.edges) || !iv.Interval().Equal(fresh.Interval()) {
		t.Fatal("Reset did not restore the single-point state")
	}
}

// TestPointIndexMasks checks the graph's point index bit for bit against
// the timestamps it transposes, on graphs whose entity and time spaces both
// span several words, and against the projection's counts.
func TestPointIndexMasks(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	big := gtest.DefaultParams()
	big.MaxNodes, big.MaxEdges = 200, 900
	for _, g := range []*core.Graph{
		gtest.RandomGraph(r, gtest.DefaultParams()), gtest.RandomGraph(r, big), gtest.LongLivedGraph(r, 150),
	} {
		if err := gtest.PointIndexError(g); err != nil {
			t.Fatal(err)
		}
		ix := g.PointIndex()
		for t0 := 0; t0 < g.Timeline().Len(); t0++ {
			nodes, edges := ix.NodesAt(timeline.Time(t0)), ix.EdgesAt(timeline.Time(t0))
			if at := At(g, timeline.Time(t0)); nodes.Count() != at.NumNodes() || edges.Count() != at.NumEdges() {
				t.Fatalf("t=%d: mask counts %d/%d != projection %d/%d", t0, nodes.Count(), edges.Count(), at.NumNodes(), at.NumEdges())
			}
			if g.NodesAt(timeline.Time(t0)) != nodes.Count() || g.EdgesAt(timeline.Time(t0)) != edges.Count() {
				t.Fatalf("t=%d: NodesAt/EdgesAt disagree with the masks", t0)
			}
		}
	}
}
