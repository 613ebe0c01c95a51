package explore

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/evolution"
	"repro/internal/gtest"
	"repro/internal/ops"
)

// anyExplorer builds an explorer over a random graph with a random
// attribute subset (static, varying or mixed) and random kind. Engine
// equivalence must hold regardless of monotonicity: the fast path and the
// seed path follow the same control flow over the same result values.
func anyExplorer(r *rand.Rand) *Explorer {
	g := gtest.RandomGraph(r, gtest.DefaultParams())
	if g.NumAttrs() == 0 {
		return nil
	}
	attrs := make([]core.AttrID, g.NumAttrs())
	for a := range attrs {
		attrs[a] = core.AttrID(a)
	}
	r.Shuffle(len(attrs), func(i, j int) { attrs[i], attrs[j] = attrs[j], attrs[i] })
	attrs = attrs[:1+r.Intn(len(attrs))]
	kind := agg.Distinct
	if r.Intn(2) == 0 {
		kind = agg.All
	}
	result := TotalEdges
	if r.Intn(2) == 0 {
		result = TotalNodes
	}
	return &Explorer{
		Graph:  g,
		Schema: agg.MustSchema(g, attrs...),
		Kind:   kind,
		Result: result,
	}
}

// TestQuickFastPathMatchesSeed checks, across all 12 Table 1 cases on
// random graphs, that the incremental-view fast path returns bit-identical
// pairs, ordering and Evaluations counts to the seed selector-view engine
// (NoFastPath), for both Explore and Naive.
func TestQuickFastPathMatchesSeed(t *testing.T) {
	events := []Event{evolution.Stability, evolution.Growth, evolution.Shrinkage}
	sems := []Semantics{UnionSemantics, IntersectionSemantics}
	exts := []Extend{ExtendOld, ExtendNew}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ex := anyExplorer(r)
		if ex == nil {
			return true
		}
		_, max := ex.InitK(events[r.Intn(len(events))])
		k := int64(1)
		if max > 0 {
			k = 1 + r.Int63n(max+1)
		}
		for _, ev := range events {
			for _, sem := range sems {
				for _, ext := range exts {
					ex.NoFastPath = true
					seedPairs := ex.Explore(ev, sem, ext, k)
					seedEvals := ex.Evaluations
					seedNaive := ex.Naive(ev, sem, ext, k)
					seedNaiveEvals := ex.Evaluations

					ex.NoFastPath = false
					fast := ex.Explore(ev, sem, ext, k)
					if !samePairs(fast, seedPairs) || ex.Evaluations != seedEvals {
						return false
					}
					fastNaive := ex.Naive(ev, sem, ext, k)
					if !samePairs(fastNaive, seedNaive) || ex.Evaluations != seedNaiveEvals {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestFastPathReusesPointIndex: two explorers and a TOP on one graph share
// one point index — the graph's, built once — and a second graph gets its
// own.
func TestFastPathReusesPointIndex(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	ex := staticExplorer(r)
	for ex == nil {
		ex = staticExplorer(r)
	}
	g := ex.Graph
	ex.Explore(evolution.Stability, UnionSemantics, ExtendNew, 1)
	first := g.PointIndex()
	other := &Explorer{Graph: g, Schema: ex.Schema, Kind: ex.Kind, Result: TotalNodes}
	other.Explore(evolution.Growth, IntersectionSemantics, ExtendOld, 1)
	TopEdgeTuples(other, evolution.Shrinkage, 3)
	if g.PointIndex() != first {
		t.Fatal("point index rebuilt for the same graph")
	}
	// What the views read is that index, not a copy an explorer built.
	iv := ops.NewIncrementalView(g, 0)
	if !iv.Nodes().Equal(first.NodesAt(0)) || !iv.Edges().Equal(first.EdgesAt(0)) {
		t.Fatal("incremental view does not read the graph's point index")
	}
	g2 := gtest.RandomGraph(r, gtest.DefaultParams())
	if g2.PointIndex() == first {
		t.Fatal("two graphs share a point index")
	}
}
