package agg

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gtest"
	"repro/internal/ops"
	"repro/internal/timeline"
)

// twoInThree admits about two appearances in three, depending on both the
// node and the time point.
func twoInThree(n core.NodeID, t timeline.Time) bool { return (int(n)+2*int(t))%3 != 0 }

// filteredMap is the filtered-aggregation oracle: the entity-major map loop
// over each entity's restricted timestamp, keeping the appearances filter
// admits (an edge's needs both endpoints to pass).
func filteredMap(v *ops.View, s *Schema, kind Kind, filter Filter) *Graph {
	g := s.Graph()
	ag := &Graph{Schema: s, Kind: kind, Nodes: map[Tuple]int64{}, Edges: map[EdgeKey]int64{}}
	v.ForEachNodeIn(0, g.NumNodes(), func(n core.NodeID) {
		seen := map[Tuple]bool{}
		v.NodeTimes(n).ForEach(func(t int) {
			tu, ok := s.TupleAt(n, timeline.Time(t))
			if !ok || !filter(n, timeline.Time(t)) || kind == Distinct && seen[tu] {
				return
			}
			seen[tu] = true
			ag.Nodes[tu]++
		})
	})
	v.ForEachEdgeIn(0, g.NumEdges(), func(e core.EdgeID) {
		ep, seen := g.Edge(e), map[EdgeKey]bool{}
		v.EdgeTimes(e).ForEach(func(t int) {
			tt := timeline.Time(t)
			fu, ok1 := s.TupleAt(ep.U, tt)
			tu, ok2 := s.TupleAt(ep.V, tt)
			k := EdgeKey{fu, tu}
			if !ok1 || !ok2 || !filter(ep.U, tt) || !filter(ep.V, tt) || kind == Distinct && seen[k] {
				return
			}
			seen[k] = true
			ag.Edges[k]++
		})
	})
	return ag
}

// checkOracles renders every kernel entry point on every view and kind and
// compares the bytes with its oracle's: Aggregate and AggregateParallelCtx
// with AggregateMap, AggregateFiltered with filteredMap.
func checkOracles(t *testing.T, what string, s *Schema, views []*ops.View) {
	t.Helper()
	for vi, v := range views {
		for _, kind := range []Kind{Distinct, All} {
			want := AggregateMap(v, s, kind).String()
			for engine, got := range map[string]*Graph{"serial": Aggregate(v, s, kind), "parallel": aggregateParallel(v, s, kind, 3)} {
				if got.String() != want {
					t.Fatalf("%s %v view %d %s: %s kernel\n%s\nAggregateMap\n%s", what, s.AttrNames(), vi, kind, engine, got, want)
				}
			}
			got, want := mustFiltered(t, v, s, kind, twoInThree).String(), filteredMap(v, s, kind, twoInThree).String()
			if got != want {
				t.Fatalf("%s %v view %d %s: AggregateFiltered\n%s\nfiltered oracle\n%s", what, s.AttrNames(), vi, kind, got, want)
			}
		}
	}
}

// TestFilteredKernelMatchesOracle: AggregateFiltered runs the time-major
// kernel under every schema — static ones included — and matches the
// filtered map loop on random graphs and multi-word timelines.
func TestFilteredKernelMatchesOracle(t *testing.T) {
	defer forceParallel(t)()
	r := rand.New(rand.NewSource(41))
	graphs := []*core.Graph{gtest.LongLivedGraph(r, 200)}
	for i := 0; i < 30; i++ {
		graphs = append(graphs, gtest.RandomGraph(r, gtest.DefaultParams()))
	}
	for i, g := range graphs {
		var all []core.AttrID
		for a := 0; a < g.NumAttrs(); a++ {
			all = append(all, core.AttrID(a))
			checkOracles(t, fmt.Sprintf("graph %d", i), MustSchema(g, core.AttrID(a)), scanViews(r, g))
		}
		if len(all) > 1 {
			checkOracles(t, fmt.Sprintf("graph %d", i), MustSchema(g, all...), scanViews(r, g))
		}
	}
}

// TestLargeDomainMatchesMap runs the kernels where their accumulators leave
// flat arrays for maps: the four-attribute MovieLens schema (domain 9,828,
// ~10⁸ edge codes) on every operator, and wide synthetic schemas whose
// codes outgrow int32 — edge codes on the varying one (domain 50,000 >
// 46,341), node codes on the mixed one (domain 2.5·10⁹ > 2³¹).
func TestLargeDomainMatchesMap(t *testing.T) {
	defer forceParallel(t)()
	m := dataset.MovieLensScaled(1, 0.05)
	tl := m.Timeline()
	mid, last := timeline.Time(tl.Len()/2), timeline.Time(tl.Len()-1)
	a, b := tl.Range(0, mid), tl.Range(mid, last)
	s := MustSchema(m, m.MustAttr("gender"), m.MustAttr("age"), m.MustAttr("occupation"), m.MustAttr("rating"))
	checkOracles(t, "movielens", s, []*ops.View{
		ops.Union(m, a, b), ops.Intersection(m, a, b), ops.Difference(m, a, b), ops.Difference(m, b, a),
	})

	r := rand.New(rand.NewSource(43))
	wide := gtest.WideGraph(r, 400, 8, 50_000, 50_000, 3)
	for _, attrs := range [][]core.AttrID{{0, 2}, {1}, {1, 0}} {
		checkOracles(t, "wide", MustSchema(wide, attrs...), scanViews(r, wide))
	}
}
