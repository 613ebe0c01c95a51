package materialize

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ops"
	"repro/internal/timeline"
)

// equalAgg compares two aggregate graphs by contents.
func equalAgg(t *testing.T, label string, got, want *agg.Graph) {
	t.Helper()
	if len(got.Nodes) != len(want.Nodes) || len(got.Edges) != len(want.Edges) {
		t.Fatalf("%s: sizes diverge: nodes %d/%d edges %d/%d",
			label, len(got.Nodes), len(want.Nodes), len(got.Edges), len(want.Edges))
	}
	for tu, w := range want.Nodes {
		if got.Nodes[tu] != w {
			t.Fatalf("%s: node %v weight %d, want %d", label, tu, got.Nodes[tu], w)
		}
	}
	for k, w := range want.Edges {
		if got.Edges[k] != w {
			t.Fatalf("%s: edge %v weight %d, want %d", label, k, got.Edges[k], w)
		}
	}
	if got.Kind != want.Kind {
		t.Fatalf("%s: kind %v, want %v", label, got.Kind, want.Kind)
	}
}

// TestStaticStoreMatchesMapOracle cross-checks a static schema's store —
// one kernel aggregation per point over the schema's static code row —
// against the hash-map engine at every point, on DBLP and on random graphs
// with long timelines and incomplete tuples.
func TestStaticStoreMatchesMapOracle(t *testing.T) {
	check := func(name string, g *core.Graph, attrs ...core.AttrID) {
		s := agg.MustSchema(g, attrs...)
		st := NewStore(g, s)
		for i := 0; i < g.Timeline().Len(); i++ {
			want := agg.AggregateMap(ops.At(g, timeline.Time(i)), s, agg.All)
			equalAgg(t, fmt.Sprintf("%s point %d", name, i), st.Point(timeline.Time(i)), want)
		}
	}

	dblp := dataset.DBLPScaled(42, 0.05)
	check("dblp/gender", dblp, dblp.MustAttr("gender"))

	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		T := 65 + rng.Intn(200)
		labels := make([]string, T)
		for i := range labels {
			labels[i] = fmt.Sprintf("t%d", i)
		}
		tl := timeline.MustNew(labels...)
		b := core.NewBuilder(tl, core.AttrSpec{Name: "grp", Kind: core.Static})
		nNodes := 5 + rng.Intn(40)
		lifeLo := make([]int, nNodes) // contiguous lifetimes, tracked for edges
		lifeHi := make([]int, nNodes)
		for n := 0; n < nNodes; n++ {
			id := b.AddNode(fmt.Sprintf("n%d", n))
			lo := rng.Intn(T)
			hi := lo + 1 + rng.Intn(T-lo)
			lifeLo[n], lifeHi[n] = lo, hi
			for tt := lo; tt < hi; tt++ {
				b.SetNodeTime(id, timeline.Time(tt))
			}
			if rng.Intn(8) != 0 { // leave some tuples incomplete
				b.SetStatic(0, id, fmt.Sprintf("g%d", rng.Intn(3)))
			}
		}
		for k := 0; k < 2*nNodes; k++ {
			u := rng.Intn(nNodes)
			v := rng.Intn(nNodes)
			lo := max(lifeLo[u], lifeLo[v])
			hi := min(lifeHi[u], lifeHi[v])
			if lo >= hi {
				continue
			}
			e := b.AddEdge(core.NodeID(u), core.NodeID(v))
			for tt := lo; tt < hi; tt++ {
				if tt == lo || rng.Intn(3) > 0 { // mostly-run edge lifetimes
					b.SetEdgeTime(e, timeline.Time(tt))
				}
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		check(fmt.Sprintf("random %d", trial), g, 0)
	}
}
