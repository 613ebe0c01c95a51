package graphtempo_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	graphtempo "repro"
)

// TestFacadeQueryLanguage drives TGQL through the facade.
func TestFacadeQueryLanguage(t *testing.T) {
	g := graphtempo.PaperExample()
	r, err := graphtempo.Query(g, "AGG DIST gender, publications ON UNION(t0, t1)")
	if err != nil {
		t.Fatal(err)
	}
	f1, _ := r.Agg.Schema.Encode("f", "1")
	if r.Agg.NodeWeight(f1) != 3 {
		t.Fatalf("query w(f,1) = %d, want 3", r.Agg.NodeWeight(f1))
	}
	if _, err := graphtempo.Query(g, "NOT A QUERY"); err == nil {
		t.Error("invalid query should fail")
	}
	rt, err := graphtempo.Query(g, "TOP 1 GROWTH BY gender")
	if err != nil || len(rt.Top) != 1 {
		t.Fatalf("TOP result = %+v, err %v", rt, err)
	}
}

func TestFacadeMeasureAndFiltered(t *testing.T) {
	g := graphtempo.PaperExample()
	s := mustByName(t, g, "gender")
	v := graphtempo.At(g, 0)

	mg, err := graphtempo.AggregateMeasure(v, s, g.MustAttr("publications"), graphtempo.MeasureMax)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := s.Encode("m")
	if got, ok := mg.Value(m); !ok || got != 3 {
		t.Errorf("MAX(m) = %v, want 3", got)
	}

	pubs := g.MustAttr("publications")
	filtered := graphtempo.AggregateFiltered(v, s, graphtempo.Distinct,
		func(n graphtempo.NodeID, tp graphtempo.Time) bool {
			return g.ValueString(pubs, n, tp) == "1"
		})
	f, _ := s.Encode("f")
	if filtered.NodeWeight(f) != 2 {
		t.Errorf("filtered w(f) = %d, want 2 (u2, u3)", filtered.NodeWeight(f))
	}
	// Nil filter falls back to plain aggregation.
	if !graphtempo.AggregateFiltered(v, s, graphtempo.Distinct, nil).
		Equal(graphtempo.Aggregate(v, s, graphtempo.Distinct)) {
		t.Error("nil filter should equal Aggregate")
	}
}

func TestFacadeParallelAggregation(t *testing.T) {
	g := graphtempo.DBLPScaled(1, 0.02)
	tl := g.Timeline()
	v := graphtempo.Union(g, tl.All(), tl.All())
	s := mustByName(t, g, "gender", "publications")
	got := graphtempo.AggregateParallel(v, s, graphtempo.All, 4)
	want := graphtempo.Aggregate(v, s, graphtempo.All)
	if !got.Equal(want) {
		t.Fatal("facade parallel aggregation differs")
	}

	ctxGot, err := graphtempo.AggregateParallelCtx(context.Background(), v, s, graphtempo.All, 4)
	if err != nil || !ctxGot.Equal(want) {
		t.Fatalf("facade ctx aggregation: err %v, equal %v", err, ctxGot.Equal(want))
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := graphtempo.AggregateParallelCtx(canceled, v, s, graphtempo.All, 4); err != context.Canceled {
		t.Fatalf("canceled ctx aggregation returned %v, want context.Canceled", err)
	}
}

func TestFacadeDOTOutput(t *testing.T) {
	g := graphtempo.PaperExample()
	tl := g.Timeline()
	s := mustByName(t, g, "gender")
	ag := graphtempo.Aggregate(graphtempo.At(g, 0), s, graphtempo.Distinct)
	var buf bytes.Buffer
	if err := graphtempo.WriteAggregateDOT(&buf, ag); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "digraph aggregate") {
		t.Error("aggregate DOT malformed")
	}
	ev := graphtempo.AggregateEvolution(g, tl.Point(0), tl.Point(1), s, graphtempo.Distinct, nil)
	buf.Reset()
	if err := graphtempo.WriteEvolutionDOT(&buf, ev); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "digraph evolution") {
		t.Error("evolution DOT malformed")
	}
}

func TestFacadeEvolutionTimelineAndTopTuples(t *testing.T) {
	g := graphtempo.PaperExample()
	s := mustByName(t, g, "gender")
	steps := graphtempo.EvolutionTimeline(g, s, graphtempo.Distinct, nil)
	if len(steps) != 2 || steps[0].NodeSt != 3 {
		t.Fatalf("timeline = %+v", steps)
	}
	ex := &graphtempo.Explorer{Graph: g, Schema: s, Kind: graphtempo.Distinct, Result: graphtempo.TotalEdges}
	top := graphtempo.TopEdgeTuples(ex, graphtempo.Growth, 1)
	if len(top) != 1 || top[0].Peak != 2 {
		t.Fatalf("top = %+v", top)
	}
}

func TestFacadeStreaming(t *testing.T) {
	series := graphtempo.NewStreamSeries(
		graphtempo.AttrSpec{Name: "kind", Kind: graphtempo.Static})
	snap := graphtempo.StreamSnapshot{
		Nodes: []graphtempo.StreamNode{
			{Label: "a", Static: map[string]string{"kind": "x"}},
			{Label: "b", Static: map[string]string{"kind": "y"}},
		},
		Edges: []graphtempo.StreamEdge{{U: "a", V: "b"}},
	}
	if err := series.Append("t0", snap); err != nil {
		t.Fatal(err)
	}
	g, err := series.Graph()
	if err != nil || g.NumNodes() != 2 {
		t.Fatalf("graph: %v, %v", g, err)
	}
	kind := mustByName(t, g, "kind")
	window, _, err := graphtempo.NewMatCatalog(g).UnionAll(g.Timeline().All(), kind.Attrs()...)
	if err != nil {
		t.Fatal(err)
	}
	if len(window.Nodes) != 2 || len(window.Edges) != 1 {
		t.Errorf("window = %v", window)
	}
	for pair, w := range window.Edges {
		if kind.Label(pair.From) != "x" || kind.Label(pair.To) != "y" || w != 1 {
			t.Errorf("window edge (%s)→(%s) weight %d", kind.Label(pair.From), kind.Label(pair.To), w)
		}
	}
}

// TestFacadeEmptyProjection: projecting onto no time points keeps nothing —
// Definition 2.1 admits no entity with an empty timestamp — so its aggregate
// has no groups. (It used to keep the whole graph: "exists throughout ∅"
// held vacuously, and DIST on gender answered f=3, m=2 and three edges.)
func TestFacadeEmptyProjection(t *testing.T) {
	g := graphtempo.PaperExample()
	none := g.Timeline().Empty()
	v := graphtempo.Project(g, none)
	if v.NumNodes() != 0 || v.NumEdges() != 0 {
		t.Fatalf("Project(g, ∅) keeps %d nodes and %d edges", v.NumNodes(), v.NumEdges())
	}
	for _, kind := range []graphtempo.AggKind{graphtempo.Distinct, graphtempo.All} {
		if ag := graphtempo.Aggregate(v, mustByName(t, g, "gender"), kind); len(ag.Nodes) != 0 || len(ag.Edges) != 0 {
			t.Errorf("%s aggregate of an empty projection:\n%s", kind, ag)
		}
	}
	if u := graphtempo.Union(g, none, none); u.NumNodes() != 0 || u.NumEdges() != 0 {
		t.Errorf("Union(g, ∅, ∅) keeps %d nodes and %d edges", u.NumNodes(), u.NumEdges())
	}
}
