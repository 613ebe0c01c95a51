package graphtempo_test

import (
	"bytes"
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

// TestFacadeMeasureAndFiltered: numeric measures and appearance filters
// reach library users as TGQL clauses.
func TestFacadeMeasureAndFiltered(t *testing.T) {
	g := graphtempo.PaperExample()
	s := mustByName(t, g, "gender")

	r, err := graphtempo.Query(g, "AGG DIST gender ON POINT t0 MEASURE MAX(publications)")
	if err != nil {
		t.Fatal(err)
	}
	m, _ := s.Encode("m")
	if got, ok := r.Measure.Value(m); !ok || got != 3 {
		t.Errorf("MAX(m) = %v, want 3", got)
	}

	r, err = graphtempo.Query(g, "AGG DIST gender ON POINT t0 WHERE publications = 1")
	if err != nil {
		t.Fatal(err)
	}
	f, _ := s.Encode("f")
	if r.Agg.NodeWeight(f) != 2 {
		t.Errorf("filtered w(f) = %d, want 2 (u2, u3)", r.Agg.NodeWeight(f))
	}
}

func TestFacadeDOTOutput(t *testing.T) {
	g := graphtempo.PaperExample()
	tl := g.Timeline()
	s := mustByName(t, g, "gender")
	ev := graphtempo.AggregateEvolution(g, tl.Point(0), tl.Point(1), s, graphtempo.Distinct, nil)
	var buf bytes.Buffer
	if err := graphtempo.WriteEvolutionDOT(&buf, ev); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "digraph evolution") {
		t.Error("evolution DOT malformed")
	}
}

func TestFacadeEvolutionTimelineAndTopTuples(t *testing.T) {
	g := graphtempo.PaperExample()
	r, err := graphtempo.Query(g, "TIMELINE BY gender")
	if err != nil || len(r.Timeline) != 2 || r.Timeline[0].NodeSt != 3 {
		t.Fatalf("timeline = %+v, err %v", r.Timeline, err)
	}
	r, err = graphtempo.Query(g, "TOP 1 GROWTH BY gender")
	if err != nil || len(r.Top) != 1 || r.Top[0].Peak != 2 {
		t.Fatalf("top = %+v, err %v", r.Top, err)
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
