package graphtempo_test

import (
	"strings"
	"testing"

	graphtempo "repro"
	"repro/internal/core"
	"repro/internal/timeline"
)

// TestFacadeEndToEnd drives the whole public API surface on the paper's
// running example, asserting the headline numbers of Figs. 2–4.
func TestFacadeEndToEnd(t *testing.T) {
	g := graphtempo.PaperExample()
	tl := g.Timeline()

	if g.NumNodes() != 5 || g.NumEdges() != 6 {
		t.Fatalf("fixture sizes = %d/%d", g.NumNodes(), g.NumEdges())
	}

	union := graphtempo.Union(g, tl.Point(0), tl.Point(1))
	if union.NumNodes() != 4 || union.NumEdges() != 4 {
		t.Fatalf("union = %d/%d, want 4/4 (Fig. 2)", union.NumNodes(), union.NumEdges())
	}

	schema, err := graphtempo.SchemaByName(g, "gender", "publications")
	if err != nil {
		t.Fatal(err)
	}
	dist := graphtempo.Aggregate(union, schema, graphtempo.Distinct)
	f1, ok := schema.Encode("f", "1")
	if !ok {
		t.Fatal("Encode failed")
	}
	if dist.NodeWeight(f1) != 3 {
		t.Fatalf("DIST w(f,1) = %d, want 3 (Fig. 3d)", dist.NodeWeight(f1))
	}
	all := graphtempo.Aggregate(union, schema, graphtempo.All)
	if all.NodeWeight(f1) != 4 {
		t.Fatalf("ALL w(f,1) = %d, want 4 (Fig. 3e)", all.NodeWeight(f1))
	}

	ev := graphtempo.AggregateEvolution(g, tl.Point(0), tl.Point(1),
		schema, graphtempo.Distinct, nil)
	w := ev.NodeWeights(f1)
	if w.St != 1 || w.Gr != 1 || w.Shr != 1 {
		t.Fatalf("evolution weights(f,1) = %+v, want 1/1/1 (Fig. 4b)", w)
	}

	gender, err := graphtempo.SchemaByName(g, "gender")
	if err != nil {
		t.Fatal(err)
	}
	ex := &graphtempo.Explorer{
		Graph:  g,
		Schema: gender,
		Kind:   graphtempo.Distinct,
		Result: graphtempo.TotalEdges,
	}
	pairs := ex.Explore(graphtempo.Stability, graphtempo.UnionSemantics, graphtempo.ExtendNew, 2)
	if len(pairs) != 1 || pairs[0].Result != 2 {
		t.Fatalf("exploration pairs = %v", pairs)
	}

	// Materialization facade.
	store := graphtempo.NewMatStore(g, schema)
	composed := store.UnionAll(tl.Range(0, 1))
	scratch := graphtempo.Aggregate(union, schema, graphtempo.All)
	if !composed.Equal(scratch) {
		t.Fatal("materialized composition differs from scratch")
	}
	cat := graphtempo.NewMatCatalog(g)
	if _, err := cat.Materialize(g.MustAttr("gender")); err != nil {
		t.Fatal(err)
	}
	if _, src, err := cat.UnionAll(tl.Range(0, 2), g.MustAttr("gender")); err != nil || src.String() != "t-distributive" {
		t.Fatalf("catalog source = %v, err %v", src, err)
	}
}

// TestFacadeBuilderAndIO writes a built graph through the facade and reads
// it back.
func TestFacadeBuilderAndIO(t *testing.T) {
	tl, err := timeline.New("jan", "feb")
	if err != nil {
		t.Fatal(err)
	}
	b := core.NewBuilder(tl,
		graphtempo.AttrSpec{Name: "team", Kind: graphtempo.Static})
	n1 := b.AddNode("alice")
	n2 := b.AddNode("bob")
	b.SetNodeTime(n1, 0)
	b.SetNodeTime(n1, 1)
	b.SetNodeTime(n2, 1)
	b.SetStatic(0, n1, "core")
	b.SetStatic(0, n2, "infra")
	e := b.AddEdge(n1, n2)
	b.SetEdgeTime(e, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := graphtempo.WriteGraphDir(g, dir); err != nil {
		t.Fatal(err)
	}
	back, err := core.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != 2 || back.NumEdges() != 1 {
		t.Fatalf("round trip sizes = %d/%d", back.NumNodes(), back.NumEdges())
	}

	stats := graphtempo.ComputeStats(back)
	if stats.Nodes[0] != 1 || stats.Nodes[1] != 2 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestFacadeDatasets(t *testing.T) {
	d := graphtempo.DBLPScaled(1, 0.01)
	if d.Timeline().Len() != 21 {
		t.Error("DBLP should span 21 years")
	}
	m := graphtempo.MovieLensScaled(1, 0.05)
	if m.Timeline().Len() != 6 {
		t.Error("MovieLens should span 6 months")
	}
	c := graphtempo.SchoolContacts(1, graphtempo.DefaultContactsParams())
	if _, ok := c.AttrByName("grade"); !ok {
		t.Error("contacts graph should have a grade attribute")
	}
	// Selector facades.
	tlm := m.Timeline()
	v := graphtempo.StabilityView(m, graphtempo.Exists(tlm.Point(0)), graphtempo.ForAllOf(tlm.Range(1, 2)))
	if v.NumNodes() == 0 {
		t.Error("stability view should keep retained users")
	}
	dv := graphtempo.DifferenceView(m, graphtempo.Exists(tlm.Point(1)), graphtempo.Exists(tlm.Point(0)))
	if dv.NumEdges() == 0 {
		t.Error("difference view should find new co-ratings")
	}
	// Rollup via facade.
	s, _ := graphtempo.SchemaByName(m, "gender", "age")
	ag := graphtempo.Aggregate(graphtempo.At(m, 0), s, graphtempo.Distinct)
	rolled, err := graphtempo.Rollup(ag, m.MustAttr("gender"))
	if err != nil {
		t.Fatal(err)
	}
	direct := graphtempo.Aggregate(graphtempo.At(m, 0), mustByName(t, m, "gender"), graphtempo.Distinct)
	if !rolled.Equal(direct) {
		t.Error("facade rollup differs from direct aggregation")
	}
	// Result-func facades.
	if _, err := graphtempo.EdgeTupleResult(s, []string{"F", "zz"}, []string{"F", "zz"}); err == nil ||
		!strings.Contains(err.Error(), "domain") {
		t.Error("EdgeTupleResult should reject out-of-domain values")
	}
}

func mustByName(t *testing.T, g *graphtempo.Graph, names ...string) *graphtempo.AggSchema {
	t.Helper()
	s, err := graphtempo.SchemaByName(g, names...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFacadeCubeCoarsenIndex(t *testing.T) {
	g := graphtempo.PaperExample()

	// Coarsen.
	spec, err := graphtempo.UniformGroups(g.Timeline(), 2)
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := graphtempo.Coarsen(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	if coarse.Timeline().Len() != 2 {
		t.Errorf("coarse timeline = %d points, want 2", coarse.Timeline().Len())
	}

	// The mask evaluator of an all-static schema equals the seed path.
	s := mustByName(t, g, "gender")
	ff, err := graphtempo.EdgeTupleResult(s, []string{"f"}, []string{"f"})
	if err != nil {
		t.Fatal(err)
	}
	general := &graphtempo.Explorer{Graph: g, Schema: s, Kind: graphtempo.Distinct, Result: ff}
	seed := &graphtempo.Explorer{Graph: g, Schema: s, Kind: graphtempo.Distinct, Result: ff, NoFastPath: true}
	a := general.Explore(graphtempo.Stability, graphtempo.UnionSemantics, graphtempo.ExtendNew, 1)
	bPairs := seed.Explore(graphtempo.Stability, graphtempo.UnionSemantics, graphtempo.ExtendNew, 1)
	if len(a) != len(bPairs) || len(a) == 0 || a[0].Result != bPairs[0].Result {
		t.Errorf("fast %v, seed %v", a, bPairs)
	}

	// TuneK through the facade type.
	k, pairs := general.TuneK(graphtempo.Stability, graphtempo.UnionSemantics, graphtempo.ExtendNew, 1)
	if k < 1 || len(pairs) == 0 {
		t.Errorf("TuneK = %d with %d pairs", k, len(pairs))
	}
}
