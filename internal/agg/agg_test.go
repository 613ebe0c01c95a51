package agg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/gtest"
	"repro/internal/ops"
	"repro/internal/timeline"
)

func fixtureSchemas(t *testing.T) (*core.Graph, *Schema, *Schema) {
	t.Helper()
	g := core.PaperExample()
	gp, err := ByName(g, "gender", "publications")
	if err != nil {
		t.Fatal(err)
	}
	gOnly, err := ByName(g, "gender")
	if err != nil {
		t.Fatal(err)
	}
	return g, gp, gOnly
}

// weight looks up an aggregate node weight by attribute values.
func weight(t *testing.T, ag *Graph, values ...string) int64 {
	t.Helper()
	tu, ok := ag.Schema.Encode(values...)
	if !ok {
		return 0
	}
	return ag.NodeWeight(tu)
}

func edgeWeight(t *testing.T, ag *Graph, from, to []string) int64 {
	t.Helper()
	f, ok1 := ag.Schema.Encode(from...)
	s, ok2 := ag.Schema.Encode(to...)
	if !ok1 || !ok2 {
		return 0
	}
	return ag.EdgeWeight(f, s)
}

func TestFig3aTimePointT0(t *testing.T) {
	g, gp, _ := fixtureSchemas(t)
	ag := Aggregate(ops.At(g, 0), gp, Distinct)
	cases := []struct {
		vals []string
		want int64
	}{
		{[]string{"m", "3"}, 1},
		{[]string{"f", "1"}, 2},
		{[]string{"f", "2"}, 1},
	}
	for _, c := range cases {
		if got := weight(t, ag, c.vals...); got != c.want {
			t.Errorf("w(%v) = %d, want %d", c.vals, got, c.want)
		}
	}
	if len(ag.Nodes) != 3 {
		t.Errorf("aggregate node count = %d, want 3", len(ag.Nodes))
	}
	if got := edgeWeight(t, ag, []string{"m", "3"}, []string{"f", "1"}); got != 2 {
		t.Errorf("w((m,3)→(f,1)) = %d, want 2", got)
	}
	if got := edgeWeight(t, ag, []string{"f", "1"}, []string{"f", "2"}); got != 1 {
		t.Errorf("w((f,1)→(f,2)) = %d, want 1", got)
	}
}

func TestFig3bcTimePointsT1T2(t *testing.T) {
	g, gp, _ := fixtureSchemas(t)
	ag1 := Aggregate(ops.At(g, 1), gp, Distinct)
	if got := weight(t, ag1, "f", "1"); got != 2 {
		t.Errorf("t1 w(f,1) = %d, want 2", got)
	}
	if got := weight(t, ag1, "m", "1"); got != 1 {
		t.Errorf("t1 w(m,1) = %d, want 1", got)
	}
	if got := edgeWeight(t, ag1, []string{"m", "1"}, []string{"f", "1"}); got != 2 {
		t.Errorf("t1 w((m,1)→(f,1)) = %d, want 2", got)
	}
	if got := edgeWeight(t, ag1, []string{"f", "1"}, []string{"f", "1"}); got != 1 {
		t.Errorf("t1 w((f,1)→(f,1)) = %d, want 1", got)
	}

	ag2 := Aggregate(ops.At(g, 2), gp, Distinct)
	if got := weight(t, ag2, "f", "1"); got != 2 {
		t.Errorf("t2 w(f,1) = %d, want 2", got)
	}
	if got := weight(t, ag2, "m", "3"); got != 1 {
		t.Errorf("t2 w(m,3) = %d, want 1", got)
	}
	if got := edgeWeight(t, ag2, []string{"f", "1"}, []string{"m", "3"}); got != 2 {
		t.Errorf("t2 w((f,1)→(m,3)) = %d, want 2", got)
	}
}

// TestFig3dDistinctUnion asserts the paper's headline example: on the union
// graph of (t0, t1), the DIST weight of (f,1) is 3 (nodes u2, u3, u4).
func TestFig3dDistinctUnion(t *testing.T) {
	g, gp, _ := fixtureSchemas(t)
	tl := g.Timeline()
	v := ops.Union(g, tl.Point(0), tl.Point(1))
	ag := Aggregate(v, gp, Distinct)
	if got := weight(t, ag, "f", "1"); got != 3 {
		t.Fatalf("DIST w(f,1) = %d, want 3 (paper Fig. 3d)", got)
	}
	if got := weight(t, ag, "f", "2"); got != 1 {
		t.Errorf("DIST w(f,2) = %d, want 1", got)
	}
	if got := weight(t, ag, "m", "3"); got != 1 {
		t.Errorf("DIST w(m,3) = %d, want 1", got)
	}
	if got := weight(t, ag, "m", "1"); got != 1 {
		t.Errorf("DIST w(m,1) = %d, want 1", got)
	}
	if got := edgeWeight(t, ag, []string{"m", "3"}, []string{"f", "1"}); got != 2 {
		t.Errorf("DIST w((m,3)→(f,1)) = %d, want 2 (edges u1→u2@t0, u1→u3@t0)", got)
	}
}

// TestFig3eAllUnion asserts the non-distinct counterpart: ALL weight of
// (f,1) is 4 (u2 twice, u3 once, u4 once).
func TestFig3eAllUnion(t *testing.T) {
	g, gp, _ := fixtureSchemas(t)
	tl := g.Timeline()
	v := ops.Union(g, tl.Point(0), tl.Point(1))
	ag := Aggregate(v, gp, All)
	if got := weight(t, ag, "f", "1"); got != 4 {
		t.Fatalf("ALL w(f,1) = %d, want 4 (paper Fig. 3e)", got)
	}
}

func TestStaticFastPathGenderUnion(t *testing.T) {
	g, _, gOnly := fixtureSchemas(t)
	if !gOnly.AllStatic() {
		t.Fatal("gender-only schema should be all-static")
	}
	tl := g.Timeline()
	v := ops.Union(g, tl.Point(0), tl.Point(1))

	dist := Aggregate(v, gOnly, Distinct)
	if got := weight(t, dist, "f"); got != 3 {
		t.Errorf("DIST w(f) = %d, want 3", got)
	}
	if got := weight(t, dist, "m"); got != 1 {
		t.Errorf("DIST w(m) = %d, want 1", got)
	}
	if got := edgeWeight(t, dist, []string{"m"}, []string{"f"}); got != 3 {
		t.Errorf("DIST w(m→f) = %d, want 3", got)
	}
	if got := edgeWeight(t, dist, []string{"f"}, []string{"f"}); got != 1 {
		t.Errorf("DIST w(f→f) = %d, want 1", got)
	}

	all := Aggregate(v, gOnly, All)
	if got := weight(t, all, "f"); got != 5 {
		t.Errorf("ALL w(f) = %d, want 5 (u2:2 + u3:1 + u4:2)", got)
	}
	if got := weight(t, all, "m"); got != 2 {
		t.Errorf("ALL w(m) = %d, want 2", got)
	}
	if got := edgeWeight(t, all, []string{"m"}, []string{"f"}); got != 4 {
		t.Errorf("ALL w(m→f) = %d, want 4", got)
	}
	if got := edgeWeight(t, all, []string{"f"}, []string{"f"}); got != 2 {
		t.Errorf("ALL w(f→f) = %d, want 2", got)
	}
}

func TestDistinctDedupsRepeatedEdgeTuple(t *testing.T) {
	// Edge (u2,u4) exists at t0,t1,t2; on gender it is (f→f) at all three.
	g, _, gOnly := fixtureSchemas(t)
	tl := g.Timeline()
	v := ops.Intersection(g, tl.Range(0, 1), tl.Range(1, 2))
	dist := Aggregate(v, gOnly, Distinct)
	all := Aggregate(v, gOnly, All)
	if got := edgeWeight(t, dist, []string{"f"}, []string{"f"}); got != 1 {
		t.Errorf("DIST w(f→f) = %d, want 1", got)
	}
	if got := edgeWeight(t, all, []string{"f"}, []string{"f"}); got != 3 {
		t.Errorf("ALL w(f→f) = %d, want 3", got)
	}

	// Definition 2.4 restricts timestamps to T1 ∪ T2: intersecting the two
	// single points t0 and t2 must collect values at {t0, t2} only, so the
	// same edge contributes 2, not 3.
	v2 := ops.Intersection(g, tl.Point(0), tl.Point(2))
	all2 := Aggregate(v2, gOnly, All)
	if got := edgeWeight(t, all2, []string{"f"}, []string{"f"}); got != 2 {
		t.Errorf("ALL w(f→f) on {t0,t2} = %d, want 2", got)
	}
}

func TestSchemaErrors(t *testing.T) {
	g := core.PaperExample()
	if _, err := NewSchema(g); err == nil {
		t.Error("empty attribute list should fail")
	}
	if _, err := NewSchema(g, core.AttrID(99)); err == nil {
		t.Error("out-of-range attribute should fail")
	}
	if _, err := NewSchema(g, 0, 0); err == nil {
		t.Error("duplicate attribute should fail")
	}
	if _, err := ByName(g, "nope"); err == nil {
		t.Error("unknown attribute name should fail")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	_, gp, _ := fixtureSchemas(t)
	tu, ok := gp.Encode("f", "2")
	if !ok {
		t.Fatal("Encode failed")
	}
	vals := gp.Decode(tu)
	if vals[0] != "f" || vals[1] != "2" {
		t.Fatalf("Decode = %v", vals)
	}
	if gp.Label(tu) != "f,2" {
		t.Fatalf("Label = %q", gp.Label(tu))
	}
	if _, ok := gp.Encode("x", "1"); ok {
		t.Error("Encode of out-of-domain value should fail")
	}
	if _, ok := gp.Encode("f"); ok {
		t.Error("Encode with wrong arity should fail")
	}
}

func TestRollupMatchesDirectAtTimePoint(t *testing.T) {
	g, gp, gOnly := fixtureSchemas(t)
	for tp := 0; tp < 3; tp++ {
		v := ops.At(g, timeline.Time(tp))
		fine := Aggregate(v, gp, Distinct)
		rolled, err := Rollup(fine, g.MustAttr("gender"))
		if err != nil {
			t.Fatal(err)
		}
		direct := Aggregate(v, gOnly, Distinct)
		if !rolled.Equal(direct) {
			t.Errorf("t%d: rollup disagrees with direct aggregation:\n%s\nvs\n%s",
				tp, rolled, direct)
		}
	}
}

func TestRollupErrors(t *testing.T) {
	g, gp, _ := fixtureSchemas(t)
	v := ops.At(g, 0)
	fine := Aggregate(v, gp, Distinct)
	if _, err := Rollup(fine); err == nil {
		t.Error("rollup on no attributes should fail")
	}
	// gender is attr 0; an id not in the source schema:
	b := core.NewBuilder(timeline.MustNew("x"))
	_ = b
	if _, err := Rollup(fine, core.AttrID(5)); err == nil {
		t.Error("rollup on attribute outside source schema should fail")
	}
}

func TestMergeCloneEqual(t *testing.T) {
	g, gp, _ := fixtureSchemas(t)
	a0 := Aggregate(ops.At(g, 0), gp, All)
	a1 := Aggregate(ops.At(g, 1), gp, All)
	merged := a0.Clone()
	merged.Merge(a1)
	for tu, w := range a0.Nodes {
		if merged.Nodes[tu] < w {
			t.Errorf("merged weight < source for %v", gp.Decode(tu))
		}
	}
	if merged.TotalNodeWeight() != a0.TotalNodeWeight()+a1.TotalNodeWeight() {
		t.Error("merged total ≠ sum of totals")
	}
	if !a0.Equal(a0.Clone()) {
		t.Error("clone should equal source")
	}
	if a0.Equal(a1) {
		t.Error("different aggregates should not be equal")
	}
}

func TestAggregatePanicsOnForeignView(t *testing.T) {
	g1 := core.PaperExample()
	g2 := core.PaperExample()
	s := MustSchema(g1, g1.MustAttr("gender"))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Aggregate(ops.At(g2, 0), s, Distinct)
}

// allSchemas returns a schema over every attribute of g, or nil if g has
// no attributes.
func allSchema(g *core.Graph) *Schema {
	if g.NumAttrs() == 0 {
		return nil
	}
	attrs := make([]core.AttrID, g.NumAttrs())
	for i := range attrs {
		attrs[i] = core.AttrID(i)
	}
	return MustSchema(g, attrs...)
}

func TestQuickDistinctAtMostAll(t *testing.T) {
	// For every tuple, DIST weight ≤ ALL weight (each distinct entity
	// appears at least once).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := gtest.RandomGraph(r, gtest.DefaultParams())
		s := allSchema(g)
		if s == nil {
			return true
		}
		tl := g.Timeline()
		v := ops.Union(g, gtest.RandomInterval(r, tl), gtest.RandomInterval(r, tl))
		dist := Aggregate(v, s, Distinct)
		all := Aggregate(v, s, All)
		for tu, w := range dist.Nodes {
			if all.Nodes[tu] < w {
				return false
			}
		}
		for k, w := range dist.Edges {
			if all.Edges[k] < w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLemma33UnionMonotoneIncreasing(t *testing.T) {
	// Lemma 3.3: aggregation is monotonically increasing w.r.t. union —
	// with Tk fixed and Ti ⊆ Tj, every common tuple's weight on Tk ∪ Ti is
	// ≤ its weight on Tk ∪ Tj.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := gtest.RandomGraph(r, gtest.DefaultParams())
		s := allSchema(g)
		if s == nil {
			return true
		}
		tl := g.Timeline()
		tk := gtest.RandomInterval(r, tl)
		ti := gtest.RandomInterval(r, tl)
		tj := ti.Union(gtest.RandomInterval(r, tl)) // Ti ⊆ Tj
		for _, kind := range []Kind{Distinct, All} {
			gi := Aggregate(ops.Union(g, tk, ti), s, kind)
			gj := Aggregate(ops.Union(g, tk, tj), s, kind)
			for tu, w := range gi.Nodes {
				if gj.Nodes[tu] < w {
					return false
				}
			}
			for k, w := range gi.Edges {
				if gj.Edges[k] < w {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLemma33IntersectionMonotoneDecreasing(t *testing.T) {
	// Lemma 3.3: aggregation is monotonically decreasing w.r.t.
	// intersection: extending one side can only lose weight.
	//
	// The lemma holds for static aggregation attributes (what the paper's
	// exploration experiments use). For time-varying attributes it does
	// not hold in general, because Definition 2.4 collects attribute
	// values over T1 ∪ T2: extending an interval shrinks the entity set
	// but widens each surviving entity's tuple set, so a tuple's weight
	// can move either way. The test therefore restricts the schema to
	// static attributes.
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
		s := MustSchema(g, static...)
		tl := g.Timeline()
		tk := gtest.RandomInterval(r, tl)
		ti := gtest.RandomInterval(r, tl)
		tj := ti.Union(gtest.RandomInterval(r, tl))
		// Intersection semantics: an extended interval Tj requires
		// existence at every one of its points (ForAll), so the graph on
		// Tk · Tj can only lose entities (and weight) as Ti grows to Tj.
		gi := Aggregate(ops.StabilityView(g, ops.Exists(tk), ops.ForAll(ti)), s, Distinct)
		gj := Aggregate(ops.StabilityView(g, ops.Exists(tk), ops.ForAll(tj)), s, Distinct)
		for tu, w := range gj.Nodes {
			if gi.Nodes[tu] < w {
				return false
			}
		}
		for k, w := range gj.Edges {
			if gi.Edges[k] < w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRollupExactForAll(t *testing.T) {
	// D-distributive roll-up is exact for ALL aggregates on any view, both
	// when it projects codes through a table over the fine domain (the
	// domain is no larger than the groups read) and when it decodes them.
	var tabled, decoded int
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := gtest.RandomGraph(r, gtest.DefaultParams())
		if g.NumAttrs() < 2 {
			return true
		}
		s := allSchema(g)
		tl := g.Timeline()
		v := ops.Union(g, gtest.RandomInterval(r, tl), gtest.RandomInterval(r, tl))
		fine := Aggregate(v, s, All)
		if s.Domain() <= int64(len(fine.Nodes)+len(fine.Edges)) {
			tabled++
		} else {
			decoded++
		}
		subset := []core.AttrID{core.AttrID(r.Intn(g.NumAttrs()))}
		rolled, err := Rollup(fine, subset...)
		if err != nil {
			return false
		}
		direct := Aggregate(v, MustSchema(g, subset...), All)
		return rolled.Equal(direct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if tabled == 0 || decoded == 0 {
		t.Errorf("%d roll-ups through the code table, %d decoding: want both", tabled, decoded)
	}
}

func TestQuickStaticFastPathMatchesGeneralPath(t *testing.T) {
	// The §4.2 static fast path must agree with the general per-time-point
	// path on all-static schemas.
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
		s := MustSchema(g, static...)
		tl := g.Timeline()
		v := ops.Union(g, gtest.RandomInterval(r, tl), gtest.RandomInterval(r, tl))
		for _, kind := range []Kind{Distinct, All} {
			// All-static schema: AggregateMap takes the §4.2 fast path,
			// AggregateGeneral the per-time-point path.
			if !AggregateMap(v, s, kind).Equal(AggregateGeneral(v, s, kind)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
