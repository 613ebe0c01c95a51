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
	"repro/internal/timeline"
)

// fixtureExplorer builds an explorer over the paper's running example,
// aggregating on gender (static) with Distinct and counting all aggregate
// edge weight.
func fixtureExplorer(t *testing.T) *Explorer {
	t.Helper()
	g := core.PaperExample()
	s, err := agg.ByName(g, "gender")
	if err != nil {
		t.Fatal(err)
	}
	return &Explorer{Graph: g, Schema: s, Kind: agg.Distinct, Result: TotalEdges}
}

func pairStrings(pairs []Pair) []string {
	out := make([]string, len(pairs))
	for i, p := range pairs {
		out[i] = p.String()
	}
	return out
}

func assertPairs(t *testing.T, got []Pair, want ...Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d pairs %v, want %d %v", len(got), pairStrings(got), len(want), pairStrings(want))
	}
	for i := range want {
		if !got[i].Old.Equal(want[i].Old) || !got[i].New.Equal(want[i].New) || got[i].Result != want[i].Result {
			t.Errorf("pair %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestStabilityUnionMinimal(t *testing.T) {
	ex := fixtureExplorer(t)
	tl := ex.Graph.Timeline()
	// Stable edges t0→t1: u1→u2 and u2→u4 (2 edges); t1→t2: u2→u4 (1).
	got := ex.Explore(evolution.Stability, UnionSemantics, ExtendNew, 2)
	assertPairs(t, got, Pair{Old: tl.Point(0), New: tl.Point(1), Result: 2})

	// k=3 is unreachable even extending t1 to [t1,t2].
	if got := ex.Explore(evolution.Stability, UnionSemantics, ExtendNew, 3); len(got) != 0 {
		t.Errorf("k=3 should yield no pairs, got %v", pairStrings(got))
	}
}

func TestStabilityIntersectionMaximal(t *testing.T) {
	ex := fixtureExplorer(t)
	tl := ex.Graph.Timeline()
	// k=1: from (t0,t1), extending t1 to t1∩t2 still keeps u2→u4 → maximal
	// pair (t0, [t1,t2]); from (t1,t2) no extension possible.
	got := ex.Explore(evolution.Stability, IntersectionSemantics, ExtendNew, 1)
	assertPairs(t, got,
		Pair{Old: tl.Point(0), New: tl.Range(1, 2), Result: 1},
		Pair{Old: tl.Point(1), New: tl.Point(2), Result: 1},
	)
	// k=2: only the base pair (t0,t1) qualifies; its extension drops to 1.
	got2 := ex.Explore(evolution.Stability, IntersectionSemantics, ExtendNew, 2)
	assertPairs(t, got2, Pair{Old: tl.Point(0), New: tl.Point(1), Result: 2})
}

func TestGrowthUnionExtendNew(t *testing.T) {
	ex := fixtureExplorer(t)
	tl := ex.Graph.Timeline()
	// New edges at t1: u1→u4 (1); at t2: u4→u5, u2→u5 (2).
	got := ex.Explore(evolution.Growth, UnionSemantics, ExtendNew, 1)
	assertPairs(t, got,
		Pair{Old: tl.Point(0), New: tl.Point(1), Result: 1},
		Pair{Old: tl.Point(1), New: tl.Point(2), Result: 2},
	)
}

func TestGrowthUnionExtendOldChecksBaseOnly(t *testing.T) {
	ex := fixtureExplorer(t)
	tl := ex.Graph.Timeline()
	got := ex.Explore(evolution.Growth, UnionSemantics, ExtendOld, 2)
	assertPairs(t, got, Pair{Old: tl.Point(1), New: tl.Point(2), Result: 2})
	// Exactly n-1 evaluations: no extensions are ever tried.
	if ex.Evaluations != tl.Len()-1 {
		t.Errorf("Evaluations = %d, want %d", ex.Evaluations, tl.Len()-1)
	}
}

func TestShrinkageUnionExtendOld(t *testing.T) {
	ex := fixtureExplorer(t)
	tl := ex.Graph.Timeline()
	// Deleted edges t0→t1: u1→u3 (1); t1→t2: u1→u2, u1→u4 (2).
	got := ex.Explore(evolution.Shrinkage, UnionSemantics, ExtendOld, 1)
	assertPairs(t, got,
		Pair{Old: tl.Point(0), New: tl.Point(1), Result: 1},
		Pair{Old: tl.Point(1), New: tl.Point(2), Result: 2},
	)
	// k=3: only reachable by extending Told to [t0,t1] against t2
	// (u1→u2, u1→u3, u1→u4 all gone by t2).
	got3 := ex.Explore(evolution.Shrinkage, UnionSemantics, ExtendOld, 3)
	assertPairs(t, got3, Pair{Old: tl.Range(0, 1), New: tl.Point(2), Result: 3})
}

func TestGrowthIntersectionExtendOldLongest(t *testing.T) {
	ex := fixtureExplorer(t)
	tl := ex.Graph.Timeline()
	// Reference t1: old={t0} → 1 new edge. Reference t2: old=[t0,t1]
	// with ForAll semantics → u2→u4 exists throughout and is excluded,
	// u4→u5 and u2→u5 are new → 2.
	got := ex.Explore(evolution.Growth, IntersectionSemantics, ExtendOld, 1)
	assertPairs(t, got,
		Pair{Old: tl.Point(0), New: tl.Point(1), Result: 1},
		Pair{Old: tl.Range(0, 1), New: tl.Point(2), Result: 2},
	)
	got2 := ex.Explore(evolution.Growth, IntersectionSemantics, ExtendOld, 2)
	assertPairs(t, got2, Pair{Old: tl.Range(0, 1), New: tl.Point(2), Result: 2})
}

func TestInitK(t *testing.T) {
	ex := fixtureExplorer(t)
	// Stability results on consecutive pairs: 2 (t0,t1) and 1 (t1,t2).
	min, max := ex.InitK(evolution.Stability)
	if min != 1 || max != 2 {
		t.Errorf("InitK(stability) = %d,%d, want 1,2", min, max)
	}
	// Growth: 1 and 2.
	min, max = ex.InitK(evolution.Growth)
	if min != 1 || max != 2 {
		t.Errorf("InitK(growth) = %d,%d, want 1,2", min, max)
	}
}

func TestNodeAndEdgeTupleResults(t *testing.T) {
	g := core.PaperExample()
	s := agg.MustSchema(g, g.MustAttr("gender"))
	ff, err := EdgeTuple(s, []string{"f"}, []string{"f"})
	if err != nil {
		t.Fatal(err)
	}
	ex := &Explorer{Graph: g, Schema: s, Kind: agg.Distinct, Result: ff}
	tl := g.Timeline()
	// Stable f→f edges t0→t1: u2→u4 only.
	got := ex.Explore(evolution.Stability, UnionSemantics, ExtendNew, 1)
	if len(got) < 1 || got[0].Result != 1 {
		t.Errorf("f-f stability pairs = %v", pairStrings(got))
	}
	fNodes, err := NodeTuple(s, "f")
	if err != nil {
		t.Fatal(err)
	}
	exN := &Explorer{Graph: g, Schema: s, Kind: agg.Distinct, Result: fNodes}
	// Stable f nodes: u2 and u4 survive both t0→t1 and t1→t2.
	gotN := exN.Explore(evolution.Stability, UnionSemantics, ExtendNew, 2)
	assertPairs(t, gotN,
		Pair{Old: tl.Point(0), New: tl.Point(1), Result: 2},
		Pair{Old: tl.Point(1), New: tl.Point(2), Result: 2})

	if _, err := EdgeTuple(s, []string{"zz"}, []string{"f"}); err == nil {
		t.Error("EdgeTuple with out-of-domain value should fail")
	}
	if _, err := NodeTuple(s, "zz"); err == nil {
		t.Error("NodeTuple with out-of-domain value should fail")
	}
}

// staticExplorer builds an explorer over a random graph using its static
// attributes (the setting in which the paper's monotonicity lemmas hold).
func staticExplorer(r *rand.Rand) *Explorer {
	g := gtest.RandomGraph(r, gtest.DefaultParams())
	var static []core.AttrID
	for a := 0; a < g.NumAttrs(); a++ {
		if g.Attr(core.AttrID(a)).Kind == core.Static {
			static = append(static, core.AttrID(a))
		}
	}
	if len(static) == 0 {
		return nil
	}
	result := TotalEdges
	if r.Intn(2) == 0 {
		result = TotalNodes
	}
	return &Explorer{
		Graph:  g,
		Schema: agg.MustSchema(g, static...),
		Kind:   agg.Distinct,
		Result: result,
	}
}

func samePairs(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Old.Equal(b[i].Old) || !a[i].New.Equal(b[i].New) || a[i].Result != b[i].Result {
			return false
		}
	}
	return true
}

func TestQuickExploreMatchesNaiveAllTwelveCases(t *testing.T) {
	// Table 1: all 12 event × semantics × extension combinations must
	// agree with the exhaustive baseline on static-attribute aggregation.
	events := []Event{evolution.Stability, evolution.Growth, evolution.Shrinkage}
	sems := []Semantics{UnionSemantics, IntersectionSemantics}
	exts := []Extend{ExtendOld, ExtendNew}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ex := staticExplorer(r)
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
					pruned := ex.Explore(ev, sem, ext, k)
					prunedEvals := ex.Evaluations
					naive := ex.Naive(ev, sem, ext, k)
					if !samePairs(pruned, naive) {
						t.Logf("case %v/%v/%v k=%d: pruned %v naive %v",
							ev, sem, ext, k, pairStrings(pruned), pairStrings(naive))
						return false
					}
					if prunedEvals > ex.Evaluations {
						t.Logf("case %v/%v/%v: pruned used more evaluations (%d > %d)",
							ev, sem, ext, prunedEvals, ex.Evaluations)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTheorem38SpanEquivalence(t *testing.T) {
	// Theorem 3.8's core fact: for stability under intersection semantics
	// the result depends only on the set of participating time points, so
	// anchoring at the left point and extending right yields the same
	// result as anchoring at the right point and extending left over the
	// same span.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ex := staticExplorer(r)
		if ex == nil {
			return true
		}
		tl := ex.Graph.Timeline()
		if tl.Len() < 2 {
			return true
		}
		a := r.Intn(tl.Len() - 1)
		b := a + 1 + r.Intn(tl.Len()-a-1)
		m := ex.masks()
		left := ex.eval(m, evolution.Stability,
			ops.Exists(tl.Point(timeline.Time(a))),
			ops.ForAll(tl.Range(timeline.Time(a+1), timeline.Time(b))))
		right := ex.eval(m, evolution.Stability,
			ops.ForAll(tl.Range(timeline.Time(a), timeline.Time(b-1))),
			ops.Exists(tl.Point(timeline.Time(b))))
		return left == right
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTheorem37UnionAnchorsDiffer(t *testing.T) {
	// Theorem 3.7: minimal stability pairs from extending Tnew are NOT in
	// general those from extending Told — verify the union-semantics
	// traversals at least run and both match naive (covered above), and
	// that a witness exists where the two pair sets differ.
	found := false
	for seed := int64(0); seed < 200 && !found; seed++ {
		r := rand.New(rand.NewSource(seed))
		ex := staticExplorer(r)
		if ex == nil {
			continue
		}
		_, max := ex.InitK(evolution.Stability)
		if max == 0 {
			continue
		}
		a := ex.Explore(evolution.Stability, UnionSemantics, ExtendNew, max)
		b := ex.Explore(evolution.Stability, UnionSemantics, ExtendOld, max)
		if !samePairs(a, b) {
			found = true
		}
	}
	if !found {
		t.Fatal("no witness found for Theorem 3.7 (extending new vs old should differ)")
	}
}

func TestPairString(t *testing.T) {
	tl := timeline.MustNew("2000", "2001", "2002")
	p := Pair{Old: tl.Range(0, 1), New: tl.Point(2), Result: 7}
	if got := p.String(); got != "[2000,2001] → 2002 (7 events)" {
		t.Errorf("String = %q", got)
	}
}

func TestSemanticsAndExtendStrings(t *testing.T) {
	if UnionSemantics.String() != "∪" || IntersectionSemantics.String() != "∩" {
		t.Error("Semantics strings wrong")
	}
	if ExtendOld.String() != "old" || ExtendNew.String() != "new" {
		t.Error("Extend strings wrong")
	}
}
