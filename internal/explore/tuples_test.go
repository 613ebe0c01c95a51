package explore

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/evolution"
	"repro/internal/gtest"
	"repro/internal/timeline"
)

func TestTopEdgeTuplesGrowth(t *testing.T) {
	g := core.PaperExample()
	s := agg.MustSchema(g, g.MustAttr("gender"))
	ex := &Explorer{Graph: g, Schema: s, Kind: agg.Distinct, Result: TotalEdges}
	// Growth on consecutive pairs: t0→t1 adds u1→u4 (m→f, 1); t1→t2 adds
	// u4→u5 and u2→u5 (f→m, 2). Top tuple must be (f)→(m) with peak 2.
	top := TopEdgeTuples(ex, evolution.Growth, 2)
	if len(top) != 2 {
		t.Fatalf("top = %d entries, want 2", len(top))
	}
	if got := top[0].Label(s); got != "(f)→(m)" || top[0].Peak != 2 {
		t.Errorf("top[0] = %s peak %d, want (f)→(m) peak 2", got, top[0].Peak)
	}
	tl := g.Timeline()
	if !top[0].Old.Equal(tl.Point(1)) || !top[0].New.Equal(tl.Point(2)) {
		t.Errorf("top[0] interval pair = %v → %v, want t1 → t2", top[0].Old, top[0].New)
	}
	if got := top[1].Label(s); got != "(m)→(f)" || top[1].Peak != 1 {
		t.Errorf("top[1] = %s peak %d, want (m)→(f) peak 1", got, top[1].Peak)
	}
}

func TestTopEdgeTuplesStabilityAndLimit(t *testing.T) {
	g := core.PaperExample()
	s := agg.MustSchema(g, g.MustAttr("gender"))
	ex := &Explorer{Graph: g, Schema: s, Kind: agg.Distinct, Result: TotalEdges}
	// Stable edges t0→t1: u1→u2 (m→f) and u2→u4 (f→f); t1→t2: u2→u4.
	top := TopEdgeTuples(ex, evolution.Stability, 0) // 0 = no limit
	if len(top) != 2 {
		t.Fatalf("top = %d entries, want 2", len(top))
	}
	labels := map[string]int64{}
	for _, ts := range top {
		labels[ts.Label(s)] = ts.Peak
	}
	if labels["(m)→(f)"] != 1 || labels["(f)→(f)"] != 1 {
		t.Errorf("peaks = %v", labels)
	}
	// Limit.
	if got := TopEdgeTuples(ex, evolution.Stability, 1); len(got) != 1 {
		t.Errorf("limited top = %d entries, want 1", len(got))
	}
}

func TestTopEdgeTuplesConsistentWithExplorer(t *testing.T) {
	// The peak the ranking reports must be reproducible by a full
	// exploration at k = peak for that tuple.
	g := core.PaperExample()
	s := agg.MustSchema(g, g.MustAttr("gender"))
	ex := &Explorer{Graph: g, Schema: s, Kind: agg.Distinct, Result: TotalEdges}
	for _, ts := range TopEdgeTuples(ex, evolution.Shrinkage, 0) {
		fn, err := EdgeTuple(s, s.Decode(ts.From), s.Decode(ts.To))
		if err != nil {
			t.Fatal(err)
		}
		ex2 := &Explorer{Graph: g, Schema: s, Kind: agg.Distinct, Result: fn}
		pairs := ex2.Explore(evolution.Shrinkage, UnionSemantics, ExtendOld, ts.Peak)
		if len(pairs) == 0 {
			t.Errorf("tuple %s: no pairs at its own peak %d", ts.Label(s), ts.Peak)
		}
	}
}

// TestTopFastMatchesSeedPath checks pair-view TOP ≡ NoFastPath TOP (the
// per-pair entity scans), scores, intervals and order, for the three events
// on static, time-varying and mixed schemas — with time-varying attributes
// the entity-level views TOP ranks differ from the tuple-appearance
// classification of evolution.Aggregate, so this is the only oracle — and
// for every way n can relate to the number of tuple pairs.
func TestTopFastMatchesSeedPath(t *testing.T) {
	graphs := []*core.Graph{core.PaperExample(), gtest.LongLivedGraph(rand.New(rand.NewSource(3)), 130)}
	for seed := int64(0); seed < 40; seed++ {
		graphs = append(graphs, gtest.RandomGraph(rand.New(rand.NewSource(seed)), gtest.DefaultParams()))
	}
	for gi, g := range graphs {
		var static, varying []core.AttrID
		for a := 0; a < g.NumAttrs(); a++ {
			if g.Attr(core.AttrID(a)).Kind == core.Static {
				static = append(static, core.AttrID(a))
			} else {
				varying = append(varying, core.AttrID(a))
			}
		}
		var schemas []*agg.Schema
		if len(static) > 0 {
			schemas = append(schemas, agg.MustSchema(g, static...))
		}
		if len(varying) > 0 {
			schemas = append(schemas, agg.MustSchema(g, varying...))
		}
		if len(static) > 0 && len(varying) > 0 {
			schemas = append(schemas, agg.MustSchema(g, static[0], varying[0]))
		}
		for _, s := range schemas {
			for _, kind := range []agg.Kind{agg.Distinct, agg.All} {
				fast := &Explorer{Graph: g, Schema: s, Kind: kind, Result: TotalEdges}
				seed := &Explorer{Graph: g, Schema: s, Kind: kind, Result: TotalEdges, NoFastPath: true}
				for _, ev := range []Event{evolution.Stability, evolution.Growth, evolution.Shrinkage} {
					groups := len(TopEdgeTuples(seed, ev, 0))
					for _, n := range []int{0, 1, 3, groups + 1} {
						got, want := TopEdgeTuples(fast, ev, n), TopEdgeTuples(seed, ev, n)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("graph %d %v %v %v n=%d: pair-view TOP diverges from the seed path\n got %v\nwant %v",
								gi, s.AttrNames(), kind, ev, n, got, want)
						}
						if n > 0 && len(got) != min(n, groups) {
							t.Fatalf("graph %d %v %v n=%d: %d scores, want %d", gi, s.AttrNames(), ev, n, len(got), min(n, groups))
						}
					}
				}
			}
		}
	}
}

// TestTopLargeDomainMatchesSeedPath: TOP on the four-attribute MovieLens
// schema (domain 9,828, whose ~10⁸ edge codes the kernel keeps in map
// storage) ranks exactly as the NoFastPath seed path.
func TestTopLargeDomainMatchesSeedPath(t *testing.T) {
	g := dataset.MovieLensScaled(1, 0.05)
	s := agg.MustSchema(g, g.MustAttr("gender"), g.MustAttr("age"), g.MustAttr("occupation"), g.MustAttr("rating"))
	for _, kind := range []agg.Kind{agg.Distinct, agg.All} {
		fast := &Explorer{Graph: g, Schema: s, Kind: kind, Result: TotalEdges}
		seed := &Explorer{Graph: g, Schema: s, Kind: kind, Result: TotalEdges, NoFastPath: true}
		for _, ev := range []Event{evolution.Stability, evolution.Growth, evolution.Shrinkage} {
			if got, want := TopEdgeTuples(fast, ev, 5), TopEdgeTuples(seed, ev, 5); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v %v: pair-view TOP diverges from the seed path\n got %v\nwant %v", kind, ev, got, want)
			}
		}
	}
}

// TestTopOnePointTimeline: no consecutive pair, so an empty, non-nil
// ranking on both paths.
func TestTopOnePointTimeline(t *testing.T) {
	b := core.NewBuilder(timeline.MustNew("only"), core.AttrSpec{Name: "c", Kind: core.Static})
	u, v := b.AddNode("u"), b.AddNode("v")
	for _, n := range []core.NodeID{u, v} {
		b.SetNodeTime(n, 0)
		b.SetStatic(0, n, "x")
	}
	b.SetEdgeTime(b.AddEdge(u, v), 0)
	g := b.MustBuild()
	for _, noFast := range []bool{false, true} {
		ex := &Explorer{Graph: g, Schema: agg.MustSchema(g, 0), Kind: agg.Distinct, Result: TotalEdges, NoFastPath: noFast}
		for _, ev := range []Event{evolution.Stability, evolution.Growth, evolution.Shrinkage} {
			if top := TopEdgeTuples(ex, ev, 3); top == nil || len(top) != 0 {
				t.Fatalf("NoFastPath=%v %v: top = %#v, want empty and non-nil", noFast, ev, top)
			}
		}
	}
}
