package agg

import (
	"context"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gtest"
	"repro/internal/ops"
	"repro/internal/timeline"
)

// AggregateGeneral computes the same result as Aggregate but always takes
// the general per-time-point path, even for all-static schemas: the
// reference for the §4.2 static fast path.
func AggregateGeneral(v *ops.View, s *Schema, kind Kind) *Graph {
	return mapAggregate(v, s, kind, false)
}

// BenchmarkAblationStaticFastPath measures what the §4.2 static-only fast
// path buys over the general per-time-point path, on DBLP ×0.25 (or
// GT_BENCH_SCALE).
func BenchmarkAblationStaticFastPath(b *testing.B) {
	scale := 0.25
	if v, err := strconv.ParseFloat(os.Getenv("GT_BENCH_SCALE"), 64); err == nil && v > 0 {
		scale = v
	}
	g := dataset.DBLPScaled(1, scale)
	whole := g.Timeline().All()
	s := MustSchema(g, g.MustAttr("gender"))
	v := ops.Union(g, whole, whole)
	b.Run("fast-path", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Aggregate(v, s, All)
		}
	})
	b.Run("general-path", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			AggregateGeneral(v, s, All)
		}
	})
}

func TestKindAndMeasureStrings(t *testing.T) {
	if Distinct.String() != "DIST" || All.String() != "ALL" {
		t.Error("Kind strings wrong")
	}
	for m, want := range map[Measure]string{Sum: "SUM", Avg: "AVG", Min: "MIN", Max: "MAX"} {
		if m.String() != want {
			t.Errorf("%v.String() = %q", m, m.String())
		}
	}
}

func TestGraphStringRendering(t *testing.T) {
	g := core.PaperExample()
	s := MustSchema(g, g.MustAttr("gender"))
	ag := Aggregate(ops.At(g, 0), s, Distinct)
	out := ag.String()
	for _, want := range []string{"aggregate graph (DIST)", "node (f) w=3", "edge (m)→(f) w=2"} {
		if !strings.Contains(out, want) {
			t.Errorf("String missing %q:\n%s", want, out)
		}
	}
}

func TestSchemaAttrsAndTotals(t *testing.T) {
	g := core.PaperExample()
	s := MustSchema(g, g.MustAttr("gender"), g.MustAttr("publications"))
	attrs := s.Attrs()
	if len(attrs) != 2 || attrs[0] != g.MustAttr("gender") {
		t.Errorf("Attrs = %v", attrs)
	}
	ag := Aggregate(ops.At(g, 0), s, Distinct)
	if ag.TotalEdgeWeight() != 3 {
		t.Errorf("TotalEdgeWeight = %d, want 3", ag.TotalEdgeWeight())
	}
}

func TestQuickAggregateGeneralMatchesAggregate(t *testing.T) {
	// The ablation-only general path must agree with the dispatching
	// Aggregate on every schema and kind.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := gtest.RandomGraph(r, gtest.DefaultParams())
		if g.NumAttrs() == 0 {
			return true
		}
		attrs := make([]core.AttrID, g.NumAttrs())
		for i := range attrs {
			attrs[i] = core.AttrID(i)
		}
		s := MustSchema(g, attrs...)
		tl := g.Timeline()
		v := ops.Union(g, gtest.RandomInterval(r, tl), gtest.RandomInterval(r, tl))
		for _, kind := range []Kind{Distinct, All} {
			if !AggregateGeneral(v, s, kind).Equal(Aggregate(v, s, kind)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAggregateFilteredDirect(t *testing.T) {
	g := core.PaperExample()
	s := MustSchema(g, g.MustAttr("gender"))
	tl := g.Timeline()
	v := ops.Union(g, tl.Point(0), tl.Point(1))
	pubs := g.MustAttr("publications")

	// Keep appearances with publications == 1.
	onlyOnes := func(n core.NodeID, t timeline.Time) bool {
		return g.ValueString(pubs, n, t) == "1"
	}
	ag := mustFiltered(t, v, s, All, onlyOnes)
	f, _ := s.Encode("f")
	m, _ := s.Encode("m")
	// f appearances with pubs=1: u2@t0, u2@t1, u3@t0, u4@t1 → 4.
	if ag.NodeWeight(f) != 4 {
		t.Errorf("ALL w(f | pubs=1) = %d, want 4", ag.NodeWeight(f))
	}
	// m: u1@t1 only.
	if ag.NodeWeight(m) != 1 {
		t.Errorf("ALL w(m | pubs=1) = %d, want 1", ag.NodeWeight(m))
	}
	// Edge appearances need both endpoints to pass: u1→u2@t1 (1,1) ✓,
	// u1→u4@t1 ✓, u2→u4@t1 ✓; at t0 u1 (3 pubs) fails and u2→u4 has
	// u4 at 2 pubs.
	if got := ag.TotalEdgeWeight(); got != 3 {
		t.Errorf("filtered edge total = %d, want 3", got)
	}

	// DIST variant dedups: u2 exhibits f at both t0,t1 → counts once.
	dist := mustFiltered(t, v, s, Distinct, onlyOnes)
	if dist.NodeWeight(f) != 3 {
		t.Errorf("DIST w(f | pubs=1) = %d, want 3", dist.NodeWeight(f))
	}
	// Nil filter delegates to Aggregate.
	if !mustFiltered(t, v, s, Distinct, nil).Equal(Aggregate(v, s, Distinct)) {
		t.Error("nil filter should equal Aggregate")
	}
}

func TestAggregateFilteredPanicsOnForeignView(t *testing.T) {
	g1 := core.PaperExample()
	g2 := core.PaperExample()
	s := MustSchema(g1, g1.MustAttr("gender"))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	AggregateFiltered(context.Background(), ops.At(g2, 0), s, Distinct,
		func(core.NodeID, timeline.Time) bool { return true })
}

// mustFiltered is AggregateFiltered under a context that never ends.
func mustFiltered(t *testing.T, v *ops.View, s *Schema, kind Kind, filter Filter) *Graph {
	t.Helper()
	ag, err := AggregateFiltered(context.Background(), v, s, kind, filter)
	if err != nil {
		t.Fatal(err)
	}
	return ag
}
