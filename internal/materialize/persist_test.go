package materialize

import (
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/timeline"
)

// TestNewStoreFromPointsValidation: the snapshot reader's way of wrapping
// decoded per-point aggregates as a Store accepts exactly one ALL aggregate
// of the store's own schema per base time point.
func TestNewStoreFromPointsValidation(t *testing.T) {
	g := core.PaperExample()
	s := agg.MustSchema(g, g.MustAttr("gender"))
	built := NewStore(g, s)
	T := g.Timeline().Len()
	points := func() []*agg.Graph {
		out := make([]*agg.Graph, T)
		for tp := range out {
			out[tp] = built.Point(timeline.Time(tp))
		}
		return out
	}

	st, err := NewStoreFromPoints(s, points())
	if err != nil {
		t.Fatal(err)
	}
	if iv := g.Timeline().All(); !st.UnionAll(iv).Equal(built.UnionAll(iv)) {
		t.Error("wrapped store composes a different union than the built one")
	}

	if _, err := NewStoreFromPoints(s, points()[:T-1]); err == nil {
		t.Error("a missing time point should fail")
	}
	withNil := points()
	withNil[1] = nil
	if _, err := NewStoreFromPoints(s, withNil); err == nil {
		t.Error("a nil point should fail")
	}
	foreign := points()
	foreign[0] = NewStore(g, agg.MustSchema(g, g.MustAttr("gender"))).Point(0) // equal attributes, different *Schema
	if _, err := NewStoreFromPoints(s, foreign); err == nil {
		t.Error("a point on another schema should fail")
	}
	dist := points()
	dist[0] = agg.Aggregate(ops.At(g, 0), s, agg.Distinct)
	if _, err := NewStoreFromPoints(s, dist); err == nil {
		t.Error("a DIST point should fail")
	}
}
