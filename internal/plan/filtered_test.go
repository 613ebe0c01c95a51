package plan

import (
	"context"
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/timeline"
)

// TestFilteredAggregateHonoursCancellation: a filtered AGG scans the whole
// view, so a context canceled while it runs must end it at the kernel's
// next probe, with ctx.Err() and no answer — not after the last appearance.
func TestFilteredAggregateHonoursCancellation(t *testing.T) {
	g := dataset.DBLPScaled(1, 0.25)
	all := g.Timeline().All()
	s := agg.MustSchema(g, g.MustAttr("gender"), g.MustAttr("publications"))
	appearances := 0
	for n := range g.NumNodes() {
		appearances += g.NodeTau(core.NodeID(n)).Count()
	}
	for _, kind := range []agg.Kind{agg.Distinct, agg.All} {
		ctx, cancel := context.WithCancel(context.Background())
		calls := 0
		op := &filteredAggOp{view: newViewOp(g, OpUnion, all, all), schema: s, kind: kind, preds: 1,
			filter: func(core.NodeID, timeline.Time) bool { calls++; cancel(); return true }}
		var out Result
		err := op.run(ctx, &out)
		cancel()
		if err != context.Canceled || out.Agg != nil {
			t.Fatalf("%v: canceled mid-scan: (%v, %v), want (nil, context.Canceled)", kind, out.Agg, err)
		}
		if calls >= appearances {
			t.Fatalf("%v: the scan filtered %d appearances after its context was canceled; want it to stop early (%d node appearances)", kind, calls, appearances)
		}
	}
}
