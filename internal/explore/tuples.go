package explore

import (
	"context"
	"sort"

	"repro/internal/agg"
	"repro/internal/evolution"
	"repro/internal/ops"
	"repro/internal/timeline"
)

// The paper's conclusion aims at detecting "intervals AND attribute groups
// of interest". This file ranks the attribute groups: for an event type,
// which aggregate edges (tuple pairs) show the strongest activity across
// any consecutive interval pair?

// TupleScore is the activity peak of one aggregate edge.
type TupleScore struct {
	From, To agg.Tuple
	// Peak is the maximum event count over consecutive interval pairs;
	// Old/New identify the pair where it occurs (earliest on ties).
	Peak     int64
	Old, New timeline.Interval
}

// Label renders the scored edge as "(f)→(f)".
func (ts TupleScore) Label(s *agg.Schema) string {
	return "(" + s.Label(ts.From) + ")→(" + s.Label(ts.To) + ")"
}

// TopEdgeTuples ranks aggregate edges by their peak event count over the
// consecutive interval pairs (T_i, T_{i+1}), returning the top n (fewer if
// the graph exhibits fewer tuple pairs). Ties break by label for
// determinism. The ranked tuples identify which attribute groups deserve a
// full exploration run.
//
// Each pair is the entity-level stability or difference view of Defs.
// 2.4/2.5, combined word-parallel from the graph's point index by one
// reused edge-only ops.PairView: the ranking reads aggregate edges alone,
// so neither the node side nor Definition 2.5's rescue is computed and the
// aggregation's node pass finds nothing to count (on an all-static schema
// it counts each kept edge's StaticTupleCodes pair). NoFastPath pins the
// per-pair entity scans of ops.Intersection/ops.Difference instead (the
// reference).
func TopEdgeTuples(ex *Explorer, event Event, n int) []TupleScore {
	g, tl := ex.Graph, ex.Graph.Timeline()
	stability := func(old, new timeline.Interval) *ops.View { return ops.Intersection(g, old, new) }
	difference := func(pos, neg timeline.Interval) *ops.View { return ops.Difference(g, pos, neg) }
	if !ex.NoFastPath && tl.Len() > 1 {
		pv := ops.NewEdgePairView(g)
		a, b := ops.NewIncrementalView(g, 0), ops.NewIncrementalView(g, 0)
		at := func(iv *ops.IncrementalView, point timeline.Interval) *ops.IncrementalView {
			iv.Reset(point.Min())
			return iv
		}
		stability = func(old, new timeline.Interval) *ops.View { return pv.Stability(at(a, old), at(b, new)) }
		difference = func(pos, neg timeline.Interval) *ops.View { return pv.Difference(at(a, pos), at(b, neg)) }
	}
	best := make(map[agg.EdgeKey]TupleScore)
	for i := 0; i < tl.Len()-1; i++ {
		if ex.canceled() {
			break
		}
		old := tl.Point(timeline.Time(i))
		new := tl.Point(timeline.Time(i + 1))
		var v *ops.View
		switch event {
		case evolution.Stability:
			v = stability(old, new)
		case evolution.Growth:
			v = difference(new, old)
		default:
			v = difference(old, new)
		}
		ag := agg.Aggregate(v, ex.Schema, ex.Kind)
		for key, w := range ag.Edges {
			cur, ok := best[key]
			if !ok || w > cur.Peak {
				best[key] = TupleScore{From: key.From, To: key.To, Peak: w, Old: old, New: new}
			}
		}
	}
	// Rank by peak, then label; each label is rendered once, not once per
	// comparison.
	type ranked struct {
		ts    TupleScore
		label string
	}
	order := make([]ranked, 0, len(best))
	for _, ts := range best {
		order = append(order, ranked{ts, ts.Label(ex.Schema)})
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].ts.Peak != order[j].ts.Peak {
			return order[i].ts.Peak > order[j].ts.Peak
		}
		return order[i].label < order[j].label
	})
	if n > 0 && len(order) > n {
		order = order[:n]
	}
	out := make([]TupleScore, len(order))
	for i := range order {
		out[i] = order[i].ts
	}
	return out
}

// TopEdgeTuplesCtx is TopEdgeTuples with cooperative cancellation: the
// per-pair aggregation loop polls ctx and the ranking is abandoned once the
// deadline expires, returning ctx.Err(). A nil error guarantees the same
// scores TopEdgeTuples reports.
func TopEdgeTuplesCtx(ctx context.Context, ex *Explorer, event Event, n int) ([]TupleScore, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ex.ctx = ctx
	defer func() { ex.ctx = nil }()
	out := TopEdgeTuples(ex, event, n)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
