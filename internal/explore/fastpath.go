package explore

import (
	"repro/internal/evolution"
	"repro/internal/ops"
	"repro/internal/timeline"
)

// This file implements the exploration fast path's candidate evaluator:
// incremental interval views.
//
// The seed evaluator rebuilds every candidate pair from scratch — a
// selector-driven entity scan (StabilityView/DifferenceView is O(|V|+|E|)
// with a per-entity interval test) followed by a fresh aggregation. But the
// candidates of one reference point form a chain where each step extends
// the moving side by exactly one time point, so the entity selection of
// step extra+1 is a single word-level OrWith/AndWith away from step extra.
// The fast path keeps one ops.IncrementalView per side of the current
// reference point and advances them with ExtendUnion/ExtendIntersect,
// combining the two sides through a reusable ops.PairView. Both engines run
// the same traversals (explore.go), which visit each reference point's
// extensions in increasing order, so a side only moves outward until the
// next reference point re-anchors it.
//
// Equivalence with the selector path (proved value-for-value by the
// property tests in ops/incremental_test.go): a union-extended side
// accumulates {x : τ(x) ∩ T ≠ ∅} = Exists(T); an intersection-extended
// side accumulates {x : T ⊆ τ(x)} = ForAll(T); a fixed single-point side is
// the same under both, matching sel().
//
// A measure that weighs edges combines edges alone (ops.NewEdgePairView):
// no node side, no Definition 2.5 rescue. On an all-static schema the
// combined view is not aggregated either: the mask evaluator (measure.go)
// counts it.

// fastRun is one traversal's fast evaluator: the two sides of reference
// point i's current candidate (Told anchored at i, Tnew at i+1, the side
// selected by Extend grown by extra points), the PairView that combines
// them, all reading the graph's point index, and the mask evaluator (nil on
// a schema with a time-varying attribute).
type fastRun struct {
	ex    *Explorer
	event Event
	sem   Semantics
	ext   Extend
	masks *masks
	pv    *ops.PairView

	i, extra     int
	oldIV, newIV *ops.IncrementalView // nil until the first computed candidate
}

func (ex *Explorer) newFastRun(event Event, sem Semantics, ext Extend) *fastRun {
	fr := &fastRun{ex: ex, event: event, sem: sem, ext: ext, masks: ex.masks()}
	if ex.Result.nodes {
		fr.pv = ops.NewPairView(ex.Graph)
	} else {
		fr.pv = ops.NewEdgePairView(ex.Graph)
	}
	return fr
}

// eval is the fast path's candidateFunc: advance the views to reference
// point i's candidate at extension extra and measure it, charging the
// evaluation to Evaluations. A memo hit is free and leaves the views where
// they are; the next computed candidate catches them up.
func (fr *fastRun) eval(i, extra int, old, new timeline.Interval) int64 {
	var oldSel, newSel ops.Sel
	if fr.ex.memo != nil {
		oldSel, newSel = sel(old, fr.sem), sel(new, fr.sem)
		if r, ok := fr.ex.memo.lookup(fr.event, oldSel, newSel); ok {
			return r
		}
	}
	if fr.oldIV == nil || i != fr.i || extra < fr.extra {
		fr.anchor(i)
	}
	for fr.extra < extra {
		fr.extra++
		var iv *ops.IncrementalView
		var t timeline.Time
		if fr.ext == ExtendNew {
			iv, t = fr.newIV, timeline.Time(i+1+fr.extra)
		} else {
			iv, t = fr.oldIV, timeline.Time(i-fr.extra)
		}
		if fr.sem == IntersectionSemantics {
			iv.ExtendIntersect(t)
		} else {
			iv.ExtendUnion(t)
		}
	}
	var v *ops.View
	switch fr.event {
	case evolution.Stability:
		v = fr.pv.Stability(fr.oldIV, fr.newIV)
	case evolution.Growth:
		v = fr.pv.Difference(fr.newIV, fr.oldIV)
	case evolution.Shrinkage:
		v = fr.pv.Difference(fr.oldIV, fr.newIV)
	default:
		panic("explore: unknown event")
	}
	r := fr.ex.measure(fr.masks, v)
	fr.ex.Evaluations++
	TotalEvaluations.Inc()
	if fr.ex.memo != nil {
		fr.ex.memo.store(fr.event, oldSel, newSel, r)
	}
	return r
}

// anchor re-anchors the views at reference point i's consecutive pair.
func (fr *fastRun) anchor(i int) {
	if fr.oldIV == nil {
		fr.oldIV = ops.NewIncrementalView(fr.ex.Graph, timeline.Time(i))
		fr.newIV = ops.NewIncrementalView(fr.ex.Graph, timeline.Time(i+1))
	} else {
		fr.oldIV.Reset(timeline.Time(i))
		fr.newIV.Reset(timeline.Time(i + 1))
	}
	fr.i, fr.extra = i, 0
}
