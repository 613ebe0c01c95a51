package evolution

import (
	"cmp"
	"context"
	"slices"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/timeline"
)

// TimelineStep summarizes the evolution between one consecutive pair of
// base time points: total node and edge weights per event class.
type TimelineStep struct {
	Old, New  timeline.Time
	NodeSt    int64
	NodeGr    int64
	NodeShr   int64
	EdgeSt    int64
	EdgeGr    int64
	EdgeShr   int64
	NodeTotal int64
	EdgeTotal int64
}

// Timeline computes the step-by-step evolution profile of the whole graph:
// for every consecutive pair (t_i, t_{i+1}), the aggregated evolution
// graph under s is reduced to class totals. It is the series behind
// dataset-dynamics plots (e.g. how much of each month's co-rating graph
// turns over) and the Fig. 12 analysis swept across the whole time axis.
// All steps come out of one pass over the entities (width-1 tiles).
func Timeline(g *core.Graph, s *agg.Schema, kind agg.Kind, filter Filter) []TimelineStep {
	out, _ := TimelineCtx(context.Background(), g, s, kind, filter)
	return out
}

// TimelineCtx is Timeline with cooperative cancellation, polled inside the
// entity pass. A nil error guarantees Timeline's result.
func TimelineCtx(ctx context.Context, g *core.Graph, s *agg.Schema, kind agg.Kind, filter Filter) ([]TimelineStep, error) {
	if s.Graph() != g {
		panic("evolution: schema built on a different graph")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tl := g.Timeline()
	out := make([]TimelineStep, max(tl.Len()-1, 0))
	for i := range out {
		out[i].Old, out[i].New = timeline.Time(i), timeline.Time(i+1)
	}
	if KernelName(s) == "dense" {
		sw := sweep{g: g, s: s, kind: kind, filter: filter, edges: true, win: tileWindows(tl, 1)}
		sc, err := sw.run(ctx)
		defer sw.release(sc)
		if err != nil {
			return nil, err
		}
		for _, i := range sc.nodes.touched {
			w := sc.nodes.w[i]
			out[i].NodeSt, out[i].NodeGr, out[i].NodeShr = w.St, w.Gr, w.Shr
		}
		for _, i := range sc.edges.touched {
			w := sc.edges.w[i]
			out[i].EdgeSt, out[i].EdgeGr, out[i].EdgeShr = w.St, w.Gr, w.Shr
		}
	} else {
		for i := range out {
			ev, err := aggregateMap(ctx, g, tl.Point(out[i].Old), tl.Point(out[i].New), s, kind, filter, true)
			if err != nil {
				return nil, err
			}
			step := &out[i]
			for _, w := range ev.Nodes {
				step.NodeSt += w.St
				step.NodeGr += w.Gr
				step.NodeShr += w.Shr
			}
			for _, w := range ev.Edges {
				step.EdgeSt += w.St
				step.EdgeGr += w.Gr
				step.EdgeShr += w.Shr
			}
		}
	}
	for i := range out {
		step := &out[i]
		step.NodeTotal = step.NodeSt + step.NodeGr + step.NodeShr
		step.EdgeTotal = step.EdgeSt + step.EdgeGr + step.EdgeShr
	}
	return out, nil
}

// StepWeights is one cell of a tiled sweep: the weights of a tuple between
// tiles Step and Step+1.
type StepWeights struct {
	Step  int
	Tuple agg.Tuple
	Weights
}

// TileSweep tiles the timeline into width-point windows (the last one may
// be short) and classifies the node tuples between every pair of
// consecutive tiles with Aggregate's semantics, in one pass over the nodes.
// It returns the non-zero cells ordered by step, then tuple code — the
// kernel of the EVENTS statement. ctx is polled inside the pass.
func TileSweep(ctx context.Context, g *core.Graph, s *agg.Schema, kind agg.Kind, width int, filter Filter) ([]StepWeights, error) {
	if s.Graph() != g {
		panic("evolution: schema built on a different graph")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tl := g.Timeline()
	win := tileWindows(tl, width)
	if KernelName(s) == "dense" {
		sw := sweep{g: g, s: s, kind: kind, filter: filter, keepTuples: true, win: win}
		sc, err := sw.run(ctx)
		defer sw.release(sc)
		if err != nil {
			return nil, err
		}
		slices.Sort(sc.nodes.touched)
		out := make([]StepWeights, len(sc.nodes.touched))
		d := int32(s.Domain())
		for k, i := range sc.nodes.touched {
			out[k] = StepWeights{Step: int(i / d), Tuple: agg.Tuple(i % d), Weights: sc.nodes.w[i]}
		}
		return out, nil
	}
	var out []StepWeights
	tile := func(j int) timeline.Interval {
		return tl.Range(timeline.Time(j*width), timeline.Time(min((j+1)*width, tl.Len())-1))
	}
	for step := 0; step < win.n-1; step++ {
		ev, err := aggregateMap(ctx, g, tile(step), tile(step+1), s, kind, filter, false)
		if err != nil {
			return nil, err
		}
		from := len(out)
		for tu, w := range ev.Nodes {
			out = append(out, StepWeights{Step: step, Tuple: tu, Weights: w})
		}
		slices.SortFunc(out[from:], func(a, b StepWeights) int { return cmp.Compare(a.Tuple, b.Tuple) })
	}
	return out, nil
}
