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
	sw := sweep{g: g, s: s, kind: kind, filter: filter, edges: true, win: tileWindows(tl, 1)}
	sc, err := sw.run(ctx)
	defer sw.release(sc)
	if err != nil {
		return nil, err
	}
	for i := range sc.nodes.Len() {
		step, w := sc.nodes.Entry(i)
		out[step].NodeSt, out[step].NodeGr, out[step].NodeShr = w.St, w.Gr, w.Shr
	}
	for i := range sc.edges.Len() {
		step, w := sc.edges.Entry(i)
		out[step].EdgeSt, out[step].EdgeGr, out[step].EdgeShr = w.St, w.Gr, w.Shr
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
	sw := sweep{g: g, s: s, kind: kind, filter: filter, keepTuples: true, win: tileWindows(g.Timeline(), width)}
	sc, err := sw.run(ctx)
	defer sw.release(sc)
	if err != nil {
		return nil, err
	}
	d := s.Domain()
	out := make([]StepWeights, sc.nodes.Len())
	for k := range out {
		c, w := sc.nodes.Entry(k)
		out[k] = StepWeights{Step: int(c / d), Tuple: agg.Tuple(c % d), Weights: w}
	}
	slices.SortFunc(out, func(a, b StepWeights) int {
		return cmp.Or(cmp.Compare(a.Step, b.Step), cmp.Compare(a.Tuple, b.Tuple))
	})
	return out, nil
}
