package plan

import (
	"context"
	"strconv"
	"strings"

	"repro/internal/agg"
	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/evolution"
	"repro/internal/materialize"
)

// This file compiles the evolution-analytics statement family (EVENTS,
// PATHS, TREND) into physical operators:
//
//   - EVENTS: the entity-sweep engine answers every step in a single
//     entity pass (scan + steps). The evolution triple is per-entity
//     presence in BOTH windows, which per-point aggregate vectors cannot
//     express, so the catalog never applies.
//   - PATHS: the frontier engine pays a per-point adjacency build (one pass
//     over each window point's edge column) to make each evaluation a
//     single time sweep over slices.
//   - TREND: a union-ALL window weight is T-distributive, so unfiltered
//     ALL trends compose every window from the catalog's prefix sums in
//     O(windows) vector ops; DIST or filtered trends scan the base graph.

func compileEvents(env Env, q *Events) (physOp, error) {
	g, in := env.Graph, env.Query
	schema, err := resolveSchema(g, in, q.Attrs, q.AttrsPos)
	if err != nil {
		return nil, err
	}
	kind, err := resolveKind(in, q.Kind)
	if err != nil {
		return nil, err
	}
	if q.Min < 0 {
		return nil, errf(in, 0, "", "EVENTS MIN must be >= 0, got %d", q.Min)
	}
	filter, err := CompilePredicates(g, in, q.Where)
	if err != nil {
		return nil, err
	}
	w := normWidth(q.Width)
	steps := max((g.Timeline().Len()+w-1)/w-1, 0)
	return &eventsOp{
		g: g, schema: schema, kind: kind, filter: filter,
		preds: len(q.Where), width: w, min: q.Min, steps: steps,
		cost: scanCost(g) + int64(steps),
	}, nil
}

func compilePaths(env Env, q *Paths) (physOp, error) {
	g, in := env.Graph, env.Query
	mode := strings.ToLower(q.Mode)
	switch mode {
	case "", analytics.ModeEarliest:
		mode = analytics.ModeEarliest
	case analytics.ModeFastest:
	default:
		return nil, errf(in, 0, "", "unknown paths mode %q (want EARLIEST or FASTEST)", q.Mode)
	}
	if len(q.From) == 0 || len(q.To) == 0 {
		return nil, errf(in, 0, "", "PATHS needs FROM and TO node sets")
	}
	resolveNodes := func(labels []string, poss []int) ([]core.NodeID, error) {
		out := make([]core.NodeID, 0, len(labels))
		for i, l := range labels {
			id, ok := g.NodeByLabel(l)
			if !ok {
				return nil, errf(in, posAt(poss, i), l, "unknown node %q", l)
			}
			out = append(out, id)
		}
		return out, nil
	}
	src, err := resolveNodes(q.From, q.FromPos)
	if err != nil {
		return nil, err
	}
	dst, err := resolveNodes(q.To, q.ToPos)
	if err != nil {
		return nil, err
	}
	window := g.Timeline().All()
	if !q.During.IsZero() {
		window, err = ResolveInterval(g, in, q.During)
		if err != nil {
			return nil, err
		}
		if !window.IsContiguous() {
			return nil, errf(in, q.During.FromPos, q.During.From,
				"PATHS DURING requires a contiguous range")
		}
	}
	winLen := window.Len()
	sweeps := int64(1)
	if mode == analytics.ModeFastest {
		sweeps = int64(winLen)
	}
	return &pathsOp{
		g: g,
		spec: analytics.PathsSpec{
			Mode: mode, Src: src, Dst: dst, Window: window,
		},
		srcN: len(q.From), dstN: len(q.To),
		cost: scanCost(g) + sweeps*int64(g.NumNodes()+winLen),
	}, nil
}

func compileTrend(env Env, q *Trend) (physOp, error) {
	g, in := env.Graph, env.Query
	schema, err := resolveSchema(g, in, q.Attrs, q.AttrsPos)
	if err != nil {
		return nil, err
	}
	kind, err := resolveKind(in, q.Kind)
	if err != nil {
		return nil, err
	}
	filter, err := CompilePredicates(g, in, q.Where)
	if err != nil {
		return nil, err
	}
	w := normWidth(q.Width)
	windows := max(g.Timeline().Len()-w+1, 0)
	// A window's ALL weight is the union-ALL aggregate of its points —
	// T-distributive, so the catalog answers each window as one prefix-sum
	// composition. DIST weights (distinct entities per window) and
	// filtered trends are not composable from per-point vectors.
	useCatalog := kind == agg.All && filter == nil && env.Catalog != nil
	if useCatalog {
		return &trendCatalogOp{
			cat: env.Catalog, g: g, schema: schema, width: w, windows: windows,
			cost: int64(windows) * schema.Domain(),
		}, nil
	}
	return &trendScanOp{
		g: g, schema: schema, kind: kind, filter: filter,
		preds: len(q.Where), width: w, windows: windows,
		cost: scanCost(g) + int64(windows),
	}, nil
}

// ---- events operator --------------------------------------------------

// eventsOp classifies attribute groups into evolution events per
// consecutive window pair on the entity-sweep engine.
type eventsOp struct {
	g      *core.Graph
	schema *agg.Schema
	kind   agg.Kind
	filter agg.Filter
	preds  int
	width  int
	min    int64
	steps  int
	cost   int64
}

func (o *eventsOp) name() string { return "EventsSweep" }

func (o *eventsOp) describe() []kv {
	attrs := []kv{
		{"kind", kindString(o.kind)},
		{"width", strconv.Itoa(o.width)},
		{"steps", strconv.Itoa(o.steps)},
		{"engine", "entity-sweep"},
		{"filter", filterString(o.preds)},
	}
	if o.min > 0 {
		attrs = append(attrs, kv{"min", itoa64(o.min)})
	}
	return append(attrs, kv{"est_cost", itoa64(o.cost)})
}

func (o *eventsOp) children() []physOp { return nil }

func (o *eventsOp) countSelection() { Selections.EventsSweep.Inc() }

func (o *eventsOp) run(ctx context.Context, out *Result) error {
	res, err := analytics.EventsSweepCtx(ctx, o.g, analytics.EventsSpec{
		Schema: o.schema, Kind: o.kind, Width: o.width, Min: o.min,
		Filter: evolution.Filter(o.filter),
	})
	if err != nil {
		return err
	}
	out.Events = res
	return nil
}

// ---- paths operator ---------------------------------------------------

// pathsOp answers a time-respecting path query on the frontier engine,
// built per run: a repeated query on a serving state is answered from the
// plan's memo.
type pathsOp struct {
	g          *core.Graph
	spec       analytics.PathsSpec
	srcN, dstN int
	cost       int64
}

func (o *pathsOp) name() string { return "PathsFrontier" }

func (o *pathsOp) describe() []kv {
	return []kv{
		{"mode", o.spec.Mode},
		{"sources", strconv.Itoa(o.srcN)},
		{"targets", strconv.Itoa(o.dstN)},
		{"window", o.spec.Window.String()},
		{"engine", "time-bucket-frontier"},
		{"est_cost", itoa64(o.cost)},
	}
}

func (o *pathsOp) children() []physOp { return nil }

func (o *pathsOp) countSelection() { Selections.PathsFront.Inc() }

func (o *pathsOp) run(ctx context.Context, out *Result) error {
	res, err := analytics.NewPathsEngine(o.g, o.spec).RunCtx(ctx)
	out.Paths = res
	return err
}

// ---- trend operators --------------------------------------------------

// trendCatalogOp composes every sliding-window weight from the catalog's
// prefix sums.
type trendCatalogOp struct {
	cat     *materialize.Catalog
	g       *core.Graph
	schema  *agg.Schema
	width   int
	windows int
	cost    int64
}

func (o *trendCatalogOp) name() string { return "TrendCatalog" }

func (o *trendCatalogOp) describe() []kv {
	return []kv{
		{"kind", kindString(agg.All)},
		{"width", strconv.Itoa(o.width)},
		{"windows", strconv.Itoa(o.windows)},
		{"composition", "prefix-sum"},
		{"est_cost", itoa64(o.cost)},
	}
}

func (o *trendCatalogOp) children() []physOp { return nil }

func (o *trendCatalogOp) countSelection() { Selections.TrendCatalog.Inc() }

func (o *trendCatalogOp) run(ctx context.Context, out *Result) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	res, err := analytics.TrendCatalog(o.cat, o.g, analytics.TrendSpec{
		Schema: o.schema, Kind: agg.All, Width: o.width,
	})
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	out.Trend = res
	return nil
}

// trendScanOp computes sliding-window series directly on the base graph.
type trendScanOp struct {
	g       *core.Graph
	schema  *agg.Schema
	kind    agg.Kind
	filter  agg.Filter
	preds   int
	width   int
	windows int
	cost    int64
}

func (o *trendScanOp) name() string { return "TrendScan" }

func (o *trendScanOp) describe() []kv {
	return []kv{
		{"kind", kindString(o.kind)},
		{"width", strconv.Itoa(o.width)},
		{"windows", strconv.Itoa(o.windows)},
		{"filter", filterString(o.preds)},
		{"est_cost", itoa64(o.cost)},
	}
}

func (o *trendScanOp) children() []physOp { return nil }

func (o *trendScanOp) countSelection() { Selections.TrendScan.Inc() }

func (o *trendScanOp) run(ctx context.Context, out *Result) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	res := analytics.TrendScan(o.g, analytics.TrendSpec{
		Schema: o.schema, Kind: o.kind, Width: o.width, Filter: o.filter,
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	out.Trend = res
	return nil
}
