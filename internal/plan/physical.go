package plan

import (
	"context"
	"strconv"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/evolution"
	"repro/internal/explore"
	"repro/internal/materialize"
	"repro/internal/ops"
	"repro/internal/timeline"
)

// physOp is one selected physical operator. Operators carry their resolved
// compile-time state (views, schemas, filters — all immutable) and create
// any mutable engine state fresh per run, so a compiled plan is safe to
// execute concurrently.
type physOp interface {
	// name is the operator's Explain node name.
	name() string
	// describe returns the operator's Explain attributes in render order.
	// It may consult live state (the catalog's Predict) so Explain shows
	// what an execution right now would do.
	describe() []kv
	// children returns nested Explain nodes (inputs, inner operators).
	children() []physOp
	// countSelection records the operator choice in the Selections counters.
	countSelection()
	// run executes the operator into out.
	run(ctx context.Context, out *Result) error
}

// kv is one rendered Explain attribute.
type kv struct{ k, v string }

func itoa64(n int64) string { return strconv.FormatInt(n, 10) }

// ---- view input node -------------------------------------------------

// viewOp is the materialized temporal-operator input of an aggregation
// operator. It never runs — the view is built at compile — and appears in
// Explain so plans show what the parent scans.
type viewOp struct {
	op   string // project, union, intersection, difference
	view *ops.View
}

func newViewOp(g *core.Graph, op string, a, b timeline.Interval) *viewOp {
	return &viewOp{op: op, view: buildView(g, op, a, b)}
}

func (o *viewOp) name() string {
	switch o.op {
	case OpProject:
		return "Project"
	case OpUnion:
		return "Union"
	case OpIntersection:
		return "Intersection"
	default:
		return "Difference"
	}
}

func (o *viewOp) describe() []kv {
	return []kv{
		{"times", o.view.Times().String()},
		{"nodes", strconv.Itoa(o.view.NumNodes())},
		{"edges", strconv.Itoa(o.view.NumEdges())},
	}
}

func (o *viewOp) children() []physOp { return nil }
func (o *viewOp) countSelection()    {}
func (o *viewOp) run(ctx context.Context, out *Result) error {
	return nil // input node; the parent consumes o.view directly
}

// entities returns the selected entity count (the parallel-crossover input).
func (o *viewOp) entities() int { return o.view.NumNodes() + o.view.NumEdges() }

// ---- aggregate operators ---------------------------------------------

// catalogAggOp answers a union-ALL aggregate through the materialization
// catalog: serving cache, then T-distributive composition from per-point
// stores, then single-point D-distributive roll-up, then scratch.
type catalogAggOp struct {
	cat    *materialize.Catalog
	iv     timeline.Interval
	attrs  []core.AttrID
	schema *agg.Schema
	g      *core.Graph
}

func (o *catalogAggOp) name() string { return "CatalogUnionAll" }

func (o *catalogAggOp) describe() []kv {
	// The source is predicted live: a cached or newly materialized store
	// changes the answer between compiles of the same plan, and Explain
	// should describe the execution a caller would get now.
	src := o.cat.Predict(o.iv, o.attrs...)
	var cost int64
	switch src {
	case materialize.Cached:
		cost = 1
	case materialize.TDistributive:
		cost = int64(o.iv.Len()) * o.schema.Domain()
	case materialize.DDistributive:
		cost = o.schema.Domain()
	default:
		cost = scanCost(o.g)
	}
	return []kv{
		{"interval", o.iv.String()},
		{"source-hint", src.String()},
		{"composition", "prefix-sum"},
		{"est_cost", itoa64(cost)},
	}
}

func (o *catalogAggOp) children() []physOp { return nil }
func (o *catalogAggOp) countSelection()    { Selections.CatalogUnion.Inc() }

func (o *catalogAggOp) run(ctx context.Context, out *Result) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ag, src, err := o.cat.UnionAll(o.iv, o.attrs...)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	out.Agg, out.AggSource = ag, src
	return nil
}

// viewAggOp aggregates a view on the aggregation kernels, with the
// chunked-parallel engine on GOMAXPROCS workers when the view is large
// enough to amortize worker spawn and merge.
type viewAggOp struct {
	view   *viewOp
	schema *agg.Schema
	kind   agg.Kind
	cost   int64
}

func (o *viewAggOp) name() string { return "ViewAggregate" }

// mode reports serial vs parallel execution: the engine's compile-time
// crossover on the view's selected entity count.
func (o *viewAggOp) mode() string {
	if o.view.entities() < agg.ParallelMinEntities() {
		return "serial"
	}
	return "parallel"
}

func (o *viewAggOp) describe() []kv {
	return []kv{
		{"kind", kindString(o.kind)},
		{"mode", o.mode()},
		{"est_cost", itoa64(o.cost)},
	}
}

func (o *viewAggOp) children() []physOp { return []physOp{o.view} }
func (o *viewAggOp) countSelection()    { Selections.DenseAgg.Inc() }

func (o *viewAggOp) run(ctx context.Context, out *Result) error {
	ag, err := agg.AggregateParallelCtx(ctx, o.view.view, o.schema, o.kind, 0) // 0: GOMAXPROCS
	if err != nil {
		return err
	}
	out.Agg, out.AggSource = ag, materialize.Scratch
	return nil
}

// filteredAggOp aggregates a view under an appearance filter: the serial
// time-major kernel, evaluating the predicates per appearance.
type filteredAggOp struct {
	view   *viewOp
	schema *agg.Schema
	kind   agg.Kind
	preds  int
	filter agg.Filter
	cost   int64
}

func (o *filteredAggOp) name() string { return "FilteredAggregate" }

func (o *filteredAggOp) describe() []kv {
	return []kv{
		{"kind", kindString(o.kind)},
		{"predicates", strconv.Itoa(o.preds)},
		{"est_cost", itoa64(o.cost)},
	}
}

func (o *filteredAggOp) children() []physOp { return []physOp{o.view} }
func (o *filteredAggOp) countSelection()    { Selections.FilteredAgg.Inc() }

func (o *filteredAggOp) run(ctx context.Context, out *Result) error {
	ag, err := agg.AggregateFiltered(ctx, o.view.view, o.schema, o.kind, o.filter)
	if err != nil {
		return err
	}
	out.Agg, out.AggSource = ag, materialize.Scratch
	return nil
}

// measureAggOp computes a SUM/AVG/MIN/MAX measure over a numeric attribute
// per aggregate node.
type measureAggOp struct {
	view   *viewOp
	schema *agg.Schema
	attr   core.AttrID
	fn     agg.Measure
	fnName string
	attrNm string
	cost   int64
}

func (o *measureAggOp) name() string { return "MeasureAggregate" }

func (o *measureAggOp) describe() []kv {
	return []kv{
		{"fn", o.fnName},
		{"attr", o.attrNm},
		{"est_cost", itoa64(o.cost)},
	}
}

func (o *measureAggOp) children() []physOp { return []physOp{o.view} }
func (o *measureAggOp) countSelection()    { Selections.MeasureAgg.Inc() }

func (o *measureAggOp) run(ctx context.Context, out *Result) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	mg, err := agg.AggregateMeasure(o.view.view, o.schema, o.attr, o.fn)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	out.Measure = mg
	return nil
}

// kindString renders agg.Kind canonically.
func kindString(k agg.Kind) string {
	if k == agg.All {
		return "ALL"
	}
	return "DIST"
}

// eventString renders an event class with its full name (Class.String uses
// the paper's terse figure labels).
func eventString(e explore.Event) string {
	switch e {
	case evolution.Stability:
		return "STABILITY"
	case evolution.Growth:
		return "GROWTH"
	default:
		return "SHRINKAGE"
	}
}

// ---- exploration operators -------------------------------------------

// exploreOp runs one §3 exploration. The fast path reads the graph's own
// point index (built on first use, so EXPLAIN stays free); every piece of
// engine state lives in a fresh Explorer per run.
type exploreOp struct {
	g      *core.Graph
	schema *agg.Schema
	kind   agg.Kind
	event  explore.Event
	sem    explore.Semantics
	ext    explore.Extend
	k      int64 // < 1 selects the §3.5 initialization
	result explore.Measure
	target string
	cost   int64
}

func (o *exploreOp) name() string { return "FastExplore" }

func (o *exploreOp) kString() string {
	if o.k >= 1 {
		return itoa64(o.k)
	}
	if o.sem == explore.UnionSemantics {
		return "auto(max-init)"
	}
	return "auto(min-init)"
}

func (o *exploreOp) describe() []kv {
	return []kv{
		{"traversal", explore.TraversalName(o.event, o.sem, o.ext)},
		{"engine", "incremental-views"},
		{"event", eventString(o.event)},
		{"target", o.target},
		{"k", o.kString()},
		{"est_cost", itoa64(o.cost)},
	}
}

func (o *exploreOp) children() []physOp { return nil }

func (o *exploreOp) countSelection() { Selections.FastExplore.Inc() }

// explorer builds the per-run engine.
func (o *exploreOp) explorer() *explore.Explorer {
	return &explore.Explorer{
		Graph:  o.g,
		Schema: o.schema,
		Kind:   o.kind,
		Result: o.result,
	}
}

func (o *exploreOp) run(ctx context.Context, out *Result) error {
	ex := o.explorer()
	k := o.k
	if k < 1 {
		// §3.5 initialization: max of consecutive pairs for minimal
		// (union) searches, min for maximal (intersection) ones.
		min, max := ex.InitK(o.event)
		if o.sem == explore.UnionSemantics {
			k = max
		} else {
			k = min
		}
		if k < 1 {
			k = 1
		}
	}
	pairs, err := ex.ExploreCtx(ctx, o.event, o.sem, o.ext, k)
	if err != nil {
		return err
	}
	out.Pairs, out.K, out.Evaluations = pairs, k, ex.Evaluations
	return nil
}

// tuneOp wraps an exploration in the §3.5 threshold tuning loop, which
// memoizes candidate evaluations across its exponential ramp and binary
// search (the runs walk overlapping candidate chains).
type tuneOp struct {
	inner    *exploreOp
	minPairs int
}

func (o *tuneOp) name() string { return "TuneK" }

func (o *tuneOp) describe() []kv {
	return []kv{
		{"min_pairs", strconv.Itoa(o.minPairs)},
		{"evaluation", "memoized"},
	}
}

func (o *tuneOp) children() []physOp { return []physOp{o.inner} }
func (o *tuneOp) countSelection()    { Selections.TuneExplore.Inc() }

func (o *tuneOp) run(ctx context.Context, out *Result) error {
	ex := o.inner.explorer()
	k, pairs, err := ex.TuneKCtx(ctx, o.inner.event, o.inner.sem, o.inner.ext, o.minPairs)
	if err != nil {
		return err
	}
	out.Pairs, out.K, out.Evaluations = pairs, k, ex.Evaluations
	return nil
}

// topOp ranks aggregate edges (attribute-pair groups) by peak event count
// over consecutive interval pairs: one pass builds the graph's point index
// (once per graph), then every pair is an output-sized pair view.
type topOp struct {
	g      *core.Graph
	schema *agg.Schema
	event  explore.Event
	n      int
	cost   int64
}

func (o *topOp) name() string { return "TopEdgeTuples" }

func (o *topOp) describe() []kv {
	return []kv{
		{"n", strconv.Itoa(o.n)},
		{"event", eventString(o.event)},
		{"pairs", "consecutive"},
		{"engine", "pair-views"},
		{"est_cost", itoa64(o.cost)},
	}
}

func (o *topOp) children() []physOp { return nil }
func (o *topOp) countSelection()    { Selections.Top.Inc() }

func (o *topOp) run(ctx context.Context, out *Result) error {
	ex := &explore.Explorer{Graph: o.g, Schema: o.schema, Kind: agg.Distinct, Result: explore.TotalEdges}
	top, err := explore.TopEdgeTuplesCtx(ctx, ex, o.event, o.n)
	if err != nil {
		return err
	}
	out.Top, out.TopSchema = top, o.schema
	return nil
}

// evolveOp computes the evolution aggregate between two intervals.
type evolveOp struct {
	g      *core.Graph
	schema *agg.Schema
	kind   agg.Kind
	old    timeline.Interval
	new    timeline.Interval
	filter agg.Filter
	preds  int
	cost   int64
}

func (o *evolveOp) name() string { return "EvolutionAggregate" }

func filterString(preds int) string {
	if preds == 0 {
		return "none"
	}
	return "predicates:" + strconv.Itoa(preds)
}

func (o *evolveOp) describe() []kv {
	return []kv{
		{"kind", kindString(o.kind)},
		{"old", o.old.String()},
		{"new", o.new.String()},
		{"filter", filterString(o.preds)},
		{"est_cost", itoa64(o.cost)},
	}
}

func (o *evolveOp) children() []physOp { return nil }
func (o *evolveOp) countSelection()    { Selections.Evolve.Inc() }

func (o *evolveOp) run(ctx context.Context, out *Result) error {
	ev, err := evolution.AggregateCtx(ctx, o.g, o.old, o.new, o.schema, o.kind, evolution.Filter(o.filter))
	if err != nil {
		return err
	}
	out.Evolution = ev
	return nil
}

// timelineOp computes evolution weights for every consecutive pair in one
// entity sweep.
type timelineOp struct {
	g      *core.Graph
	schema *agg.Schema
	filter agg.Filter
	preds  int
	steps  int
	cost   int64
}

func (o *timelineOp) name() string { return "EvolutionTimeline" }

func (o *timelineOp) describe() []kv {
	return []kv{
		{"steps", strconv.Itoa(o.steps)},
		{"filter", filterString(o.preds)},
		{"est_cost", itoa64(o.cost)},
	}
}

func (o *timelineOp) children() []physOp { return nil }
func (o *timelineOp) countSelection()    { Selections.Timeline.Inc() }

func (o *timelineOp) run(ctx context.Context, out *Result) error {
	steps, err := evolution.TimelineCtx(ctx, o.g, o.schema, agg.Distinct, evolution.Filter(o.filter))
	if err != nil {
		return err
	}
	out.Timeline = steps
	return nil
}
