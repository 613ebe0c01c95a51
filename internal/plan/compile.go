package plan

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/agg"
	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/evolution"
	"repro/internal/explore"
	"repro/internal/materialize"
	"repro/internal/timeline"
)

// Env is the compile environment: the concrete graph a logical plan is
// resolved against plus the optional serving facilities that unlock
// physical operators.
type Env struct {
	// Graph is the base graph. Required.
	Graph *core.Graph
	// Catalog, when set, enables the catalog-backed UnionAll operator for
	// union-ALL aggregates (T-distributive / D-distributive reuse, §4.3).
	// Nil compiles every aggregate to direct recompute.
	Catalog *materialize.Catalog
	// Query is the originating query text, used only to position
	// resolution errors ("" renders plain messages for wire requests).
	Query string
	// Cache, when set, memoizes compiled plans on the canonical query text
	// (generation-keyed on Graph/Catalog identity).
	Cache *Cache
	// Feedback, when set, records observed cardinalities from executed
	// plans and adapts Compile's selections (serial vs parallel, dense vs
	// map kernel) to them.
	Feedback *Feedback
	// History, when set, resolves AS OF / VALID DURING clauses into
	// reconstructed historical states (graph, catalog, plan cache). Nil
	// still serves VALID DURING by windowing Graph inline, but rejects
	// AS OF — there is no transaction log to travel on.
	History HistoryResolver
}

// Result holds the output of one executed plan; the fields mirror the
// statement families, with exactly one payload group set.
type Result struct {
	Agg *agg.Graph
	// AggSource reports how an aggregate was derived (scratch unless the
	// catalog-backed operator answered it).
	AggSource materialize.Source
	Measure   *agg.MeasureGraph
	Evolution *evolution.Agg
	Pairs     []explore.Pair
	// K is the threshold an exploration ran with (given, initialized or
	// tuned); Evaluations its candidate-evaluation count.
	K           int64
	Evaluations int
	Top         []explore.TupleScore
	TopSchema   *agg.Schema
	Timeline    []evolution.TimelineStep
	// Events, Paths and Trend are the evolution-analytics payloads
	// (internal/analytics statement families).
	Events *analytics.EventsResult
	Paths  *analytics.PathsResult
	Trend  *analytics.TrendResult
}

// Plan is an executable physical plan: the logical node it was compiled
// from and the selected operator tree. Compiled state (views, schemas,
// filters) is immutable, so one Plan may be executed concurrently; each
// Execute runs on fresh per-run engine state.
type Plan struct {
	logical Logical
	root    physOp

	// Time reach, for suffix-scoped cache invalidation (Cache.Advance):
	// a bounded plan reads base time points ≤ maxTime only; an unbounded
	// plan (EXPLORE/TOP/TIMELINE) traverses the whole timeline.
	maxTime int
	bounded bool
}

// Logical returns the logical node the plan was compiled from.
func (p *Plan) Logical() Logical { return p.logical }

// Execute runs the plan. The selection counters record the root operator
// on every execution; ctx cancels cooperatively inside the engines.
func (p *Plan) Execute(ctx context.Context) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.root.countSelection()
	out := &Result{}
	if err := p.root.run(ctx, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Compile resolves a logical node against env into an executable physical
// plan, selecting operators through the cost model and consulting the plan
// cache when env.Cache is set. All user-facing resolution errors (unknown
// time points, attributes, enum values, malformed combinations) surface
// here; Execute can only fail on context cancellation or engine errors.
func Compile(env Env, node Logical) (*Plan, error) {
	if env.Graph == nil {
		return nil, fmt.Errorf("plan: no graph to compile against")
	}
	// Bi-temporal clauses swap the whole environment — graph, catalog AND
	// plan cache — before the cache lookup below, so a historical compile
	// can neither hit nor pollute the head's cache.
	env, err := resolveHistory(env, node)
	if err != nil {
		return nil, err
	}
	var key string
	if env.Cache != nil {
		key = node.Key()
		if env.Feedback != nil {
			// New observations bump the epoch, so an adapted selection takes
			// effect on the next compile instead of hiding behind the cache.
			key += "|fb=" + strconv.Itoa(env.Feedback.epochFor(node.Key()))
		}
		if p := env.Cache.lookup(env.Graph, env.Catalog, key); p != nil {
			CacheHits.Inc()
			return p, nil
		}
		CacheMisses.Inc()
	}
	var (
		root    physOp
		maxTime int
		bounded bool
	)
	switch q := node.(type) {
	case *Aggregate:
		root, maxTime, err = compileAggregate(env, q)
		bounded = true
	case *Explore:
		root, err = compileExplore(env, q)
	case *Top:
		root, err = compileTop(env, q)
	case *Evolve:
		root, maxTime, err = compileEvolve(env, q)
		bounded = true
	case *Timeline:
		root, err = compileTimeline(env, q)
	case *Events:
		root, err = compileEvents(env, q)
	case *Paths:
		root, maxTime, bounded, err = compilePaths(env, q)
	case *Trend:
		root, err = compileTrend(env, q)
	default:
		return nil, fmt.Errorf("plan: unhandled logical node %T", node)
	}
	if err != nil {
		return nil, err
	}
	p := &Plan{logical: node, root: root, maxTime: maxTime, bounded: bounded}
	if env.Cache != nil {
		env.Cache.store(env.Graph, env.Catalog, key, p)
	}
	return p, nil
}

// scanCost is the base-graph scan estimate every direct operator pays.
func scanCost(g *core.Graph) int64 {
	return int64(g.NumNodes() + g.NumEdges())
}

// maxTimeOf returns the highest time index any of the intervals touches
// (0 for all-empty), bounding how far into the timeline a compiled plan
// can read.
func maxTimeOf(ivs ...timeline.Interval) int {
	m := 0
	for _, iv := range ivs {
		if !iv.IsEmpty() && int(iv.Max()) > m {
			m = int(iv.Max())
		}
	}
	return m
}

func compileAggregate(env Env, q *Aggregate) (physOp, int, error) {
	g, in := env.Graph, env.Query
	schema, err := resolveSchema(g, in, q.Attrs, q.AttrsPos)
	if err != nil {
		return nil, 0, err
	}
	a, b, err := resolveOp(g, in, q.Op)
	if err != nil {
		return nil, 0, err
	}
	maxTime := maxTimeOf(a, b)
	kind, err := resolveKind(in, q.Kind)
	if err != nil {
		return nil, 0, err
	}
	filter, err := CompilePredicates(g, in, q.Where)
	if err != nil {
		return nil, 0, err
	}
	if q.Measure != "" {
		if filter != nil {
			return nil, 0, fmt.Errorf("tgql: WHERE and MEASURE cannot be combined")
		}
		attr, ok := g.AttrByName(q.MeasureAttr)
		if !ok {
			return nil, 0, errf(in, q.MeasureAttrPos, q.MeasureAttr, "unknown measured attribute %q", q.MeasureAttr)
		}
		var fn agg.Measure
		switch strings.ToUpper(q.Measure) {
		case "SUM":
			fn = agg.Sum
		case "AVG":
			fn = agg.Avg
		case "MIN":
			fn = agg.Min
		case "MAX":
			fn = agg.Max
		default:
			return nil, 0, errf(in, 0, "", "unknown measure %q (want SUM, AVG, MIN or MAX)", q.Measure)
		}
		return &measureAggOp{
			view:   newViewOp(g, q.Op.Op, a, b),
			schema: schema,
			attr:   attr,
			fn:     fn,
			fnName: strings.ToUpper(q.Measure),
			attrNm: q.MeasureAttr,
			cost:   scanCost(g),
		}, maxTime, nil
	}
	if filter != nil {
		return &filteredAggOp{
			view:   newViewOp(g, q.Op.Op, a, b),
			schema: schema,
			kind:   kind,
			preds:  len(q.Where),
			filter: filter,
			cost:   scanCost(g),
		}, maxTime, nil
	}
	// Union + ALL is T-distributive (§4.3): when a catalog serves this
	// graph, answer through it (cache → composed store → roll-up →
	// scratch) instead of recomputing from the base graph. DIST aggregates
	// are not T-distributive (distinct entities cannot be identified
	// across precomputed per-point graphs), so they always recompute.
	if q.Op.Op == OpUnion && kind == agg.All && env.Catalog != nil {
		return &catalogAggOp{
			cat:    env.Catalog,
			iv:     a.Union(b),
			attrs:  schema.Attrs(),
			schema: schema,
			g:      g,
		}, maxTime, nil
	}
	// Recorded feedback can demote the view operator to serial.
	return &viewAggOp{
		view:   newViewOp(g, q.Op.Op, a, b),
		schema: schema,
		kind:   kind,
		serial: mergeBound(env.Feedback, q.Key(), agg.ParallelMinEntities()),
		cost:   scanCost(g),
		fb:     env.Feedback,
		fbKey:  q.Key(),
	}, maxTime, nil
}

func compileExplore(env Env, q *Explore) (physOp, error) {
	g, in := env.Graph, env.Query
	schema, err := resolveSchema(g, in, q.Attrs, q.AttrsPos)
	if err != nil {
		return nil, err
	}
	kind, err := resolveKind(in, q.Kind)
	if err != nil {
		return nil, err
	}
	event, err := resolveEvent(in, q.Event)
	if err != nil {
		return nil, err
	}
	sem, err := resolveSemantics(in, q.Semantics)
	if err != nil {
		return nil, err
	}
	ext, err := resolveExtend(in, q.Extend)
	if err != nil {
		return nil, err
	}
	result := explore.TotalEdges
	target := "total-edges"
	switch {
	case len(q.EdgeFrom) > 0 || len(q.EdgeTo) > 0:
		if result, err = explore.EdgeTuple(schema, q.EdgeFrom, q.EdgeTo); err != nil {
			return nil, err
		}
		target = "edge-tuple"
	case len(q.NodeTuple) > 0:
		if result, err = explore.NodeTuple(schema, q.NodeTuple...); err != nil {
			return nil, err
		}
		target = "node-tuple"
	default:
		switch strings.ToLower(q.Result) {
		case "", "edges":
		case "nodes":
			result = explore.TotalNodes
			target = "total-nodes"
		default:
			return nil, errf(in, 0, "", "unknown result %q (want edges or nodes)", q.Result)
		}
	}
	op := &exploreOp{
		g:      g,
		schema: schema,
		kind:   kind,
		event:  event,
		sem:    sem,
		ext:    ext,
		k:      q.K,
		result: result,
		target: target,
		cost:   exploreCost(g),
	}
	if q.Tune > 0 {
		return &tuneOp{inner: op, minPairs: q.Tune}, nil
	}
	return op, nil
}

// exploreCost estimates candidate-evaluation work: the traversals anchor at
// n-1 reference points with at most n-1-i extensions each (≤ n(n-1)/2
// candidates). The incremental-view engine pays one point index build
// (O(|V|+|E|)) plus a cheap incremental extension per candidate (the /8
// reflects word-level bitset work against per-entity scans; a coarse,
// deliberately simple model).
func exploreCost(g *core.Graph) int64 {
	n := int64(g.Timeline().Len())
	cands := n * (n - 1) / 2
	if cands < 1 {
		cands = 1
	}
	scan := scanCost(g)
	return scan + cands*(scan/8+1)
}

func compileTop(env Env, q *Top) (physOp, error) {
	g, in := env.Graph, env.Query
	if q.N < 1 {
		return nil, errf(in, 0, "", "top: n must be >= 1, got %d", q.N)
	}
	schema, err := resolveSchema(g, in, q.Attrs, q.AttrsPos)
	if err != nil {
		return nil, err
	}
	event, err := resolveEvent(in, q.Event)
	if err != nil {
		return nil, err
	}
	steps := g.Timeline().Len() - 1
	if steps < 0 {
		steps = 0
	}
	return &topOp{
		g:      g,
		schema: schema,
		event:  event,
		n:      q.N,
		cost:   scanCost(g) + int64(steps),
	}, nil
}

func compileEvolve(env Env, q *Evolve) (physOp, int, error) {
	g, in := env.Graph, env.Query
	schema, err := resolveSchema(g, in, q.Attrs, q.AttrsPos)
	if err != nil {
		return nil, 0, err
	}
	kind, err := resolveKind(in, q.Kind)
	if err != nil {
		return nil, 0, err
	}
	old, err := ResolveInterval(g, in, q.From)
	if err != nil {
		return nil, 0, err
	}
	new, err := ResolveInterval(g, in, q.To)
	if err != nil {
		return nil, 0, err
	}
	filter, err := CompilePredicates(g, in, q.Where)
	if err != nil {
		return nil, 0, err
	}
	return &evolveOp{
		g:      g,
		schema: schema,
		kind:   kind,
		old:    old,
		new:    new,
		filter: filter,
		preds:  len(q.Where),
		cost:   scanCost(g),
	}, maxTimeOf(old, new), nil
}

func compileTimeline(env Env, q *Timeline) (physOp, error) {
	g, in := env.Graph, env.Query
	schema, err := resolveSchema(g, in, q.Attrs, q.AttrsPos)
	if err != nil {
		return nil, err
	}
	filter, err := CompilePredicates(g, in, q.Where)
	if err != nil {
		return nil, err
	}
	steps := g.Timeline().Len() - 1
	if steps < 0 {
		steps = 0
	}
	return &timelineOp{
		g:      g,
		schema: schema,
		filter: filter,
		preds:  len(q.Where),
		steps:  steps,
		cost:   scanCost(g) + int64(steps),
	}, nil
}

// intervalString renders an interval for explanation.
func intervalString(iv timeline.Interval) string { return iv.String() }
