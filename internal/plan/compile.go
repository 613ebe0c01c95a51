package plan

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/agg"
	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/evolution"
	"repro/internal/explore"
	"repro/internal/materialize"
)

// Env is the compile environment: the concrete graph a logical plan is
// resolved against plus the optional serving facilities that unlock
// physical operators.
type Env struct {
	// Graph is the base graph. Required.
	Graph *core.Graph
	// Catalog, when set, enables the catalog-backed operators for
	// union-ALL aggregates and ALL trends (T-distributive / D-distributive
	// reuse, §4.3). It is used only when its Graph() is Graph: a catalog
	// built over another graph is ignored, and so is nil — every aggregate
	// then compiles to direct recompute.
	Catalog *materialize.Catalog
	// Query is the originating query text, used only to position
	// resolution errors ("" renders plain messages for wire requests).
	Query string
	// Cache, when set, memoizes compiled plans and their answers on the
	// canonical query text. It must hold plans compiled against Graph and
	// Catalog alone: a serving State owns one cache per (graph, catalog)
	// pair.
	Cache *Cache
	// Feedback is ignored: plans are chosen at compile time alone.
	// bench/ is its last caller.
	Feedback *Feedback
	// History, when set, resolves AS OF / VALID DURING clauses into
	// reconstructed states, each with its own catalog and plan cache. Nil
	// still serves VALID DURING by windowing Graph inline, but rejects
	// AS OF — there is no transaction log to travel on.
	History HistoryResolver
}

// Feedback is an empty placeholder for the deleted planner feedback loop.
// bench/ is its last caller.
type Feedback struct{}

// NewFeedback returns an empty Feedback. bench/ is its last caller.
func NewFeedback() *Feedback { return &Feedback{} }

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

	// Elapsed is the root operator's wall time: what EXPLAIN ANALYZE
	// reports as actual_us.
	Elapsed time.Duration
}

// rows is the output cardinality EXPLAIN ANALYZE reports: aggregate nodes
// plus edges, or the rows, pairs, tuples or steps the statement returned.
func (r *Result) rows() int {
	switch {
	case r.Agg != nil:
		return len(r.Agg.Nodes) + len(r.Agg.Edges)
	case r.Measure != nil:
		return len(r.Measure.Nodes)
	case r.Evolution != nil:
		return len(r.Evolution.Nodes) + len(r.Evolution.Edges)
	case r.Top != nil:
		return len(r.Top)
	case r.Timeline != nil:
		return len(r.Timeline)
	case r.Events != nil:
		return len(r.Events.Rows)
	case r.Paths != nil:
		return len(r.Paths.Rows)
	case r.Trend != nil:
		return len(r.Trend.Rows)
	}
	return len(r.Pairs)
}

// bytes estimates a result's resident size for the plan cache's budget: an
// aggregate graph's own estimate (what the catalog charges it), else a
// fixed cost per output row, a series' worth per TREND row.
func (r *Result) bytes() int64 {
	if r.Agg != nil {
		return 256 + r.Agg.ApproxBytes()
	}
	n := int64(r.rows())
	if r.Trend != nil {
		n *= int64(r.Trend.Windows)/8 + 1
	}
	return 256 + 128*n
}

// Plan is an executable physical plan: the logical node it was compiled
// from, the graph it was resolved against and the selected operator tree.
// Compiled state (views, schemas, filters) is immutable, so one Plan may be
// executed concurrently; each Execute runs on fresh per-run engine state.
type Plan struct {
	logical Logical
	g       *core.Graph
	root    physOp
	key     string
	// memo is the serving state's cache this plan keeps its answer in; nil
	// for a plan compiled without a cache, and for the catalog union-ALL,
	// whose answer the catalog caches and reports the source of.
	memo   *Cache
	answer atomic.Pointer[Result]
}

// Logical returns the logical node the plan was compiled from.
func (p *Plan) Logical() Logical { return p.logical }

// Graph returns the graph the plan was resolved against: the historical or
// windowed graph of an AS OF / VALID DURING statement, else the
// environment's. Its timeline labels the plan's results.
func (p *Plan) Graph() *core.Graph { return p.g }

// Op returns the root operator's name, as Explain renders it.
func (p *Plan) Op() string { return p.root.name() }

// Answer returns the plan's answer, and whether it was memoized. A plan
// compiled on a serving state's cache keeps its first successful answer:
// the state's graph never changes, so every later call returns that Result
// without running the operator. Nothing may modify a returned Result. A run
// that fails or is cancelled keeps nothing.
func (p *Plan) Answer(ctx context.Context) (*Result, bool, error) {
	if res := p.answer.Load(); res != nil {
		MemoHits.Inc()
		return res, true, nil
	}
	res, err := p.Execute(ctx)
	if err == nil && p.memo != nil {
		MemoMisses.Inc()
		p.memo.keep(p, res)
	}
	return res, false, err
}

// Execute runs the plan's operator, whatever its memo holds: what EXPLAIN
// ANALYZE measures. The selection counters record the root operator on
// every run, and the root's wall time is stamped on the Result; ctx
// cancels cooperatively inside the engines.
func (p *Plan) Execute(ctx context.Context) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.root.countSelection()
	out := &Result{}
	start := time.Now()
	if err := p.root.run(ctx, out); err != nil {
		return nil, err
	}
	out.Elapsed = time.Since(start)
	return out, nil
}

// Compile resolves a logical node against env into an executable physical
// plan, selecting operators through the cost model and consulting the plan
// cache when env.Cache is set; a plan from the cache carries the answer
// it memoized. All user-facing resolution errors (unknown
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
	// A catalog answers over its own graph's timeline; paired with another
	// graph it would resolve intervals on one and aggregate the other.
	if env.Catalog != nil && env.Catalog.Graph() != env.Graph {
		env.Catalog = nil
	}
	var key string
	if env.Cache != nil {
		key = node.Key()
		if p := env.Cache.lookup(key); p != nil {
			CacheHits.Inc()
			return p, nil
		}
		CacheMisses.Inc()
	}
	var root physOp
	switch q := node.(type) {
	case *Aggregate:
		root, err = compileAggregate(env, q)
	case *Explore:
		root, err = compileExplore(env, q)
	case *Top:
		root, err = compileTop(env, q)
	case *Evolve:
		root, err = compileEvolve(env, q)
	case *Timeline:
		root, err = compileTimeline(env, q)
	case *Events:
		root, err = compileEvents(env, q)
	case *Paths:
		root, err = compilePaths(env, q)
	case *Trend:
		root, err = compileTrend(env, q)
	default:
		return nil, fmt.Errorf("plan: unhandled logical node %T", node)
	}
	if err != nil {
		return nil, err
	}
	p := &Plan{logical: node, g: env.Graph, root: root, key: key}
	if env.Cache != nil {
		if _, ok := root.(*catalogAggOp); !ok {
			p.memo = env.Cache
		}
		env.Cache.store(p)
	}
	return p, nil
}

// scanCost is the base-graph scan estimate every direct operator pays.
func scanCost(g *core.Graph) int64 {
	return int64(g.NumNodes() + g.NumEdges())
}

func compileAggregate(env Env, q *Aggregate) (physOp, error) {
	g, in := env.Graph, env.Query
	schema, err := resolveSchema(g, in, q.Attrs, q.AttrsPos)
	if err != nil {
		return nil, err
	}
	a, b, err := resolveOp(g, in, q.Op)
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
	if q.Measure != "" {
		if filter != nil {
			return nil, fmt.Errorf("tgql: WHERE and MEASURE cannot be combined")
		}
		attr, ok := g.AttrByName(q.MeasureAttr)
		if !ok {
			return nil, errf(in, q.MeasureAttrPos, q.MeasureAttr, "unknown measured attribute %q", q.MeasureAttr)
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
			return nil, errf(in, 0, "", "unknown measure %q (want SUM, AVG, MIN or MAX)", q.Measure)
		}
		return &measureAggOp{
			view:   newViewOp(g, q.Op.Op, a, b),
			schema: schema,
			attr:   attr,
			fn:     fn,
			fnName: strings.ToUpper(q.Measure),
			attrNm: q.MeasureAttr,
			cost:   scanCost(g),
		}, nil
	}
	if filter != nil {
		return &filteredAggOp{
			view:   newViewOp(g, q.Op.Op, a, b),
			schema: schema,
			kind:   kind,
			preds:  len(q.Where),
			filter: filter,
			cost:   scanCost(g),
		}, nil
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
		}, nil
	}
	return &viewAggOp{
		view:   newViewOp(g, q.Op.Op, a, b),
		schema: schema,
		kind:   kind,
		cost:   scanCost(g),
	}, nil
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

func compileEvolve(env Env, q *Evolve) (physOp, error) {
	g, in := env.Graph, env.Query
	schema, err := resolveSchema(g, in, q.Attrs, q.AttrsPos)
	if err != nil {
		return nil, err
	}
	kind, err := resolveKind(in, q.Kind)
	if err != nil {
		return nil, err
	}
	old, err := ResolveInterval(g, in, q.From)
	if err != nil {
		return nil, err
	}
	new, err := ResolveInterval(g, in, q.To)
	if err != nil {
		return nil, err
	}
	filter, err := CompilePredicates(g, in, q.Where)
	if err != nil {
		return nil, err
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
	}, nil
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
