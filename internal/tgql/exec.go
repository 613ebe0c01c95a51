package tgql

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/agg"
	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/evolution"
	"repro/internal/explore"
	"repro/internal/metrics"
	"repro/internal/plan"
)

// Result holds the output of one executed query; exactly one of the
// payload fields is set.
type Result struct {
	Agg       *agg.Graph
	Measure   *agg.MeasureGraph
	Evolution *evolution.Agg
	Pairs     []explore.Pair
	K         int64 // the threshold an EXPLORE ran with (chosen or tuned)
	Stats     *core.Stats
	Top       []explore.TupleScore
	TopSchema *agg.Schema
	Timeline  []evolution.TimelineStep
	// Coarse is the zoomed-out graph of a COARSEN statement; the REPL
	// reports its statistics.
	Coarse *core.Graph
	// Events/Paths/Trend carry the evolution-analytics statement results.
	Events *analytics.EventsResult
	Paths  *analytics.PathsResult
	Trend  *analytics.TrendResult
	// Explain is the physical-plan rendering of an EXPLAIN statement (with
	// the root's measurements for EXPLAIN ANALYZE).
	Explain string

	// g is the graph the query ran against, for rendering context.
	g *core.Graph
}

// String renders the result for terminals and the REPL.
func (r *Result) String() string {
	switch {
	case r.Explain != "":
		return r.Explain
	case r.Agg != nil:
		return r.Agg.String()
	case r.Measure != nil:
		return r.Measure.String()
	case r.Evolution != nil:
		return r.Evolution.String()
	case r.Stats != nil:
		var b strings.Builder
		tb := &Table{ID: "stats", Title: "nodes and edges per time point",
			Header: []string{"#TP", "#Nodes", "#Edges"}}
		for i, label := range r.Stats.Labels {
			tb.Add(label, fmt.Sprintf("%d", r.Stats.Nodes[i]), fmt.Sprintf("%d", r.Stats.Edges[i]))
		}
		tb.Print(&b)
		return b.String()
	case r.Top != nil:
		var b strings.Builder
		fmt.Fprintf(&b, "top %d attribute groups by peak event count\n", len(r.Top))
		for i, ts := range r.Top {
			fmt.Fprintf(&b, "  %d. %s peak %d at %s → %s\n",
				i+1, ts.Label(r.TopSchema), ts.Peak, ts.Old, ts.New)
		}
		return b.String()
	case r.Timeline != nil:
		var b strings.Builder
		tb := &Table{ID: "timeline", Title: "evolution per consecutive pair",
			Header: []string{"step", "nodes St", "nodes Gr", "nodes Shr", "edges St", "edges Gr", "edges Shr"}}
		tl := r.g.Timeline()
		for _, st := range r.Timeline {
			tb.Add(tl.Label(st.Old)+"→"+tl.Label(st.New),
				fmt.Sprintf("%d", st.NodeSt), fmt.Sprintf("%d", st.NodeGr), fmt.Sprintf("%d", st.NodeShr),
				fmt.Sprintf("%d", st.EdgeSt), fmt.Sprintf("%d", st.EdgeGr), fmt.Sprintf("%d", st.EdgeShr))
		}
		tb.Print(&b)
		return b.String()
	case r.Coarse != nil:
		var b strings.Builder
		stats := core.ComputeStats(r.Coarse)
		tb := &Table{ID: "coarsened", Title: "zoomed-out graph",
			Header: []string{"#TP", "#Nodes", "#Edges"}}
		for i, label := range stats.Labels {
			tb.Add(label, fmt.Sprintf("%d", stats.Nodes[i]), fmt.Sprintf("%d", stats.Edges[i]))
		}
		tb.Print(&b)
		return b.String()
	case r.Events != nil:
		var b strings.Builder
		tb := &Table{ID: "events",
			Title:  fmt.Sprintf("evolution events, window width %d (%d steps)", r.Events.Width, r.Events.Steps),
			Header: []string{"step", "window", "group", "St", "Gr", "Shr", "class"}}
		for _, row := range r.Events.Rows {
			tb.Add(fmt.Sprintf("%d", row.Step), row.Old+"→"+row.New, row.Group,
				fmt.Sprintf("%d", row.St), fmt.Sprintf("%d", row.Gr), fmt.Sprintf("%d", row.Shr), row.Class)
		}
		tb.Print(&b)
		return b.String()
	case r.Paths != nil:
		var b strings.Builder
		tb := &Table{ID: "paths",
			Title: fmt.Sprintf("%s time-respecting paths during %s (%d reached)",
				r.Paths.Mode, r.Paths.Window, r.Paths.Reached),
			Header: []string{"node", "depart", "arrive", "duration"}}
		for _, row := range r.Paths.Rows {
			tb.Add(row.Node, row.Depart, row.Arrive, fmt.Sprintf("%d", row.Duration))
		}
		tb.Print(&b)
		return b.String()
	case r.Trend != nil:
		var b strings.Builder
		tb := &Table{ID: "trend",
			Title:  fmt.Sprintf("sliding-window trend, width %d (%d windows)", r.Trend.Width, r.Trend.Windows),
			Header: []string{"group", "series", "slope", "direction"}}
		for _, row := range r.Trend.Rows {
			parts := make([]string, len(row.Series))
			for i, v := range row.Series {
				parts[i] = fmt.Sprintf("%d", v)
			}
			tb.Add(row.Group, strings.Join(parts, " "), row.Slope, row.Direction)
		}
		tb.Print(&b)
		return b.String()
	default:
		var b strings.Builder
		fmt.Fprintf(&b, "k=%d: %d pair(s)\n", r.K, len(r.Pairs))
		for _, p := range r.Pairs {
			fmt.Fprintf(&b, "  %s\n", p)
		}
		return b.String()
	}
}

// Exec parses and executes one query against g.
func Exec(g *core.Graph, query string) (*Result, error) {
	return ExecCtx(context.Background(), g, query)
}

// ExecCtx is Exec with cooperative cancellation: the expensive statement
// engines (EXPLORE traversals, TOP rankings, aggregations) poll ctx between
// candidate evaluations and the run is abandoned once the deadline expires
// or the caller disconnects, returning ctx.Err() instead of a result. A nil
// error guarantees the same result Exec reports.
//
// Queries compile to the plan the daemon would pick: an aggregation runs on
// GOMAXPROCS workers exactly when its view is past the parallel crossover.
// Serving layers that want catalog-backed reuse or plan caching pass those
// facilities through ExecEnv.
func ExecCtx(ctx context.Context, g *core.Graph, query string) (*Result, error) {
	return ExecEnv(ctx, plan.Env{Graph: g}, query)
}

// ExecEnv parses one statement and executes it through the query planner:
// parse → logical plan (Lower) → physical plan (plan.Compile's cost model
// selects the operators) → execute → Result. The environment supplies the
// graph and the optional serving facilities — a materialization catalog
// (unlocks the catalog-backed union-ALL operator) and a plan cache.
// graphtempod runs the same four steps itself, around its own
// instrumentation, from the same Statement, so an EXPLAIN ANALYZE renders
// the same tree here, in the REPL and on /v1/tgql.
func ExecEnv(ctx context.Context, env plan.Env, query string) (*Result, error) {
	st, err := Lower(query)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var p *plan.Plan
	var pr *plan.Result
	if st.Node != nil {
		env.Query = query
		if p, err = plan.Compile(env, st.Node); err != nil {
			return nil, err
		}
		if st.Analyze { // EXPLAIN ANALYZE measures the operator itself
			pr, err = p.Execute(ctx)
		} else if st.Runs() {
			pr, _, err = p.Answer(ctx)
		}
		if err != nil {
			return nil, err
		}
	}
	return st.Result(env.Graph, p, pr)
}

// Parses counts statements parsed since process start. A serving layer
// parses each request's statement exactly once; its tests hold it to that.
var Parses metrics.Counter

// Statement is one statement parsed into the planner's logical IR.
type Statement struct {
	// Node is the statement's logical plan. It is nil for STATS and COARSEN,
	// which are REPL conveniences over core rather than query-plan
	// statements: Result computes them directly.
	Node plan.Logical
	// Explain reports an EXPLAIN prefix: Node is to be compiled and its
	// physical plan rendered, not executed.
	Explain bool
	// Analyze reports EXPLAIN ANALYZE: Node is executed too, and the
	// rendering carries what the run measured (plan.ExplainAnalyze).
	Analyze bool

	// NoPlan is why Node is nil: the error a compile-only caller (EXPLAIN,
	// /v1/explain) reports for the statement.
	NoPlan error

	stats   bool // STATS
	coarsen int  // COARSEN's width; 0 for every other statement
}

// Runs reports whether the statement's plan executes: every statement
// with a plan but a plain EXPLAIN.
func (st Statement) Runs() bool { return st.Node != nil && (!st.Explain || st.Analyze) }

// Lower parses query — once — into a Statement. EXPLAIN of a statement
// that has no logical plan is an error.
func Lower(query string) (Statement, error) {
	Parses.Inc()
	return parse(query)
}

// Result renders the statement's outcome: the compiled plan's rendering for
// EXPLAIN (with the run's measurements for EXPLAIN ANALYZE), the executed
// plan's payload otherwise (p and pr are what plan.Compile and Plan.Execute
// returned for Node), and — for the plan-less STATS and COARSEN — the
// statistics computed here, directly over g, the serving graph. A planned
// statement renders against the graph its plan ran on, which AS OF and
// VALID DURING swap for a historical or windowed one.
func (st Statement) Result(g *core.Graph, p *plan.Plan, pr *plan.Result) (*Result, error) {
	if p != nil {
		g = p.Graph()
	}
	switch {
	case st.stats:
		s := core.ComputeStats(g)
		return &Result{Stats: &s, g: g}, nil
	case st.coarsen > 0:
		spec, err := core.UniformGroups(g.Timeline(), st.coarsen)
		if err != nil {
			return nil, err
		}
		coarse, err := core.Coarsen(g, spec)
		if err != nil {
			return nil, err
		}
		return &Result{Coarse: coarse, g: g}, nil
	}
	switch {
	case st.Analyze:
		return &Result{Explain: p.ExplainAnalyze(pr), g: g}, nil
	case st.Explain:
		return &Result{Explain: p.Explain(), g: g}, nil
	}
	return &Result{
		Agg:       pr.Agg,
		Measure:   pr.Measure,
		Evolution: pr.Evolution,
		Pairs:     pr.Pairs,
		K:         pr.K,
		Top:       pr.Top,
		TopSchema: pr.TopSchema,
		Timeline:  pr.Timeline,
		Events:    pr.Events,
		Paths:     pr.Paths,
		Trend:     pr.Trend,
		g:         g,
	}, nil
}

// PlanEnv parses one statement and compiles it into a physical plan
// without executing it. A leading EXPLAIN keyword is accepted and
// ignored (the returned plan is what EXPLAIN would render).
func PlanEnv(env plan.Env, query string) (*plan.Plan, error) {
	st, err := Lower(query)
	if err != nil {
		return nil, err
	}
	if st.NoPlan != nil {
		return nil, st.NoPlan
	}
	env.Query = query
	return plan.Compile(env, st.Node)
}

// PlanQuery compiles one statement against g with the same environment
// ExecCtx executes under.
func PlanQuery(g *core.Graph, query string) (*plan.Plan, error) {
	return PlanEnv(plan.Env{Graph: g}, query)
}
