package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"regexp"

	"repro/internal/agg"
	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/evolution"
	"repro/internal/explore"
	"repro/internal/materialize"
	"repro/internal/ops"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/tgql"
	"repro/internal/timeline"
)

// oracle computes reference answers in-process, on the same graph the
// daemons serve, through the engines' reference implementations (map
// kernel, exhaustive exploration, naive analytics) rather than the paths
// the planner picks.
type oracle struct {
	g   *core.Graph
	env plan.Env // for EXPLAIN only: compile, never execute
}

func newOracle(g *core.Graph) *oracle {
	return &oracle{g: g, env: plan.Env{Graph: g, Catalog: materialize.NewCatalog(g)}}
}

func (o *oracle) interval(r labelRange) (timeline.Interval, error) {
	tl := o.g.Timeline()
	from, ok := tl.TimeOf(r.From)
	if !ok {
		return timeline.Interval{}, fmt.Errorf("oracle: unknown time point %q", r.From)
	}
	to := from
	if r.To != "" {
		if to, ok = tl.TimeOf(r.To); !ok {
			return timeline.Interval{}, fmt.Errorf("oracle: unknown time point %q", r.To)
		}
	}
	return tl.Range(from, to), nil
}

func kindOf(kind string) agg.Kind {
	if kind == "all" {
		return agg.All
	}
	return agg.Distinct
}

// view applies the temporal operator.
func (o *oracle) view(op string, a, b labelRange) (*ops.View, error) {
	ia, err := o.interval(a)
	if err != nil {
		return nil, err
	}
	if op == "project" {
		return ops.Project(o.g, ia), nil
	}
	ib, err := o.interval(b)
	if err != nil {
		return nil, err
	}
	switch op {
	case "union":
		return ops.Union(o.g, ia, ib), nil
	case "intersection":
		return ops.Intersection(o.g, ia, ib), nil
	case "difference":
		return ops.Difference(o.g, ia, ib), nil
	}
	return nil, fmt.Errorf("oracle: unknown operator %q", op)
}

func (o *oracle) aggregate(op, kind string, attrs []string, a, b labelRange) ([]byte, error) {
	v, err := o.view(op, a, b)
	if err != nil {
		return nil, err
	}
	schema, err := agg.ByName(o.g, attrs...)
	if err != nil {
		return nil, err
	}
	return json.Marshal(agg.AggregateMap(v, schema, kindOf(kind)))
}

var eventOf = map[string]explore.Event{
	"stability": evolution.Stability, "growth": evolution.Growth, "shrinkage": evolution.Shrinkage,
}

// explorer builds the reference explorer for total-edge-weight searches.
func (o *oracle) explorer(attrs []string, kind string) (*explore.Explorer, error) {
	schema, err := agg.ByName(o.g, attrs...)
	if err != nil {
		return nil, err
	}
	return &explore.Explorer{Graph: o.g, Schema: schema, Kind: kindOf(kind), Result: explore.TotalEdges}, nil
}

// kRange is an event's InitK range for gender/DIST exploration.
func (o *oracle) kRange(event string) (int64, int64) {
	ex, err := o.explorer(attrG, "dist")
	if err != nil {
		panic(err) // the datasets the benchmark generates all have gender
	}
	return ex.InitK(eventOf[event])
}

func wirePairs(pairs []explore.Pair) []server.ExplorePair {
	out := make([]server.ExplorePair, len(pairs))
	for i, p := range pairs {
		out[i] = server.ExplorePair{Old: p.Old.String(), New: p.New.String(), Result: p.Result}
	}
	return out
}

func (o *oracle) explore(q *server.ExploreRequest) ([]byte, error) {
	ex, err := o.explorer(q.Attrs, q.Kind)
	if err != nil {
		return nil, err
	}
	sem, ext := exploreModes(q)
	return json.Marshal(wirePairs(ex.Naive(eventOf[q.Event], sem, ext, q.K)))
}

// exploreModes maps the wire spelling of semantics and extension side.
func exploreModes(q *server.ExploreRequest) (explore.Semantics, explore.Extend) {
	sem, ext := explore.UnionSemantics, explore.ExtendNew
	if q.Semantics == "intersection" {
		sem = explore.IntersectionSemantics
	}
	if q.Extend == "old" {
		ext = explore.ExtendOld
	}
	return sem, ext
}

// pathsSpec resolves a PATHS statement's node sets and window.
func (o *oracle) pathsSpec(q *stmtSpec) (analytics.PathsSpec, error) {
	spec := analytics.PathsSpec{Mode: analytics.ModeEarliest, Window: o.g.Timeline().All()}
	var err error
	if spec.Src, err = o.nodes(q.From); err != nil {
		return spec, err
	}
	if spec.Dst, err = o.nodes(q.To); err != nil {
		return spec, err
	}
	if q.A.From != "" {
		spec.Window, err = o.interval(q.A)
	}
	return spec, err
}

func (o *oracle) nodes(labels []string) ([]core.NodeID, error) {
	out := make([]core.NodeID, len(labels))
	for i, l := range labels {
		id, ok := o.g.NodeByLabel(l)
		if !ok {
			return nil, fmt.Errorf("oracle: unknown node %q", l)
		}
		out[i] = id
	}
	return out, nil
}

// statement answers a TGQL statement: the JSON graph for AGG, the rendered
// text for the table families.
func (o *oracle) statement(q *stmtSpec) ([]byte, error) {
	if q.Family == "agg" {
		return o.aggregate(q.Op, q.Kind, q.Attrs, q.A, q.B)
	}
	res := &tgql.Result{}
	var schema *agg.Schema
	if q.Family != "paths" {
		var err error
		if schema, err = agg.ByName(o.g, q.Attrs...); err != nil {
			return nil, err
		}
	}
	switch q.Family {
	case "evolve":
		a, err := o.interval(q.A)
		if err != nil {
			return nil, err
		}
		b, err := o.interval(q.B)
		if err != nil {
			return nil, err
		}
		res.Evolution = evolution.Aggregate(o.g, a, b, schema, kindOf(q.Kind), nil)
	case "top":
		// Reference engine: selector views and a fresh aggregation per
		// candidate instead of the incremental fast path.
		ex := &explore.Explorer{Graph: o.g, Schema: schema, Kind: agg.Distinct, Result: explore.TotalEdges, NoFastPath: true}
		res.Top, res.TopSchema = explore.TopEdgeTuples(ex, eventOf[q.Event], q.N), schema
		if res.Top == nil {
			res.Top = []explore.TupleScore{}
		}
	case "events":
		res.Events = analytics.NaiveEvents(o.g, analytics.EventsSpec{Schema: schema, Kind: kindOf(q.Kind), Width: q.Width, Min: q.Min})
	case "paths":
		spec, err := o.pathsSpec(q)
		if err != nil {
			return nil, err
		}
		res.Paths = analytics.NaivePaths(o.g, spec)
	case "trend":
		res.Trend = analytics.NaiveTrend(o.g, analytics.TrendSpec{Schema: schema, Kind: kindOf(q.Kind), Width: q.Width})
	default:
		return nil, fmt.Errorf("oracle: unknown statement family %q", q.Family)
	}
	return []byte(res.String()), nil
}

// volatilePlanAttrs are EXPLAIN attributes that describe cache state at the
// moment of asking, not the plan.
var volatilePlanAttrs = regexp.MustCompile(`(source-hint|est_cost)=[^,)]*`)

// expect returns the payload the template's answer must carry.
func (o *oracle) expect(t *template) ([]byte, error) {
	switch {
	case t.Path == "/v1/explain":
		p, err := tgql.PlanEnv(o.env, t.Query)
		if err != nil {
			return nil, err
		}
		return volatilePlanAttrs.ReplaceAll([]byte(p.Explain()), nil), nil
	case t.Stmt != nil:
		return o.statement(t.Stmt)
	case t.Agg != nil:
		q := t.Agg
		return o.aggregate(q.Op, q.Kind, q.Attrs,
			labelRange{q.Interval.From, q.Interval.To}, labelRange{q.Interval2.From, q.Interval2.To})
	case t.Explore != nil:
		return o.explore(t.Explore)
	}
	return nil, fmt.Errorf("oracle: template %s has no request description", t.Name)
}

// payload extracts from an HTTP answer the part the oracle predicts: the
// aggregate graph, the pair list, the statement text or the plan — never
// elapsed_ms or the derivation source, which describe the run, not the
// answer.
func payload(t *template, body []byte) ([]byte, error) {
	var resp struct {
		Graph json.RawMessage `json:"graph"`
		Pairs json.RawMessage `json:"pairs"`
		Text  *string         `json:"text"`
		Plan  *string         `json:"plan"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("undecodable answer: %w", err)
	}
	switch {
	case t.Path == "/v1/explain" && resp.Plan != nil:
		return volatilePlanAttrs.ReplaceAll([]byte(*resp.Plan), nil), nil
	case t.Path == "/v1/explore" && resp.Pairs != nil:
		return resp.Pairs, nil
	case resp.Graph != nil:
		return resp.Graph, nil
	case resp.Text != nil:
		return []byte(*resp.Text), nil
	}
	return nil, fmt.Errorf("answer carries no payload: %.120s", body)
}

var (
	elapsedKey = []byte(`"elapsed_ms":`)
	sourceKey  = []byte(`"source":"`)
)

// payloadHash fingerprints an answer without decoding it (the generator
// shares two cores with the servers): it hashes the body minus the
// elapsed_ms number and the source string. EXPLAIN answers embed the
// volatile attributes inside a string, so they go through payload instead.
func payloadHash(t *template, body []byte) uint64 {
	h := fnv.New64a()
	if t.Path == "/v1/explain" {
		p, err := payload(t, body)
		if err != nil {
			return 0
		}
		h.Write(p)
		return h.Sum64()
	}
	if i := bytes.Index(body, sourceKey); i >= 0 {
		if j := bytes.IndexByte(body[i+len(sourceKey):], '"'); j >= 0 {
			h.Write(body[:i])
			body = body[i+len(sourceKey)+j+1:]
		}
	}
	if i := bytes.Index(body, elapsedKey); i >= 0 {
		j := i + len(elapsedKey)
		for j < len(body) && body[j] != ',' && body[j] != '}' {
			j++
		}
		h.Write(body[:i])
		body = body[j:]
	}
	h.Write(body)
	return h.Sum64()
}
