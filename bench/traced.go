package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/agg"
	"repro/internal/analytics"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/evolution"
	"repro/internal/explore"
	"repro/internal/materialize"
	"repro/internal/ops"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/tgql"
)

// The traced run executes a prefix of the end-to-end schedule in-process
// and records spans from the benchmark's own code only: one root span
// around the system's handler, and — because the handler is opaque until
// spans move inside the program — a second root, "replica", under which the
// benchmark repeats the same request through each layer's public functions
// (plan, execute, encode, then the kernels the plan would run).

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// target is a system under trace: its root handler and a replica
// environment over the same graph.
type target struct {
	rootSpan string // name of the handler's root span
	handler  http.Handler
	g        *core.Graph
	env      plan.Env

	// Cluster only: the shard handlers are wrapped so that partial
	// aggregates show up as child spans of the router's root span.
	rec      *recorder
	mu       sync.Mutex
	parent   int // current op's root span, for the shard wrappers
	op       int
	partials [][]byte // partial answers captured during the current op
	closers  []func()
}

func (t *target) close() {
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
}

func replicaEnv(g *core.Graph) plan.Env {
	return plan.Env{Graph: g, Catalog: materialize.NewCatalog(g), Cache: plan.NewCache(0), Feedback: plan.NewFeedback()}
}

// newStaticTarget is dash_hot's and adhoc_scan's system: one static server.
func newStaticTarget(g *core.Graph) *target {
	srv, err := server.New(server.Config{Graph: g, Logger: quiet})
	if err != nil {
		panic(err) // a graph is set, the config is valid
	}
	return &target{rootSpan: "server.handler", handler: srv.Handler(), g: g, env: replicaEnv(g)}
}

// newClusterTarget is router_mix's system in one process: two shard
// servers on loopback listeners and the router in front of them.
func newClusterTarget(g *core.Graph, bodies [][]byte, split int) (*target, error) {
	t := &target{rootSpan: "cluster.router", g: g, env: replicaEnv(g)}
	var spec []string
	for i, part := range [][][]byte{bodies[:split], bodies[split:]} {
		name := string(rune('a' + i))
		srv, err := server.New(server.Config{Series: stream.New(g.Attrs()...), Logger: quiet, ShardName: name, Partial: true})
		if err != nil {
			t.close()
			return nil, err
		}
		ts := httptest.NewServer(t.wrapShard(srv.Handler()))
		t.closers = append(t.closers, ts.Close)
		if err := postAll(ts.URL+"/v1/ingest", part); err != nil {
			t.close()
			return nil, err
		}
		spec = append(spec, name+"="+ts.URL)
	}
	m, err := cluster.ParseShardMap(strings.Join(spec, ";"))
	if err != nil {
		t.close()
		return nil, err
	}
	rt, err := cluster.New(cluster.Config{Map: m, Logger: quiet})
	if err != nil {
		t.close()
		return nil, err
	}
	t.closers = append(t.closers, rt.Close)
	t.handler = rt.Handler()
	// The tail shard reaches the mirror through the background follower.
	deadline := time.Now().Add(30 * time.Second)
	for {
		w := httptest.NewRecorder()
		t.handler.ServeHTTP(w, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/readyz?gen=%d", len(bodies)), nil))
		if w.Code == http.StatusOK {
			return t, nil
		}
		if time.Now().After(deadline) {
			t.close()
			return nil, fmt.Errorf("in-process router mirror not caught up: %s", w.Body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// wrapShard records a cluster.partial span around every partial aggregate
// a shard serves and keeps the answer for the merge replica.
func (t *target) wrapShard(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/partial/aggregate" {
			h.ServeHTTP(w, r)
			return
		}
		t.mu.Lock()
		rec, parent, op := t.rec, t.parent, t.op
		t.mu.Unlock()
		rr := httptest.NewRecorder()
		id := rec.begin("cluster.partial", parent, op)
		h.ServeHTTP(rr, r)
		rec.end(id)
		t.mu.Lock()
		t.partials = append(t.partials, rr.Body.Bytes())
		t.mu.Unlock()
		for k, v := range rr.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rr.Code)
		w.Write(rr.Body.Bytes())
	})
}

// serve runs one template through the target's handler.
func (t *target) serve(tp *template) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, tp.Path, bytes.NewReader(tp.Body))
	req.Header.Set("Content-Type", "application/json")
	t.handler.ServeHTTP(w, req)
	return w
}

// kernelSpans are the span names that count as kernel work: temporal
// operators, aggregation, exploration, analytics and evolution.
func isKernelSpan(name string) bool {
	for _, p := range []string{"ops.", "agg.", "explore.", "analytics.", "evolution."} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// tracer is the per-run span bookkeeping shared by the replicas.
type tracer struct {
	rec    *recorder
	counts map[string][]float64 // non-time observations by metric name
}

// in records fn as a child span of parent.
func (tr *tracer) in(name string, parent, op int, fn func()) {
	id := tr.rec.begin(name, parent, op)
	fn()
	tr.rec.end(id)
}

func (tr *tracer) count(name string, v float64) { tr.counts[name] = append(tr.counts[name], v) }

// replica repeats a request through the layers' public functions.
func (tr *tracer) replica(t *target, tp *template, op int) error {
	root := tr.rec.begin("replica", -1, op)
	defer tr.rec.end(root)
	ctx := context.Background()
	o := &oracle{g: t.g}
	var err error
	switch {
	case tp.Agg != nil:
		q := tp.Agg
		node := &plan.Aggregate{
			Op:    plan.TemporalOp{Op: q.Op, A: plan.IntervalRef{From: q.Interval.From, To: q.Interval.To}, B: plan.IntervalRef{From: q.Interval2.From, To: q.Interval2.To}},
			Attrs: q.Attrs, Kind: q.Kind,
		}
		var p *plan.Plan
		tr.in("plan.compile", root, op, func() { p, err = plan.Compile(t.env, node) })
		if err != nil {
			return err
		}
		var res *plan.Result
		tr.in("plan.execute", root, op, func() { res, err = p.Execute(ctx) })
		if err != nil {
			return err
		}
		tr.in("server.encode", root, op, func() {
			raw, _ := json.Marshal(res.Agg)
			json.Marshal(server.AggregateResponse{Source: res.AggSource.String(), Graph: raw})
		})
		return tr.aggKernels(t, o, root, op, q.Op, q.Kind, q.Attrs,
			labelRange{q.Interval.From, q.Interval.To}, labelRange{q.Interval2.From, q.Interval2.To})
	case tp.Explore != nil:
		q := tp.Explore
		node := &plan.Explore{Event: q.Event, Attrs: q.Attrs, Kind: q.Kind, Semantics: q.Semantics, Extend: q.Extend, K: q.K}
		var p *plan.Plan
		tr.in("plan.compile", root, op, func() { p, err = plan.Compile(t.env, node) })
		if err != nil {
			return err
		}
		var res *plan.Result
		tr.in("plan.execute", root, op, func() { res, err = p.Execute(ctx) })
		if err != nil {
			return err
		}
		tr.in("server.encode", root, op, func() {
			json.Marshal(server.ExploreResponse{K: res.K, Pairs: wirePairs(res.Pairs), Evaluations: res.Evaluations})
		})
		ex, err := o.explorer(q.Attrs, q.Kind)
		if err != nil {
			return err
		}
		sem, ext := exploreModes(q)
		tr.in("explore.explore", root, op, func() { _, err = ex.ExploreCtx(ctx, eventOf[q.Event], sem, ext, q.K) })
		return err
	}
	// A TGQL statement or its EXPLAIN.
	var p *plan.Plan
	tr.in("tgql.plan", root, op, func() { p, err = tgql.PlanEnv(t.env, tp.Query) })
	if err != nil {
		return err
	}
	if tp.Path == "/v1/explain" {
		tr.in("server.encode", root, op, func() { json.Marshal(server.ExplainResponse{Plan: p.Explain()}) })
		return nil
	}
	var res *plan.Result
	tr.in("plan.execute", root, op, func() { res, err = p.Execute(ctx) })
	if err != nil {
		return err
	}
	tr.in("server.encode", root, op, func() {
		out := &tgql.Result{Agg: res.Agg, Evolution: res.Evolution, Top: res.Top, TopSchema: res.TopSchema,
			Events: res.Events, Paths: res.Paths, Trend: res.Trend}
		resp := server.TGQLResponse{Text: out.String()}
		if res.Agg != nil {
			resp.Graph, _ = json.Marshal(res.Agg)
		}
		json.Marshal(resp)
	})
	return tr.stmtKernels(t, o, root, op, tp.Stmt)
}

// aggKernels runs what an aggregate's plan runs: the catalog for union-ALL,
// the temporal operator and the aggregation kernel otherwise.
func (tr *tracer) aggKernels(t *target, o *oracle, root, op int, opName, kind string, attrs []string, a, b labelRange) error {
	schema, err := agg.ByName(t.g, attrs...)
	if err != nil {
		return err
	}
	if opName == "union" && kind == "all" {
		ia, err := o.interval(a)
		if err != nil {
			return err
		}
		ib, err := o.interval(b)
		if err != nil {
			return err
		}
		tr.in("materialize.union_all", root, op, func() { _, _, err = t.env.Catalog.UnionAll(ia.Union(ib), schema.Attrs()...) })
		return err
	}
	var v *ops.View
	tr.in("ops.view", root, op, func() { v, err = o.view(opName, a, b) })
	if err != nil {
		return err
	}
	tr.count("ops.view_entities", float64(v.NumNodes()+v.NumEdges()))
	tr.in("agg.aggregate", root, op, func() {
		ag, aerr := agg.AggregateParallelCtx(context.Background(), v, schema, kindOf(kind), 0)
		if err = aerr; err == nil {
			tr.count("agg.groups", float64(len(ag.Nodes)+len(ag.Edges)))
		}
	})
	return err
}

// stmtKernels runs the engine call a statement's plan selects.
func (tr *tracer) stmtKernels(t *target, o *oracle, root, op int, q *stmtSpec) error {
	if q.Family == "agg" {
		return tr.aggKernels(t, o, root, op, q.Op, q.Kind, q.Attrs, q.A, q.B)
	}
	g := t.g
	var schema *agg.Schema
	var err error
	if q.Family != "paths" {
		if schema, err = agg.ByName(g, q.Attrs...); err != nil {
			return err
		}
	}
	switch q.Family {
	case "trend":
		spec := analytics.TrendSpec{Schema: schema, Kind: kindOf(q.Kind), Width: q.Width}
		tr.in("analytics.trend", root, op, func() { _, err = analytics.TrendCatalog(t.env.Catalog, g, spec) })
	case "events":
		spec := analytics.EventsSpec{Schema: schema, Kind: kindOf(q.Kind), Width: q.Width, Min: q.Min}
		tr.in("analytics.events", root, op, func() { analytics.EventsSweep(g, spec) })
	case "paths":
		spec, err := o.pathsSpec(q)
		if err != nil {
			return err
		}
		// The plan builds the engine's bucket index once and caches it;
		// the span covers what every execution pays.
		eng := analytics.NewPathsEngine(g, spec)
		tr.in("analytics.paths", root, op, func() { eng.Run() })
	case "evolve":
		a, err := o.interval(q.A)
		if err != nil {
			return err
		}
		b, err := o.interval(q.B)
		if err != nil {
			return err
		}
		tr.in("evolution.aggregate", root, op, func() { evolution.Aggregate(g, a, b, schema, kindOf(q.Kind), nil) })
	case "top":
		ex := &explore.Explorer{Graph: g, Schema: schema, Kind: agg.Distinct, Result: explore.TotalEdges}
		tr.in("explore.top", root, op, func() { _, err = explore.TopEdgeTuplesCtx(context.Background(), ex, eventOf[q.Event], q.N) })
	}
	return err
}

// tracedFraction is the share of the end-to-end schedule the traced run
// executes.
const tracedFraction = 0.10

// tracedReads runs the traced in-process pass of a read-only workload and
// derives the T-sourced layer metrics. lr, when the end-to-end run
// happened, supplies the spawned-client latencies for server.wire_us.
func (w *workloadRun) tracedReads(t *target, s *schedule, lr *loadResult) error {
	defer t.close()
	rec := newRecorder()
	tr := &tracer{rec: rec, counts: map[string][]float64{}}
	t.rec = rec
	ops := s.prefix(tracedFraction)
	if _, ok := w.cfg.opsOverride[w.res.Workload]; ok {
		ops = s.ops // tiny smoke schedules are traced whole
	}

	// Warm the same caches the spawned daemon had warm.
	for i := range s.templates {
		if s.templates[i].Checked {
			t.serve(&s.templates[i])
		}
	}

	var traced, untraced []float64
	handlerUs := map[int32][]float64{}
	timeUntraced := func(tp *template) {
		start := time.Now()
		t.serve(tp)
		untraced = append(untraced, float64(time.Since(start))/1e3)
	}
	for i, ti := range ops {
		tp := &s.templates[ti]
		// Unchecked templates are one-off scans whose first execution is the
		// one that counts (the plan cache misses); asking twice would time a
		// hit. Checked ones alternate which of the two asks goes first.
		repeat := tp.Checked
		if repeat && i%2 == 0 {
			timeUntraced(tp)
		}
		t.mu.Lock()
		t.partials = t.partials[:0]
		root := rec.begin(t.rootSpan, -1, i)
		t.parent, t.op = root, i
		t.mu.Unlock()
		mw := t.serve(tp)
		d := rec.end(root)
		if mw.Code != http.StatusOK {
			return fmt.Errorf("traced %s: status %d: %.200s", tp.Name, mw.Code, mw.Body.Bytes())
		}
		us := float64(d) / 1e3
		handlerUs[ti] = append(handlerUs[ti], us)
		if repeat {
			traced = append(traced, us)
		}
		tr.count("server.resp_bytes", float64(mw.Body.Len()))
		if repeat && i%2 == 1 {
			timeUntraced(tp)
		}
		if len(t.partials) > 0 {
			if err := tr.mergeReplica(t, i); err != nil {
				return err
			}
		}
		if err := tr.replica(t, tp, i); err != nil {
			return fmt.Errorf("replica of %s: %w", tp.Name, err)
		}
	}

	file := filepath.Join(w.dir, "trace.jsonl")
	if err := writeSpans(file, rec.spans); err != nil {
		return err
	}
	w.res.TraceFile = file
	w.spanMetrics(rec.spans, tr.counts, t.rootSpan)
	w.res.Layer["trace.overhead_ratio"] = ratio(median(traced), median(untraced))
	if lr != nil {
		w.res.Layer["server.wire_us"] = wireUs(s, lr.samples, handlerUs)
	}
	return nil
}

// mergeReplica decodes the partial answers the shards gave during the
// current op and merges them the way the router's gather step does.
func (tr *tracer) mergeReplica(t *target, op int) error {
	root := tr.rec.begin("replica.merge", -1, op)
	defer tr.rec.end(root)
	var parts []*plan.PartialResult
	var nbytes int
	for _, body := range t.partials {
		var resp server.PartialAggregateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("decode partial: %w", err)
		}
		parts = append(parts, resp.Partial)
		nbytes += len(body)
	}
	tr.count("cluster.partial_bytes", float64(nbytes))
	var err error
	tr.in("cluster.merge", root, op, func() { _, err = plan.MergePartials(parts) })
	return err
}

// spanMetrics turns the recorded spans into layer metrics: the median
// duration per span name in us, derived per-op quantities, and medians of
// the counted observations.
func (w *workloadRun) spanMetrics(spans []span, counts map[string][]float64, rootSpan string) {
	L := w.res.Layer
	byName := map[string][]float64{}
	type opAcc struct{ handler, pipeline, kernel, partialMax float64 }
	perOp := map[int]*opAcc{}
	acc := func(op int) *opAcc {
		if perOp[op] == nil {
			perOp[op] = &opAcc{}
		}
		return perOp[op]
	}
	self := selfTimes(spans)
	var hops []float64
	for _, s := range spans {
		us := float64(s.dur()) / 1e3
		a := acc(s.Op)
		switch {
		case s.Name == rootSpan:
			a.handler = us
			if rootSpan == "cluster.router" {
				hops = append(hops, float64(self[s.ID])/1e3)
			}
		case s.Name == "cluster.partial":
			a.partialMax = max(a.partialMax, us) // the slower shard sets the op's time
			continue
		case s.Name == "plan.compile", s.Name == "tgql.plan", s.Name == "plan.execute", s.Name == "server.encode",
			s.Name == "storage.append", s.Name == "stream.graph", s.Name == "materialize.advance":
			// What the handler does between decoding the request and writing
			// the answer. (stream.append is inside storage.append.)
			a.pipeline += us
		case isKernelSpan(s.Name):
			a.kernel += us
		}
		byName[s.Name] = append(byName[s.Name], us)
	}
	for name, metric := range map[string]string{
		rootSpan: "server.handler_us", "server.encode": "server.encode_us", "tgql.plan": "tgql.plan_us",
		"plan.compile": "plan.compile_us", "plan.execute": "plan.execute_us", "ops.view": "ops.view_us",
		"agg.aggregate": "agg.aggregate_us", "materialize.union_all": "materialize.union_all_us",
		"explore.explore": "explore.explore_us", "analytics.events": "analytics.events_us",
		"analytics.paths": "analytics.paths_us", "analytics.trend": "analytics.trend_us",
		"evolution.aggregate": "evolution.aggregate_us", "cluster.merge": "cluster.merge_us",
		"storage.append": "storage.append_us", "stream.append": "stream.append_us", "stream.graph": "stream.graph_us",
		"materialize.advance": "materialize.advance_us", "storage.replay_to": "storage.replay_to_us",
	} {
		if v := byName[name]; len(v) > 0 {
			L[metric] = median(v)
		}
	}
	var overhead, partials []float64
	var handlerSum, kernelSum float64
	for _, a := range perOp {
		overhead = append(overhead, a.handler-a.pipeline)
		handlerSum += a.handler
		kernelSum += a.kernel
		if a.partialMax > 0 {
			partials = append(partials, a.partialMax)
		}
	}
	L["server.overhead_us"] = median(overhead)
	L["trace.kernel_share"] = ratio(kernelSum, handlerSum)
	if len(partials) > 0 {
		L["cluster.partial_us"] = median(partials)
	}
	if len(hops) > 0 {
		L["cluster.hop_us"] = median(hops)
	}
	for name, v := range counts {
		L[name] = median(v)
	}
}

// wireUs is the cost of leaving the process: per template, the spawned
// client's median latency minus the in-process handler's; reported is the
// median of these differences over the traced ops (each op counts with its
// template's difference), which a few heavy templates cannot drag around.
func wireUs(s *schedule, samples []sample, handlerUs map[int32][]float64) float64 {
	clientUs := map[int32][]float64{}
	for _, sm := range samples {
		clientUs[sm.tmpl] = append(clientUs[sm.tmpl], float64(sm.ns)/1e3)
	}
	var diffs []float64
	for ti, h := range handlerUs {
		if c := clientUs[ti]; len(c) > 0 {
			d := median(c) - median(h)
			for range h {
				diffs = append(diffs, d)
			}
		}
	}
	return median(diffs)
}
