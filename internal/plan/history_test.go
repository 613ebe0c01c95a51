package plan_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/materialize"
	"repro/internal/plan"
	"repro/internal/stream"
	"repro/internal/timeline"
)

// seriesResolver is the test HistoryResolver: it reconstructs states with
// stream.Series.ReplayTo, the same oracle the storage engine is checked
// against, with no caching and no catalogs.
type seriesResolver struct {
	s *stream.Series
	// stateCalls counts reconstructions, so tests can see whether the plan
	// cache short-circuited a compile before history resolution (it must
	// not — resolution happens first).
	stateCalls int
}

func (r *seriesResolver) StateAt(txn int) (*plan.State, error) {
	r.stateCalls++
	if txn == 0 {
		txn = r.s.Txn()
	}
	g, err := r.s.ReplayTo(txn)
	if err != nil {
		return nil, err
	}
	return &plan.State{Graph: g}, nil
}

func (r *seriesResolver) WindowAt(txn, from, to int) (*plan.State, error) {
	st, err := r.StateAt(txn)
	if err != nil {
		return nil, err
	}
	wg, err := core.Window(st.Graph, from, to)
	if err != nil {
		return nil, err
	}
	return &plan.State{Graph: wg}, nil
}

// paperSeries replays the Fig. 1 running example point by point.
func paperSeries(t *testing.T) *stream.Series {
	t.Helper()
	g := core.PaperExample()
	s := stream.New(g.Attrs()...)
	tl := g.Timeline()
	for ti := 0; ti < tl.Len(); ti++ {
		label, snap := pointBatch(g, ti)
		if err := s.Append(label, snap); err != nil {
			t.Fatalf("append %s: %v", label, err)
		}
	}
	return s
}

// pointBatch extracts one time point of g as an ingest batch.
func pointBatch(g *core.Graph, ti int) (string, stream.Snapshot) {
	tl := g.Timeline()
	var snap stream.Snapshot
	for n := 0; n < g.NumNodes(); n++ {
		id := core.NodeID(n)
		if !g.NodeTau(id).Contains(ti) {
			continue
		}
		rec := stream.NodeRecord{Label: g.NodeLabel(id)}
		for a, spec := range g.Attrs() {
			v := g.ValueString(core.AttrID(a), id, timeline.Time(ti))
			if v == "" {
				continue
			}
			if spec.Kind == core.Static {
				if rec.Static == nil {
					rec.Static = map[string]string{}
				}
				rec.Static[spec.Name] = v
			} else {
				if rec.Varying == nil {
					rec.Varying = map[string]string{}
				}
				rec.Varying[spec.Name] = v
			}
		}
		snap.Nodes = append(snap.Nodes, rec)
	}
	for e := 0; e < g.NumEdges(); e++ {
		id := core.EdgeID(e)
		if !g.EdgeTau(id).Contains(ti) {
			continue
		}
		ep := g.Edge(id)
		snap.Edges = append(snap.Edges, stream.EdgeRecord{U: g.NodeLabel(ep.U), V: g.NodeLabel(ep.V)})
	}
	return tl.Label(timeline.Time(ti)), snap
}

func asOfAgg(txn int) *plan.Aggregate {
	return &plan.Aggregate{
		Op:    plan.TemporalOp{Op: plan.OpProject, A: plan.IntervalRef{From: "t0"}},
		Attrs: []string{"gender"},
		Kind:  "dist",
		AsOf:  plan.TxnRef{Txn: txn},
	}
}

// TestAsOfResolvesDistinctStates compiles the same logical query AS OF two
// different transactions and checks each executes over the state of its
// own txn — the t0 DIST gender counts differ between txn 1 and the head.
func TestAsOfResolvesDistinctStates(t *testing.T) {
	s := paperSeries(t)
	r := &seriesResolver{s: s}
	live, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	env := plan.Env{Graph: live, History: r}

	res1 := execute(t, env, asOfAgg(1))
	resHead := execute(t, env, asOfAgg(s.Txn()))
	resLive := execute(t, env, asOfAgg(0))

	if got, want := mustJSON(t, resHead.Agg), mustJSON(t, resLive.Agg); got != want {
		t.Errorf("AS OF head diverges from txn-0 (live): %s vs %s", got, want)
	}
	// At txn 1 only the t0 batch exists; the paper example's t0 has 4
	// nodes (1 m, 3 f) — identical groups to the head's t0 POINT, but the
	// graphs behind them differ in node count.
	if res1.Agg == nil || resHead.Agg == nil {
		t.Fatal("aggregate results missing")
	}
	// asOfAgg(0) carries a zero clause and never touches the resolver — the
	// live head is served straight from env.Graph.
	if r.stateCalls != 2 {
		t.Errorf("resolver saw %d StateAt calls, want one per AS OF compile", r.stateCalls)
	}
}

// TestAsOfPlanCacheKeysPerTxn: the same statement AS OF different
// transactions must not collide in a shared plan cache, and the AS OF
// clause must be part of the canonical key.
func TestAsOfPlanCacheKeysPerTxn(t *testing.T) {
	k1, k2, kHead := asOfAgg(1).Key(), asOfAgg(2).Key(), asOfAgg(0).Key()
	if k1 == k2 {
		t.Fatalf("AS OF 1 and AS OF 2 share a cache key %q", k1)
	}
	if k1 == kHead {
		t.Fatalf("AS OF 1 collides with the head-state key %q", k1)
	}
	if !strings.Contains(k1, "AS OF 1") {
		t.Errorf("canonical key %q does not render the AS OF clause", k1)
	}
	if strings.Contains(kHead, "AS OF") {
		t.Errorf("head key %q renders a zero AS OF clause", kHead)
	}

	// A valid-time clause keys separately as well.
	v := asOfAgg(1)
	v.Valid = plan.IntervalRef{From: "t0", To: "t1"}
	if v.Key() == k1 {
		t.Errorf("VALID DURING did not change the cache key %q", k1)
	}
	if !strings.Contains(v.Key(), "VALID DURING") {
		t.Errorf("key %q does not render the VALID DURING clause", v.Key())
	}
}

// TestAsOfWithoutHistoryRejected: an environment with no transaction log
// must reject AS OF but still serve VALID DURING by windowing inline.
func TestAsOfWithoutHistoryRejected(t *testing.T) {
	g := core.PaperExample()
	env := plan.Env{Graph: g}
	if _, err := plan.Compile(env, asOfAgg(3)); err == nil ||
		!strings.Contains(err.Error(), "transaction log") {
		t.Fatalf("AS OF without history = %v, want transaction-log error", err)
	}

	node := &plan.Aggregate{
		Op:    plan.TemporalOp{Op: plan.OpProject, A: plan.IntervalRef{From: "t1"}},
		Attrs: []string{"gender"},
		Kind:  "dist",
		Valid: plan.IntervalRef{From: "t1", To: "t2"},
	}
	res := execute(t, env, node)
	if res.Agg == nil {
		t.Fatal("VALID DURING without history returned no aggregate")
	}
}

// TestValidDuringRestrictsTimeline: points outside the valid window are
// unknown, exactly as if the graph never contained them.
func TestValidDuringRestrictsTimeline(t *testing.T) {
	s := paperSeries(t)
	r := &seriesResolver{s: s}
	live, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	env := plan.Env{Graph: live, History: r}
	node := &plan.Aggregate{
		Op:    plan.TemporalOp{Op: plan.OpProject, A: plan.IntervalRef{From: "t2"}},
		Attrs: []string{"gender"},
		Kind:  "dist",
		Valid: plan.IntervalRef{From: "t0", To: "t1"},
		AsOf:  plan.TxnRef{Txn: s.Txn()},
	}
	if _, err := plan.Compile(env, node); err == nil ||
		!strings.Contains(err.Error(), "t2") {
		t.Fatalf("POINT t2 under VALID DURING t0..t1 = %v, want unknown-point error", err)
	}
}

// TestAsOfBeyondHeadErrors surfaces the resolver's range error with the
// transaction number in the message.
func TestAsOfBeyondHeadErrors(t *testing.T) {
	s := paperSeries(t)
	r := &seriesResolver{s: s}
	live, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	env := plan.Env{Graph: live, History: r}
	bad := s.Txn() + 5
	_, cerr := plan.Compile(env, asOfAgg(bad))
	if cerr == nil || !strings.Contains(cerr.Error(), fmt.Sprintf("AS OF %d", bad)) {
		t.Fatalf("AS OF beyond head = %v, want positioned error", cerr)
	}
}

// TestAsOfCachedPlansExecuteHistoricalState: with a shared cache, a head
// query compiled before and after an AS OF query must keep answering from
// the head graph (no cross-contamination through the cache).
func TestAsOfCachedPlansExecuteHistoricalState(t *testing.T) {
	s := paperSeries(t)
	r := &seriesResolver{s: s}
	live, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	cache := plan.NewCache(0)
	env := plan.Env{Graph: live, History: r, Cache: cache}

	before := execute(t, env, asOfAgg(0))
	_ = execute(t, env, asOfAgg(1))
	after := execute(t, env, asOfAgg(0))
	if got, want := mustJSON(t, after.Agg), mustJSON(t, before.Agg); got != want {
		t.Fatalf("head plan answer changed after an AS OF compile:\n%s\nvs\n%s", got, want)
	}
}

// TestReadAfterAdvanceLeavesRetiredRows: Catalog.Advance releases the
// retired graph's tuple-code rows, and a read after it — on the advanced
// state, or through a cache moved along with Cache.Advance — compiles
// against the new graph instead of re-running a plan bound to the retired
// one, so those rows stay released.
func TestReadAfterAdvanceLeavesRetiredRows(t *testing.T) {
	full := core.PaperExample()
	s := stream.New(full.Attrs()...)
	appendPoint := func(ti int) *core.Graph {
		t.Helper()
		label, snap := pointBatch(full, ti)
		if err := s.Append(label, snap); err != nil {
			t.Fatal(err)
		}
		g, err := s.Graph()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	scan := &plan.Aggregate{
		Op:    plan.TemporalOp{Op: plan.OpIntersection, A: plan.IntervalRef{From: "t0"}, B: plan.IntervalRef{From: "t1"}},
		Attrs: []string{"gender", "publications"},
		Kind:  "dist",
	}
	read := func(g *core.Graph, cat *materialize.Catalog, cache *plan.Cache) {
		t.Helper()
		execute(t, plan.Env{Graph: g, Catalog: cat, Cache: cache}, scan)
	}
	appendPoint(0)
	g1 := appendPoint(1)
	cat := materialize.NewCatalog(g1)
	st1 := plan.NewState(g1, cat, s.Len())
	moved := plan.NewCache(0) // one cache carried across generations, as bench/ does
	read(g1, cat, st1.Plans)
	read(g1, cat, moved)
	if agg.TupleRowBytes(g1) == 0 {
		t.Fatal("the scan built no tuple-code rows")
	}
	g2 := appendPoint(2)
	adv, err := cat.Advance(g2)
	if err != nil {
		t.Fatal(err)
	}
	if n := agg.TupleRowBytes(g1); n != 0 {
		t.Fatalf("Catalog.Advance left %d bytes of the retired graph's rows", n)
	}
	st2 := plan.NewState(g2, adv.Catalog, s.Len())
	read(g2, adv.Catalog, st2.Plans)
	moved.Advance(g2, cat, 2)
	read(g2, cat, moved)
	if n := agg.TupleRowBytes(g1); n != 0 {
		t.Errorf("a read after the advance rebuilt %d bytes of the retired graph's rows", n)
	}
}

// TestLatePlansOnRetiredState compiles a union-ALL aggregate, an ALL
// trend and a DIST scan on one serving state, advances past a retroactive
// point and runs them late: each answers over its own state's graph, and
// the scan memoizes its answer into that state's cache alone. The
// successor state answers all three over the new graph, from none of the
// results the retired state computed.
func TestLatePlansOnRetiredState(t *testing.T) {
	full := core.PaperExample()
	s := stream.New(full.Attrs()...)
	for ti := 0; ti < 3; ti++ {
		label, snap := pointBatch(full, ti)
		if err := s.Append(label, snap); err != nil {
			t.Fatal(err)
		}
	}
	g1, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	union := &plan.Aggregate{
		Op:    plan.TemporalOp{Op: plan.OpUnion, A: plan.IntervalRef{From: "t1"}, B: plan.IntervalRef{From: "t2"}},
		Attrs: []string{"gender"},
		Kind:  "all",
	}
	trend := &plan.Trend{Kind: "all", Attrs: []string{"gender"}, Width: 2}
	scan := &plan.Aggregate{
		Op:    plan.TemporalOp{Op: plan.OpUnion, A: plan.IntervalRef{From: "t1"}, B: plan.IntervalRef{From: "t2"}},
		Attrs: []string{"gender"},
		Kind:  "dist",
	}
	env := func(st *plan.State) plan.Env {
		return plan.Env{Graph: st.Graph, Catalog: st.Catalog, Cache: st.Plans}
	}
	answer := func(res *plan.Result) string {
		if res.Trend != nil {
			return mustJSON(t, res.Trend)
		}
		return mustJSON(t, res.Agg)
	}
	scratch := func(g *core.Graph, node plan.Logical) string {
		return answer(execute(t, plan.Env{Graph: g}, node))
	}

	s1 := plan.NewState(g1, materialize.NewCatalog(g1), s.Len())
	var late []*plan.Plan
	for _, node := range []plan.Logical{union, trend, scan} {
		p, err := plan.Compile(env(s1), node)
		if err != nil {
			t.Fatal(err)
		}
		late = append(late, p)
	}

	// A copy of t0's batch lands before t1: no node is new, so the catalog
	// advances instead of rebuilding.
	_, snap := pointBatch(full, 0)
	if _, err := s.AppendAt("t0b", snap, "t1"); err != nil {
		t.Fatal(err)
	}
	g2, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	adv, err := s1.Catalog.Advance(g2)
	if err != nil {
		t.Fatal(err)
	}
	if adv.FirstDirty != 1 {
		t.Fatalf("FirstDirty = %d, want the retroactive position 1", adv.FirstDirty)
	}
	s2 := plan.NewState(g2, adv.Catalog, s.Len())

	for i, p := range late {
		res, _, err := p.Answer(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := answer(res), scratch(g1, p.Logical()); got != want {
			t.Errorf("late %s on the retired state:\n%s\nwant\n%s", []string{"union", "trend", "scan"}[i], got, want)
		}
	}
	if _, memo, err := late[2].Answer(context.Background()); err != nil || !memo {
		t.Errorf("the late scan's answer was not memoized on the retired state (err %v)", err)
	}
	if n := s2.Plans.Len(); n != 0 {
		t.Errorf("the successor's plan cache holds %d plans the retired state compiled", n)
	}
	if n := s2.Catalog.Stats().CacheEntries; n != 0 {
		t.Errorf("the successor's catalog holds %d results the retired state computed", n)
	}
	for _, node := range []plan.Logical{union, trend, scan} {
		p, err := plan.Compile(env(s2), node)
		if err != nil {
			t.Fatal(err)
		}
		res, memo, err := p.Answer(context.Background())
		if err != nil || memo {
			t.Fatalf("%s on the successor: memo %v, err %v", node.Key(), memo, err)
		}
		if node == plan.Logical(union) && res.AggSource == materialize.Cached {
			t.Error("the successor answered the union from cache")
		}
		if got, want := answer(res), scratch(g2, node); got != want {
			t.Errorf("%s on the successor:\n%s\nwant\n%s", node.Key(), got, want)
		}
		// The retired catalog paired with the new graph is ignored.
		p, err = plan.Compile(plan.Env{Graph: g2, Catalog: s1.Catalog}, node)
		if err != nil {
			t.Fatal(err)
		}
		if op := p.Op(); op == "CatalogUnionAll" || op == "TrendCatalog" {
			t.Errorf("%s compiled to %s over a catalog of another graph", node.Key(), op)
		}
	}
}
