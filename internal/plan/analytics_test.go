package plan

import (
	"context"
	"encoding/json"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/agg"
	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/evolution"
	"repro/internal/gtest"
	"repro/internal/materialize"
	"repro/internal/metrics"
	"repro/internal/timeline"
)

func eventsNode(width int) *Events {
	return &Events{Kind: "dist", Attrs: []string{"gender"}, Width: width}
}

func trendNode(kind string, width int) *Trend {
	return &Trend{Kind: kind, Attrs: []string{"gender"}, Width: width}
}

func pathsNode(mode string, from, to []string) *Paths {
	return &Paths{Mode: mode, From: from, To: to}
}

func rootName(t *testing.T, env Env, node Logical) string {
	t.Helper()
	p, err := Compile(env, node)
	if err != nil {
		t.Fatal(err)
	}
	return p.root.name()
}

// TestAnalyticsEngineSelection pins the physical operator each analytics
// statement compiles to: EVENTS and PATHS have one production engine
// whatever the step count or window length; TREND picks the catalog for
// unfiltered ALL and scans otherwise.
func TestAnalyticsEngineSelection(t *testing.T) {
	g := core.PaperExample() // 3 time points
	env := Env{Graph: g}
	cat := materialize.NewCatalogWith(g, materialize.CatalogConfig{})

	// EVENTS: 2 steps, 1 step and 0 steps all run the entity sweep.
	for w := 1; w <= 3; w++ {
		if got := rootName(t, env, eventsNode(w)); got != "EventsSweep" {
			t.Errorf("EVENTS width=%d compiled to %s, want EventsSweep", w, got)
		}
	}

	// TREND: catalog only for unfiltered ALL.
	if got := rootName(t, Env{Graph: g, Catalog: cat}, trendNode("all", 2)); got != "TrendCatalog" {
		t.Errorf("TREND ALL with catalog compiled to %s, want TrendCatalog", got)
	}
	if got := rootName(t, Env{Graph: g, Catalog: cat}, trendNode("dist", 2)); got != "TrendScan" {
		t.Errorf("TREND DIST with catalog compiled to %s, want TrendScan", got)
	}
	filtered := trendNode("all", 2)
	filtered.Where = []Predicate{{Attr: "publications", Op: ">", Value: "1"}}
	if got := rootName(t, Env{Graph: g, Catalog: cat}, filtered); got != "TrendScan" {
		t.Errorf("TREND ALL filtered compiled to %s, want TrendScan", got)
	}
	if got := rootName(t, env, trendNode("all", 2)); got != "TrendScan" {
		t.Errorf("TREND ALL without catalog compiled to %s, want TrendScan", got)
	}

	// PATHS: the full 3-point window and 2- and 1-point DURING windows all
	// run the frontier engine.
	for _, during := range []IntervalRef{{}, {From: "t0", To: "t1"}, {From: "t1"}} {
		node := pathsNode("fastest", []string{"u1"}, []string{"u4"})
		node.During = during
		if got := rootName(t, env, node); got != "PathsFrontier" {
			t.Errorf("%s compiled to %s, want PathsFrontier", node.Key(), got)
		}
	}
}

// TestAnalyticsCompileEquivalence routes each statement through
// Compile+Execute and requires byte-identical JSON against the naive
// oracle — including the 0- and 1-step EVENTS and 1- and 2-point PATHS
// windows, which have no engine of their own.
func TestAnalyticsCompileEquivalence(t *testing.T) {
	g := core.PaperExample() // 3 time points
	cat := materialize.NewCatalogWith(g, materialize.CatalogConfig{})
	schema, err := agg.ByName(g, "gender")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	toJSON := func(v interface{}) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	run := func(env Env, node Logical) *Result {
		t.Helper()
		p, err := Compile(env, node)
		if err != nil {
			t.Fatalf("compile %s: %v", node.Key(), err)
		}
		res, err := p.Execute(ctx)
		if err != nil {
			t.Fatalf("execute %s: %v", node.Key(), err)
		}
		return res
	}

	// EVENTS: width 1 → 2 steps, width 2 → 1 step, width 3 → 0 steps.
	preds := []Predicate{{Attr: "publications", Op: ">", Value: "1"}}
	filter, err := CompilePredicates(g, "", preds)
	if err != nil {
		t.Fatal(err)
	}
	for w := 1; w <= 3; w++ {
		for _, c := range []struct {
			kind  string
			min   int64
			where []Predicate
		}{
			{kind: "dist"},
			{kind: "all"},
			{kind: "dist", min: 1},
			{kind: "all", where: preds},
			{kind: "dist", min: 2, where: preds},
		} {
			node := &Events{Kind: c.kind, Attrs: []string{"gender"}, Width: w, Min: c.min, Where: c.where}
			spec := analytics.EventsSpec{Schema: schema, Kind: agg.Distinct, Width: w, Min: c.min}
			if c.kind == "all" {
				spec.Kind = agg.All
			}
			if c.where != nil {
				spec.Filter = evolution.Filter(filter)
			}
			got, want := toJSON(run(Env{Graph: g}, node).Events), toJSON(analytics.NaiveEvents(g, spec))
			if got != want {
				t.Errorf("%s through planner diverges from oracle:\n got %s\nwant %s", node.Key(), got, want)
			}
		}
	}

	res := run(Env{Graph: g, Catalog: cat}, trendNode("all", 2))
	wantTrend := analytics.TrendScan(g, analytics.TrendSpec{Schema: schema, Kind: agg.All, Width: 2})
	if toJSON(res.Trend) != toJSON(wantTrend) {
		t.Errorf("TREND through planner (catalog) diverges from scan engine:\n got %s\nwant %s", toJSON(res.Trend), toJSON(wantTrend))
	}

	// PATHS: the whole timeline, then 2- and 1-point DURING windows.
	u1, _ := g.NodeByLabel("u1")
	u2, _ := g.NodeByLabel("u2")
	u4, _ := g.NodeByLabel("u4")
	tl := g.Timeline()
	for _, mode := range []string{analytics.ModeEarliest, analytics.ModeFastest} {
		for _, c := range []struct {
			during IntervalRef
			window timeline.Interval
		}{
			{IntervalRef{}, tl.All()},
			{IntervalRef{From: "t0", To: "t1"}, tl.Range(0, 1)},
			{IntervalRef{From: "t1", To: "t2"}, tl.Range(1, 2)},
			{IntervalRef{From: "t0"}, tl.Point(0)},
			{IntervalRef{From: "t2"}, tl.Point(2)},
		} {
			node := pathsNode(mode, []string{"u1"}, []string{"u2", "u4"})
			node.During = c.during
			spec := analytics.PathsSpec{
				Mode: mode, Src: []core.NodeID{u1}, Dst: []core.NodeID{u2, u4}, Window: c.window,
			}
			got, want := toJSON(run(Env{Graph: g}, node).Paths), toJSON(analytics.NaivePaths(g, spec))
			if got != want {
				t.Errorf("%s through planner diverges from oracle:\n got %s\nwant %s", node.Key(), got, want)
			}
		}
	}
}

// TestAnalyticsExplain checks that EXPLAIN names the chosen engine and the
// cost estimate for every analytics operator.
func TestAnalyticsExplain(t *testing.T) {
	g := core.PaperExample()
	cat := materialize.NewCatalogWith(g, materialize.CatalogConfig{})

	cases := []struct {
		node Logical
		env  Env
		want []string
	}{
		{eventsNode(1), Env{Graph: g}, []string{"EventsSweep", "engine=entity-sweep", "est_cost=", "steps=2"}},
		{eventsNode(2), Env{Graph: g}, []string{"EventsSweep", "engine=entity-sweep", "steps=1"}},
		{trendNode("all", 2), Env{Graph: g, Catalog: cat}, []string{"TrendCatalog", "composition=prefix-sum", "windows=2"}},
		{trendNode("dist", 1), Env{Graph: g}, []string{"TrendScan", "windows=3"}},
		{pathsNode("earliest", []string{"u1"}, []string{"u4"}), Env{Graph: g}, []string{"PathsFrontier", "engine=time-bucket-frontier", "mode=earliest"}},
	}
	for _, c := range cases {
		p, err := Compile(c.env, c.node)
		if err != nil {
			t.Fatal(err)
		}
		s := p.Explain()
		for _, w := range c.want {
			if !strings.Contains(s, w) {
				t.Errorf("EXPLAIN of %s misses %q:\n%s", c.node.Key(), w, s)
			}
		}
	}
}

// TestAnalyticsSelections checks that every execution bumps the
// operator-selection counter, and that an analytics statement's second
// execution hits the plan cache instead of recompiling.
func TestAnalyticsSelections(t *testing.T) {
	g := core.PaperExample()
	env := Env{Graph: g, Cache: NewCache(0)}
	ctx := context.Background()

	short := pathsNode("earliest", []string{"u1"}, []string{"u2"})
	short.During = IntervalRef{From: "t0", To: "t1"}
	for _, c := range []struct {
		node    Logical
		counter *metrics.Counter
	}{
		{eventsNode(1), &Selections.EventsSweep},
		{short, &Selections.PathsFront},
		{pathsNode("fastest", []string{"u1"}, []string{"u4"}), &Selections.PathsFront},
		{trendNode("dist", 2), &Selections.TrendScan},
	} {
		var first *Plan
		for run := 0; run < 2; run++ {
			before, hits := c.counter.Value(), CacheHits.Value()
			p, err := Compile(env, c.node)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.Execute(ctx); err != nil {
				t.Fatal(err)
			}
			if got := c.counter.Value(); got != before+1 {
				t.Errorf("%s run %d: selection counter %d, want %d", c.node.Key(), run, got, before+1)
			}
			if run == 0 {
				first = p
			} else if p != first || CacheHits.Value() != hits+1 {
				t.Errorf("%s: second execution recompiled instead of hitting the plan cache", c.node.Key())
			}
		}
	}
}

// TestPathsPlanConcurrent runs EARLIEST and FASTEST from 8 goroutines
// through one compiled plan each, so the first executions race to build the
// shared per-point adjacency; run with -race this is the operator's
// data-race check. Every answer must match the oracle.
func TestPathsPlanConcurrent(t *testing.T) {
	g := gtest.LongLivedGraph(rand.New(rand.NewSource(8)), 96)
	from, to := []string{"n1", "n2", "n3"}, []string{"n4", "n10", "n20", "n30", "n40", "n50"}
	ids := func(labels []string) []core.NodeID {
		out := make([]core.NodeID, len(labels))
		for i, l := range labels {
			out[i], _ = g.NodeByLabel(l)
		}
		return out
	}
	type job struct {
		p    *Plan
		want string
	}
	var jobs []job
	for _, mode := range []string{analytics.ModeEarliest, analytics.ModeFastest} {
		p, err := Compile(Env{Graph: g}, pathsNode(mode, from, to))
		if err != nil {
			t.Fatal(err)
		}
		naive := analytics.NaivePaths(g, analytics.PathsSpec{
			Mode: mode, Src: ids(from), Dst: ids(to), Window: g.Timeline().All(),
		})
		if naive.Reached == 0 {
			t.Fatalf("%s reaches no target: the fixture exercises nothing", mode)
		}
		want, _ := json.Marshal(naive)
		jobs = append(jobs, job{p, string(want)})
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				for _, jb := range jobs {
					res, err := jb.p.Execute(context.Background())
					if err != nil {
						t.Error(err)
						return
					}
					if got, _ := json.Marshal(res.Paths); string(got) != jb.want {
						t.Errorf("concurrent PATHS diverged:\n got %s\nwant %s", got, jb.want)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestAnalyticsCached checks that analytics plans participate in the plan
// cache keyed on the canonical logical text.
func TestAnalyticsCached(t *testing.T) {
	g := core.PaperExample()
	cache := NewCache(0)
	env := Env{Graph: g, Cache: cache}

	p1, err := Compile(env, eventsNode(1))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Compile(env, eventsNode(1))
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("identical EVENTS query recompiled instead of served from cache")
	}
	if _, err := Compile(env, eventsNode(2)); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 2 {
		t.Errorf("cache has %d plans, want 2 (widths key separately)", cache.Len())
	}
}

// TestCacheKeysUnknownKeywordsApart: an operator, kind or paths mode that
// Compile rejects must not share a cache key with the valid statement it
// would otherwise render as, or a cached plan answers the invalid request.
func TestCacheKeysUnknownKeywordsApart(t *testing.T) {
	g := core.PaperExample()
	env := Env{Graph: g, Cache: NewCache(0)}
	agg := &Aggregate{Op: TemporalOp{Op: "union", A: IntervalRef{From: "t0"}, B: IntervalRef{From: "t1"}}, Attrs: []string{"gender"}}
	for _, c := range []struct{ valid, invalid Logical }{
		{trendNode("dist", 1), trendNode("most", 1)},
		{eventsNode(1), &Events{Kind: "most", Attrs: []string{"gender"}, Width: 1}},
		{pathsNode("earliest", []string{"u1"}, []string{"u2"}), pathsNode("scenic", []string{"u1"}, []string{"u2"})},
		{agg, &Aggregate{Op: agg.Op, Attrs: agg.Attrs, Kind: "most"}},
		{agg, &Aggregate{Op: TemporalOp{Op: "UNION", A: agg.Op.A, B: agg.Op.B}, Attrs: agg.Attrs}},
	} {
		if _, err := Compile(env, c.valid); err != nil {
			t.Fatal(err)
		}
		if _, err := Compile(env, c.invalid); err == nil {
			t.Errorf("%s compiled from the cache after %s", c.invalid.Key(), c.valid.Key())
		}
	}
}

// TestAnalyticsCompileErrors pins operand validation: every malformed
// statement fails at compile time with a descriptive error.
func TestAnalyticsCompileErrors(t *testing.T) {
	g := core.PaperExample()
	env := Env{Graph: g}

	cases := []struct {
		name string
		node Logical
		want string
	}{
		{"events bad attr", &Events{Kind: "dist", Attrs: []string{"nope"}}, "unknown attribute"},
		{"events bad kind", &Events{Kind: "sum", Attrs: []string{"gender"}}, "unknown kind"},
		{"events negative min", &Events{Kind: "dist", Attrs: []string{"gender"}, Min: -1}, "MIN must be >= 0"},
		{"trend bad attr", &Trend{Kind: "all", Attrs: []string{"nope"}}, "unknown attribute"},
		{"paths bad mode", &Paths{Mode: "scenic", From: []string{"u1"}, To: []string{"u2"}}, "unknown paths mode"},
		{"paths no sources", &Paths{Mode: "earliest", To: []string{"u2"}}, "FROM and TO"},
		{"paths unknown node", &Paths{Mode: "earliest", From: []string{"u9"}, To: []string{"u2"}}, `unknown node "u9"`},
		{"paths scattered during", &Paths{
			Mode: "earliest", From: []string{"u1"}, To: []string{"u2"},
			During: IntervalRef{Points: []string{"t0", "t2"}},
		}, "contiguous"},
	}
	for _, c := range cases {
		if _, err := Compile(env, c.node); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want containing %q", c.name, err, c.want)
		}
	}
}
