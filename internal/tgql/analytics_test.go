package tgql

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/analytics"
	"repro/internal/core"
)

func analyticsJSON(t *testing.T, v interface{}) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestEventsStatement runs EVENTS end to end — parse, plan, execute — and
// checks the result is byte-identical to the engine invoked directly.
func TestEventsStatement(t *testing.T) {
	g := core.PaperExample()
	res, err := Exec(g, "EVENTS DIST BY gender WIDTH 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Events == nil {
		t.Fatal("no events result")
	}
	schema, err := agg.ByName(g, "gender")
	if err != nil {
		t.Fatal(err)
	}
	want := analytics.EventsSweep(g, analytics.EventsSpec{Schema: schema, Kind: agg.Distinct, Width: 1})
	if got, w := analyticsJSON(t, res.Events), analyticsJSON(t, want); got != w {
		t.Errorf("EVENTS statement diverges from engine:\n got %s\nwant %s", got, w)
	}
	if s := res.String(); !strings.Contains(s, "evolution events") || !strings.Contains(s, "class") {
		t.Errorf("EVENTS rendering missing table:\n%s", s)
	}

	// MIN filters rows by change magnitude; a huge MIN keeps none.
	res, err = Exec(g, "EVENTS DIST BY gender WIDTH 1 MIN 100")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events.Rows) != 0 {
		t.Errorf("MIN 100 kept %d rows, want 0", len(res.Events.Rows))
	}
}

// TestPathsStatement covers both modes, with and without DURING.
func TestPathsStatement(t *testing.T) {
	g := core.PaperExample()
	res, err := Exec(g, "PATHS EARLIEST FROM u1 TO u2, u4")
	if err != nil {
		t.Fatal(err)
	}
	if res.Paths == nil || res.Paths.Mode != analytics.ModeEarliest {
		t.Fatalf("unexpected paths result: %+v", res.Paths)
	}
	u1, _ := g.NodeByLabel("u1")
	u2, _ := g.NodeByLabel("u2")
	u4, _ := g.NodeByLabel("u4")
	want := analytics.NewPathsEngine(g, analytics.PathsSpec{
		Mode: analytics.ModeEarliest,
		Src:  []core.NodeID{u1}, Dst: []core.NodeID{u2, u4},
		Window: g.Timeline().All(),
	}).Run()
	if got, w := analyticsJSON(t, res.Paths), analyticsJSON(t, want); got != w {
		t.Errorf("PATHS statement diverges from engine:\n got %s\nwant %s", got, w)
	}
	if s := res.String(); !strings.Contains(s, "earliest") || !strings.Contains(s, "duration") {
		t.Errorf("PATHS rendering missing table:\n%s", s)
	}

	res, err = Exec(g, "PATHS FASTEST FROM u1 TO u4 DURING t0..t1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Paths.Mode != analytics.ModeFastest || res.Paths.Window != "[t0,t1]" {
		t.Errorf("FASTEST DURING parsed wrong: %+v", res.Paths)
	}
}

// TestTrendStatement checks TREND end to end, incl. inline VALID DURING.
func TestTrendStatement(t *testing.T) {
	g := core.PaperExample()
	res, err := Exec(g, "TREND ALL BY gender WIDTH 2")
	if err != nil {
		t.Fatal(err)
	}
	if res.Trend == nil {
		t.Fatal("no trend result")
	}
	schema, err := agg.ByName(g, "gender")
	if err != nil {
		t.Fatal(err)
	}
	want := analytics.TrendScan(g, analytics.TrendSpec{Schema: schema, Kind: agg.All, Width: 2})
	if got, w := analyticsJSON(t, res.Trend), analyticsJSON(t, want); got != w {
		t.Errorf("TREND statement diverges from engine:\n got %s\nwant %s", got, w)
	}
	if s := res.String(); !strings.Contains(s, "sliding-window trend") || !strings.Contains(s, "direction") {
		t.Errorf("TREND rendering missing table:\n%s", s)
	}

	// Valid-time restriction windows the graph inline: one point left.
	res, err = Exec(g, "TREND DIST BY gender VALID DURING t0..t0")
	if err != nil {
		t.Fatal(err)
	}
	if res.Trend.Windows != 1 {
		t.Errorf("TREND over a one-point valid window has %d windows, want 1", res.Trend.Windows)
	}
}

// TestAnalyticsExplainStatement checks EXPLAIN renders the analytics
// operators with their engine, whatever the step count or window length.
func TestAnalyticsExplainStatement(t *testing.T) {
	g := core.PaperExample()
	cases := []struct {
		query string
		want  []string
	}{
		{"EXPLAIN EVENTS DIST BY gender WIDTH 1", []string{"EventsSweep", "engine=entity-sweep"}},
		{"EXPLAIN EVENTS DIST BY gender WIDTH 2", []string{"EventsSweep", "engine=entity-sweep", "steps=1"}},
		{"EXPLAIN PATHS EARLIEST FROM u1 TO u2", []string{"PathsFrontier", "mode=earliest"}},
		{"EXPLAIN PATHS FASTEST FROM u1 TO u2 DURING t0..t1", []string{"PathsFrontier", "engine=time-bucket-frontier", "window=[t0,t1]"}},
		{"EXPLAIN TREND DIST BY gender", []string{"TrendScan", "windows=3"}},
	}
	for _, c := range cases {
		res, err := Exec(g, c.query)
		if err != nil {
			t.Fatalf("%q: %v", c.query, err)
		}
		if res.Events != nil || res.Paths != nil || res.Trend != nil {
			t.Errorf("%q executed the statement", c.query)
		}
		for _, w := range c.want {
			if !strings.Contains(res.Explain, w) {
				t.Errorf("%q: EXPLAIN misses %q:\n%s", c.query, w, res.Explain)
			}
		}
	}
}

// TestAnalyticsErrorPositions pins position-anchored errors for the new
// statements, parse-time and resolve-time.
func TestAnalyticsErrorPositions(t *testing.T) {
	g := core.PaperExample()
	cases := []struct {
		query string
		want  []string
	}{
		{"EVENTS SUM BY gender", []string{"tgql: 1:8:", "expected DIST or ALL"}},
		{"EVENTS DIST gender", []string{"tgql: 1:13:", "expected BY"}},
		{"EVENTS DIST BY nope", []string{"tgql: 1:16:", `unknown attribute "nope"`}},
		{"EVENTS DIST BY gender WIDTH zero", []string{"WIDTH wants a positive integer"}},
		{"EVENTS DIST BY gender MIN lots", []string{"MIN wants a non-negative integer"}},
		{"PATHS SCENIC FROM u1 TO u2", []string{"tgql: 1:7:", "expected EARLIEST or FASTEST"}},
		{"PATHS EARLIEST FROM u9 TO u2", []string{"tgql: 1:21:", `unknown node "u9"`}},
		{"PATHS EARLIEST FROM u1 TO u9", []string{"tgql: 1:27:", `unknown node "u9"`}},
		{"PATHS EARLIEST FROM u1 TO u2 DURING t9", []string{`unknown time point "t9"`}},
		{"PATHS EARLIEST FROM u1 TO u2 DURING ''", []string{"tgql: 1:37:", "empty time-point label"}},
		{"TREND DIST BY nope", []string{"tgql: 1:15:", `unknown attribute "nope"`}},
		{"TREND DIST BY gender WIDTH 0", []string{"WIDTH wants a positive integer"}},
	}
	for _, c := range cases {
		_, err := Exec(g, c.query)
		if err == nil {
			t.Errorf("%q: no error", c.query)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%q:\n  error %q\n  missing %q", c.query, err, w)
			}
		}
	}
}

// TestLower pins the lowering serving layers build on: one parse per call,
// the logical node by statement family, the EXPLAIN flag, and the plan-less
// side door (STATS, COARSEN) with the error compile-only callers report.
func TestLower(t *testing.T) {
	for _, tc := range []struct {
		query   string
		node    string // %T of Statement.Node; "" = plan-less
		explain bool
	}{
		{"AGG DIST gender ON POINT t0", "*plan.Aggregate", false},
		{"events all by gender width 2 min 1", "*plan.Events", false},
		{"EXPLAIN PATHS EARLIEST FROM u1 TO u2", "*plan.Paths", true},
		{"EXPLAIN TREND ALL BY gender", "*plan.Trend", true},
		{"TIMELINE BY gender", "*plan.Timeline", false},
		{"STATS", "", false},
		{"COARSEN 2", "", false},
	} {
		before := Parses.Value()
		st, err := Lower(tc.query)
		if err != nil {
			t.Errorf("Lower(%q): %v", tc.query, err)
			continue
		}
		if n := Parses.Value() - before; n != 1 {
			t.Errorf("Lower(%q) parsed %d times", tc.query, n)
		}
		got := ""
		if st.Node != nil {
			got = fmt.Sprintf("%T", st.Node)
		}
		if got != tc.node || st.Explain != tc.explain {
			t.Errorf("Lower(%q) = node %q explain %v, want %q %v", tc.query, got, st.Explain, tc.node, tc.explain)
		}
		if noPlan := st.NoPlan != nil && strings.Contains(st.NoPlan.Error(), "has no query plan"); noPlan != (st.Node == nil) {
			t.Errorf("Lower(%q): Node %v, NoPlan %v", tc.query, st.Node, st.NoPlan)
		}
	}
	// An empty interval label fails in the parser, before any resolution.
	for _, q := range []string{"EVENTS DIST", "not a query", "EXPLAIN STATS", "AGG DIST gender ON POINT ''"} {
		if _, err := Lower(q); err == nil {
			t.Errorf("Lower(%q) succeeded", q)
		}
	}
}
