package server

import (
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/tgql"
)

// The analytics statements (EVENTS, PATHS, TREND) on /v1/tgql must answer
// byte-identically to the underlying engines, honor as_of pins, and be
// rejected outright on partial (time-range shard) daemons — including via
// /v1/explain.

func TestEventsEndpointMatchesEngine(t *testing.T) {
	_, ts := newStaticServer(t)
	text, _ := tgqlAt(t, ts.URL, "EVENTS DIST BY gender", 0)
	g := core.PaperExample()
	want := &tgql.Result{Events: analytics.EventsSweep(g, analytics.EventsSpec{
		Schema: agg.MustSchema(g, g.MustAttr("gender")),
		Kind:   agg.Distinct,
	})}
	if text != want.String() {
		t.Fatalf("events statement diverges from engine:\n got %s\nwant %s", text, want)
	}
	if want.Events.Steps != 2 {
		t.Fatalf("steps = %d, want 2", want.Events.Steps)
	}
}

func TestPathsEndpointMatchesEngine(t *testing.T) {
	_, ts := newStaticServer(t)
	text, _ := tgqlAt(t, ts.URL, "PATHS EARLIEST FROM u1 TO u2, u4", 0)
	g := core.PaperExample()
	u1, _ := g.NodeByLabel("u1")
	u2, _ := g.NodeByLabel("u2")
	u4, _ := g.NodeByLabel("u4")
	want := &tgql.Result{Paths: analytics.NewPathsEngine(g, analytics.PathsSpec{
		Mode:   analytics.ModeEarliest,
		Src:    []core.NodeID{u1},
		Dst:    []core.NodeID{u2, u4},
		Window: g.Timeline().All(),
	}).Run()}
	if text != want.String() {
		t.Fatalf("paths statement diverges from engine:\n got %s\nwant %s", text, want)
	}
}

func TestTrendEndpointMatchesEngine(t *testing.T) {
	_, ts := newStaticServer(t)
	text, _ := tgqlAt(t, ts.URL, "TREND ALL BY gender WIDTH 2", 0)
	g := core.PaperExample()
	want := &tgql.Result{Trend: analytics.TrendScan(g, analytics.TrendSpec{
		Schema: agg.MustSchema(g, g.MustAttr("gender")),
		Kind:   agg.All,
		Width:  2,
	})}
	if text != want.String() {
		t.Fatalf("trend statement diverges from engine:\n got %s\nwant %s", text, want)
	}
	if want.Trend.Windows != 2 {
		t.Fatalf("windows = %d, want 2", want.Trend.Windows)
	}
}

// TestAnalyticsEndpointsAsOf pins the three statements to an early
// transaction of a stream-mode server and checks the view shrinks
// accordingly, while an explicit head pin matches the live answer.
func TestAnalyticsEndpointsAsOf(t *testing.T) {
	series := stream.New(
		core.AttrSpec{Name: "gender", Kind: core.Static},
		core.AttrSpec{Name: "publications", Kind: core.TimeVarying},
	)
	s, err := New(Config{Series: series, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var head int
	for _, req := range asOfBatches()[:3] {
		head = ingestAck(t, ts.URL, req).Txn
	}

	eventsAt := func(asOf int) string {
		text, _ := tgqlAt(t, ts.URL, "EVENTS DIST BY gender", asOf)
		return text
	}
	live := eventsAt(0)
	if pinned := eventsAt(head); live != pinned {
		t.Fatalf("explicit head pin diverges from live answer:\n%s\n%s", pinned, live)
	}
	if !strings.Contains(live, "(2 steps)") {
		t.Fatalf("live answer should have 2 steps:\n%s", live)
	}
	empty := &tgql.Result{Events: &analytics.EventsResult{Width: 1}}
	if early := eventsAt(1); early != empty.String() {
		t.Fatalf("as_of 1 should see a single point (0 steps, no rows), got\n%s", early)
	}

	if text, _ := tgqlAt(t, ts.URL, "TREND DIST BY gender", 2); !strings.Contains(text, "(2 windows)") {
		t.Fatalf("trend as_of 2 should have 2 windows:\n%s", text)
	}

	// Node resolution happens against the pinned view: u3 does not exist
	// until txn 2, so pinning before that is a compile error...
	code, data := postJSON(t, ts.URL+"/v1/tgql", TGQLRequest{Query: "PATHS EARLIEST FROM u1 TO u3", AsOf: 1})
	if code != 400 || !strings.Contains(string(data), "unknown node") {
		t.Fatalf("paths as_of 1 to u3 = %d %s, want 400 unknown node", code, data)
	}
	// ...and pinning at txn 2 sees the u1 -t0-> u2 -t1-> u3 chain.
	if text, _ := tgqlAt(t, ts.URL, "PATHS EARLIEST FROM u1 TO u3", 2); !strings.Contains(text, "(1 reached)") {
		t.Fatalf("paths as_of 2 should reach 1 target:\n%s", text)
	}
}

// TestAnalyticsStatementErrors: an analytics statement naming something the
// graph lacks is a 400 anchored at the offending token.
func TestAnalyticsStatementErrors(t *testing.T) {
	h := paperHandler(t, Config{})
	for _, q := range []string{
		"EVENTS DIST BY salary",
		"PATHS EARLIEST FROM nobody TO u2",
		"TREND MOST BY gender",
	} {
		expectReply(t, q, h, "/v1/tgql", marshalBody(t, TGQLRequest{Query: q}), 400, "bad_request", "tgql: 1:")
	}
}

// TestAnalyticsPlannerMetrics: executing each statement family bumps its
// planner selection counter in the exposition.
func TestAnalyticsPlannerMetrics(t *testing.T) {
	_, ts := newStaticServer(t)
	for _, q := range []string{"EVENTS DIST BY gender", "PATHS EARLIEST FROM u1 TO u4", "TREND DIST BY gender"} {
		tgqlAt(t, ts.URL, q, 0)
	}
	code, data := get(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	text := string(data)
	for _, op := range []string{"events-sweep", "paths-frontier", "trend-scan"} {
		line := grepMetrics(text, `op="`+op+`"`)
		if line == "" {
			t.Fatalf("planner selections for %s missing from exposition", op)
		}
		if strings.Contains(line, "} 0") {
			t.Fatalf("planner selections for %s did not increment: %s", op, line)
		}
	}
}
