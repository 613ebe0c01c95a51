package server

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/stream"
)

// The analytics endpoints (/v1/events, /v1/paths, /v1/trend) must answer
// byte-identically to the underlying engines, honor as_of pins, and be
// rejected outright on partial (time-range shard) daemons — including via
// /v1/tgql and /v1/explain.

func analyticsJSONBody(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestEventsEndpointMatchesEngine(t *testing.T) {
	_, ts := newStaticServer(t)
	code, data := postJSON(t, ts.URL+"/v1/events", EventsRequest{Attrs: []string{"gender"}})
	if code != 200 {
		t.Fatalf("events = %d: %s", code, data)
	}
	var resp EventsResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	g := core.PaperExample()
	want := analytics.EventsSweep(g, analytics.EventsSpec{
		Schema: agg.MustSchema(g, g.MustAttr("gender")),
		Kind:   agg.Distinct,
	})
	if got, exp := analyticsJSONBody(t, resp.Events), analyticsJSONBody(t, want); got != exp {
		t.Fatalf("events endpoint diverges from engine:\n got %s\nwant %s", got, exp)
	}
	if resp.Events.Steps != 2 {
		t.Fatalf("steps = %d, want 2", resp.Events.Steps)
	}
}

func TestPathsEndpointMatchesEngine(t *testing.T) {
	_, ts := newStaticServer(t)
	code, data := postJSON(t, ts.URL+"/v1/paths", PathsRequest{
		From: []string{"u1"}, To: []string{"u2", "u4"},
	})
	if code != 200 {
		t.Fatalf("paths = %d: %s", code, data)
	}
	var resp PathsResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	g := core.PaperExample()
	u1, _ := g.NodeByLabel("u1")
	u2, _ := g.NodeByLabel("u2")
	u4, _ := g.NodeByLabel("u4")
	want := analytics.NewPathsEngine(g, analytics.PathsSpec{
		Mode:   analytics.ModeEarliest,
		Src:    []core.NodeID{u1},
		Dst:    []core.NodeID{u2, u4},
		Window: g.Timeline().All(),
	}).Run()
	if got, exp := analyticsJSONBody(t, resp.Paths), analyticsJSONBody(t, want); got != exp {
		t.Fatalf("paths endpoint diverges from engine:\n got %s\nwant %s", got, exp)
	}
}

func TestTrendEndpointMatchesEngine(t *testing.T) {
	_, ts := newStaticServer(t)
	code, data := postJSON(t, ts.URL+"/v1/trend", TrendRequest{
		Attrs: []string{"gender"}, Kind: "all", Width: 2,
	})
	if code != 200 {
		t.Fatalf("trend = %d: %s", code, data)
	}
	var resp TrendResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	g := core.PaperExample()
	want := analytics.TrendScan(g, analytics.TrendSpec{
		Schema: agg.MustSchema(g, g.MustAttr("gender")),
		Kind:   agg.All,
		Width:  2,
	})
	if got, exp := analyticsJSONBody(t, resp.Trend), analyticsJSONBody(t, want); got != exp {
		t.Fatalf("trend endpoint diverges from engine:\n got %s\nwant %s", got, exp)
	}
	if resp.Trend.Windows != 2 {
		t.Fatalf("windows = %d, want 2", resp.Trend.Windows)
	}
}

// TestAnalyticsEndpointsAsOf pins the three endpoints to an early
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

	eventsAt := func(asOf int) *analytics.EventsResult {
		code, data := postJSON(t, ts.URL+"/v1/events",
			EventsRequest{Attrs: []string{"gender"}, AsOf: asOf})
		if code != 200 {
			t.Fatalf("events as_of %d = %d: %s", asOf, code, data)
		}
		var resp EventsResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Events
	}
	live, pinned := eventsAt(0), eventsAt(head)
	if analyticsJSONBody(t, live) != analyticsJSONBody(t, pinned) {
		t.Fatal("explicit head pin diverges from live answer")
	}
	if live.Steps != 2 {
		t.Fatalf("live steps = %d, want 2", live.Steps)
	}
	if early := eventsAt(1); early.Steps != 0 || len(early.Rows) != 0 {
		t.Fatalf("as_of 1 should see a single point (0 steps), got %+v", early)
	}

	code, data := postJSON(t, ts.URL+"/v1/trend",
		TrendRequest{Attrs: []string{"gender"}, AsOf: 2})
	if code != 200 {
		t.Fatalf("trend as_of 2 = %d: %s", code, data)
	}
	var tr TrendResponse
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Trend.Windows != 2 {
		t.Fatalf("trend as_of 2 windows = %d, want 2", tr.Trend.Windows)
	}

	// Node resolution happens against the pinned view: u3 does not exist
	// until txn 2, so pinning before that is a compile error...
	code, data = postJSON(t, ts.URL+"/v1/paths",
		PathsRequest{From: []string{"u1"}, To: []string{"u3"}, AsOf: 1})
	if code != 400 || !strings.Contains(string(data), "unknown node") {
		t.Fatalf("paths as_of 1 to u3 = %d %s, want 400 unknown node", code, data)
	}
	// ...and pinning at txn 2 sees the u1 -t0-> u2 -t1-> u3 chain.
	code, data = postJSON(t, ts.URL+"/v1/paths",
		PathsRequest{From: []string{"u1"}, To: []string{"u3"}, AsOf: 2})
	if code != 200 {
		t.Fatalf("paths as_of 2 = %d: %s", code, data)
	}
	var pr PathsResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Paths.Reached != 1 {
		t.Fatalf("paths as_of 2 reached = %d, want 1", pr.Paths.Reached)
	}
}

// TestAnalyticsPlannerMetrics: executing each statement family bumps its
// planner selection counter in the exposition.
func TestAnalyticsPlannerMetrics(t *testing.T) {
	_, ts := newStaticServer(t)
	if code, data := postJSON(t, ts.URL+"/v1/events", EventsRequest{Attrs: []string{"gender"}}); code != 200 {
		t.Fatalf("events = %d: %s", code, data)
	}
	if code, data := postJSON(t, ts.URL+"/v1/paths", PathsRequest{From: []string{"u1"}, To: []string{"u4"}}); code != 200 {
		t.Fatalf("paths = %d: %s", code, data)
	}
	if code, data := postJSON(t, ts.URL+"/v1/trend", TrendRequest{Attrs: []string{"gender"}}); code != 200 {
		t.Fatalf("trend = %d: %s", code, data)
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
