package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
	"weak"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/evolution"
	"repro/internal/explore"
	"repro/internal/ops"
	"repro/internal/plan"
	"repro/internal/stream"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// newStaticServer serves the paper's running example in static mode.
func newStaticServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{Graph: core.PaperExample(), Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postJSON posts body as JSON and returns the status and response bytes.
func postJSON(t *testing.T, url string, body any, header ...string) (int, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func TestHealthAndReady(t *testing.T) {
	s, ts := newStaticServer(t)
	if code, _ := get(t, ts.URL+"/healthz"); code != 200 {
		t.Fatalf("healthz = %d", code)
	}
	if code, _ := get(t, ts.URL+"/readyz"); code != 200 {
		t.Fatalf("readyz = %d", code)
	}
	s.BeginDrain()
	if code, _ := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %d, want 503", code)
	}
	// healthz keeps answering during the drain (the process is alive).
	if code, _ := get(t, ts.URL+"/healthz"); code != 200 {
		t.Fatalf("draining healthz = %d", code)
	}
}

// TestAggregateMatchesFacade is the acceptance criterion: the server's
// aggregate graphs byte-match the library facade on the running example,
// on both the catalog path (union+ALL) and the scratch path.
func TestAggregateMatchesFacade(t *testing.T) {
	_, ts := newStaticServer(t)
	g := core.PaperExample()
	tl := g.Timeline()
	sch, err := agg.ByName(g, "gender")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		req  AggregateRequest
		want *agg.Graph
	}{
		{"union-all", AggregateRequest{Op: "union", Interval: IntervalSpec{From: "t0"}, Interval2: IntervalSpec{From: "t1"}, Attrs: []string{"gender"}, Kind: "all"},
			agg.Aggregate(ops.Union(g, tl.Point(0), tl.Point(1)), sch, agg.All)},
		{"union-dist", AggregateRequest{Op: "union", Interval: IntervalSpec{From: "t0"}, Interval2: IntervalSpec{From: "t1"}, Attrs: []string{"gender"}, Kind: "dist"},
			agg.Aggregate(ops.Union(g, tl.Point(0), tl.Point(1)), sch, agg.Distinct)},
		{"project-range", AggregateRequest{Op: "project", Interval: IntervalSpec{From: "t0", To: "t1"}, Attrs: []string{"gender"}},
			agg.Aggregate(ops.Project(g, tl.Range(0, 1)), sch, agg.Distinct)},
		{"intersection", AggregateRequest{Op: "intersection", Interval: IntervalSpec{From: "t0"}, Interval2: IntervalSpec{From: "t2"}, Attrs: []string{"gender"}},
			agg.Aggregate(ops.Intersection(g, tl.Point(0), tl.Point(2)), sch, agg.Distinct)},
		{"difference", AggregateRequest{Op: "difference", Interval: IntervalSpec{From: "t1"}, Interval2: IntervalSpec{From: "t0"}, Attrs: []string{"gender"}},
			agg.Aggregate(ops.Difference(g, tl.Point(1), tl.Point(0)), sch, agg.Distinct)},
	}
	for _, tc := range cases {
		code, data := postJSON(t, ts.URL+"/v1/aggregate", tc.req)
		if code != 200 {
			t.Fatalf("%s: status %d: %s", tc.name, code, data)
		}
		var resp AggregateResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := json.Marshal(tc.want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp.Graph, want) {
			t.Fatalf("%s: server graph %s\nfacade %s", tc.name, resp.Graph, want)
		}
	}
}

// TestAggregateCatalogSources checks that repeating a union+ALL request is
// answered from the cache and that materializing flips the source to
// t-distributive composition.
func TestAggregateCatalogSources(t *testing.T) {
	s, ts := newStaticServer(t)
	req := AggregateRequest{Op: "union", Interval: IntervalSpec{From: "t0"}, Interval2: IntervalSpec{From: "t1"}, Attrs: []string{"gender"}, Kind: "all"}
	src := func() string {
		code, data := postJSON(t, ts.URL+"/v1/aggregate", req)
		if code != 200 {
			t.Fatalf("status %d: %s", code, data)
		}
		var resp AggregateResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Source
	}
	if got := src(); got != "scratch" {
		t.Fatalf("first answer source = %q, want scratch", got)
	}
	if got := src(); got != "cached" {
		t.Fatalf("second answer source = %q, want cached", got)
	}
	// Materialize the per-point store, then a fresh interval composes.
	gid, _ := s.cur.Load().Graph.AttrByName("gender")
	if _, err := s.cur.Load().Catalog.Materialize(gid); err != nil {
		t.Fatal(err)
	}
	req.Interval2 = IntervalSpec{From: "t2"}
	if got := src(); got != "t-distributive" {
		t.Fatalf("post-materialization source = %q, want t-distributive", got)
	}
}

func TestExploreMatchesEngine(t *testing.T) {
	_, ts := newStaticServer(t)
	g := core.PaperExample()
	sch, err := agg.ByName(g, "gender")
	if err != nil {
		t.Fatal(err)
	}
	ex := &explore.Explorer{Graph: g, Schema: sch, Kind: agg.Distinct, Result: explore.TotalEdges}
	want := ex.Explore(evolution.Stability, explore.UnionSemantics, explore.ExtendNew, 2)

	code, data := postJSON(t, ts.URL+"/v1/explore", ExploreRequest{
		Event: "stability", Semantics: "union", Extend: "new", K: 2, Attrs: []string{"gender"},
	})
	if code != 200 {
		t.Fatalf("status %d: %s", code, data)
	}
	var resp ExploreResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Pairs) != len(want) {
		t.Fatalf("got %d pairs, want %d: %s", len(resp.Pairs), len(want), data)
	}
	for i, p := range want {
		if resp.Pairs[i].Old != p.Old.String() || resp.Pairs[i].New != p.New.String() || resp.Pairs[i].Result != p.Result {
			t.Fatalf("pair %d = %+v, want %v", i, resp.Pairs[i], p)
		}
	}
	if resp.Evaluations == 0 {
		t.Fatal("no evaluations reported")
	}
}

func TestTGQLEndpoint(t *testing.T) {
	_, ts := newStaticServer(t)
	g := core.PaperExample()
	code, data := postJSON(t, ts.URL+"/v1/tgql", TGQLRequest{Query: "AGG DIST gender ON UNION(t0, t1)"})
	if code != 200 {
		t.Fatalf("status %d: %s", code, data)
	}
	var resp TGQLResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	sch, _ := agg.ByName(g, "gender")
	want, _ := json.Marshal(agg.Aggregate(ops.Union(g, g.Timeline().Point(0), g.Timeline().Point(1)), sch, agg.Distinct))
	if !bytes.Equal(resp.Graph, want) {
		t.Fatalf("tgql graph %s, want %s", resp.Graph, want)
	}
	if resp.Text == "" {
		t.Fatal("empty rendered text")
	}

	// Parse errors map to 400 with the error envelope.
	code, data = postJSON(t, ts.URL+"/v1/tgql", TGQLRequest{Query: "AGG NONSENSE"})
	if code != http.StatusBadRequest {
		t.Fatalf("parse error status = %d: %s", code, data)
	}
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil || eb.Error.Code == "" || eb.Error.Message == "" {
		t.Fatalf("malformed error envelope: %s", data)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newStaticServer(t)
	cases := []struct {
		name string
		body any
	}{
		{"unknown-op", AggregateRequest{Op: "median", Interval: IntervalSpec{From: "t0"}, Interval2: IntervalSpec{From: "t1"}, Attrs: []string{"gender"}}},
		{"unknown-attr", AggregateRequest{Op: "union", Interval: IntervalSpec{From: "t0"}, Interval2: IntervalSpec{From: "t1"}, Attrs: []string{"salary"}}},
		{"unknown-point", AggregateRequest{Op: "union", Interval: IntervalSpec{From: "t9"}, Interval2: IntervalSpec{From: "t1"}, Attrs: []string{"gender"}}},
		{"bad-kind", AggregateRequest{Op: "union", Interval: IntervalSpec{From: "t0"}, Interval2: IntervalSpec{From: "t1"}, Attrs: []string{"gender"}, Kind: "most"}},
		{"missing-interval", AggregateRequest{Op: "union", Attrs: []string{"gender"}}},
		{"bad-k", ExploreRequest{Event: "stability", K: 0, Attrs: []string{"gender"}}},
		{"bad-event", ExploreRequest{Event: "implosion", K: 1, Attrs: []string{"gender"}}},
	}
	for _, tc := range cases {
		url := ts.URL + "/v1/aggregate"
		if _, isExplore := tc.body.(ExploreRequest); isExplore {
			url = ts.URL + "/v1/explore"
		}
		code, data := postJSON(t, url, tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.name, code, data)
		}
		var eb errorBody
		if err := json.Unmarshal(data, &eb); err != nil || eb.Error.Code == "" || eb.Error.Message == "" {
			t.Errorf("%s: malformed error envelope: %s", tc.name, data)
		}
	}
}

func TestIngestStaticModeConflicts(t *testing.T) {
	_, ts := newStaticServer(t)
	code, data := postJSON(t, ts.URL+"/v1/ingest", IngestRequest{Label: "t3"})
	if code != http.StatusConflict {
		t.Fatalf("static ingest = %d, want 409: %s", code, data)
	}
}

// TestStreamModeLifecycle drives a stream-mode server from empty through
// ingestion: readyz flips to ready, queries see each new point, and the
// served aggregate byte-matches the facade on the materialized series.
func TestStreamModeLifecycle(t *testing.T) {
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

	if code, _ := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("empty readyz = %d, want 503", code)
	}
	code, data := postJSON(t, ts.URL+"/v1/aggregate", AggregateRequest{Op: "project", Interval: IntervalSpec{From: "t0"}, Attrs: []string{"gender"}})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("empty aggregate = %d, want 503: %s", code, data)
	}

	snaps := []IngestRequest{
		{Label: "t0",
			Nodes: []IngestNode{
				{Label: "u1", Static: map[string]string{"gender": "m"}, Varying: map[string]string{"publications": "3"}},
				{Label: "u2", Static: map[string]string{"gender": "f"}, Varying: map[string]string{"publications": "1"}},
			},
			Edges: []IngestEdge{{U: "u1", V: "u2"}}},
		{Label: "t1",
			Nodes: []IngestNode{
				{Label: "u1", Static: map[string]string{"gender": "m"}, Varying: map[string]string{"publications": "1"}},
				{Label: "u2", Static: map[string]string{"gender": "f"}, Varying: map[string]string{"publications": "1"}},
				{Label: "u3", Static: map[string]string{"gender": "f"}, Varying: map[string]string{"publications": "2"}},
			},
			Edges: []IngestEdge{{U: "u1", V: "u2"}, {U: "u2", V: "u3"}}},
	}
	for i, snap := range snaps {
		code, data := postJSON(t, ts.URL+"/v1/ingest", snap)
		if code != 200 {
			t.Fatalf("ingest %s: %d: %s", snap.Label, code, data)
		}
		var ir IngestResponse
		if err := json.Unmarshal(data, &ir); err != nil {
			t.Fatal(err)
		}
		if ir.Points != i+1 {
			t.Fatalf("ingest %s: points = %d, want %d", snap.Label, ir.Points, i+1)
		}
	}
	if code, _ := get(t, ts.URL+"/readyz"); code != 200 {
		t.Fatalf("readyz after ingest = %d", code)
	}

	code, data = postJSON(t, ts.URL+"/v1/aggregate", AggregateRequest{
		Op: "union", Interval: IntervalSpec{From: "t0"}, Interval2: IntervalSpec{From: "t1"},
		Attrs: []string{"gender"}, Kind: "all",
	})
	if code != 200 {
		t.Fatalf("stream aggregate = %d: %s", code, data)
	}
	var resp AggregateResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	g, err := series.Graph()
	if err != nil {
		t.Fatal(err)
	}
	sch, _ := agg.ByName(g, "gender")
	want, _ := json.Marshal(agg.Aggregate(ops.Union(g, g.Timeline().Point(0), g.Timeline().Point(1)), sch, agg.All))
	if !bytes.Equal(resp.Graph, want) {
		t.Fatalf("stream graph %s, want %s", resp.Graph, want)
	}

	// Duplicate label is a client error.
	if code, _ := postJSON(t, ts.URL+"/v1/ingest", snaps[0]); code != http.StatusBadRequest {
		t.Fatalf("duplicate ingest = %d, want 400", code)
	}
}

// TestOverloadSheds fills the admission semaphore and checks that the
// excess request is shed with 429 + Retry-After, and that a queued request
// whose deadline expires maps to 504.
func TestOverloadSheds(t *testing.T) {
	s, err := New(Config{Graph: core.PaperExample(), MaxInflight: 1, MaxQueue: 1, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the whole capacity from the outside.
	if err := s.adm.acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}

	req := AggregateRequest{Op: "union", Interval: IntervalSpec{From: "t0"}, Interval2: IntervalSpec{From: "t1"}, Attrs: []string{"gender"}}

	// First request fills the queue and times out at its deadline → 504.
	type result struct {
		code int
		data []byte
	}
	queued := make(chan result, 1)
	go func() {
		code, data := postJSON(t, ts.URL+"/v1/aggregate", req, "X-Deadline-Ms", "300")
		queued <- result{code, data}
	}()
	waitForQueue(t, s.adm, 1)

	// Second request overflows the queue → 429 with Retry-After.
	buf, _ := json.Marshal(req)
	hr, err := http.Post(ts.URL+"/v1/aggregate", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429", hr.StatusCode)
	}
	if hr.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	if r := <-queued; r.code != http.StatusGatewayTimeout {
		t.Fatalf("queued deadline status = %d, want 504: %s", r.code, r.data)
	}

	// Capacity released: requests flow again.
	s.adm.release(1)
	if code, data := postJSON(t, ts.URL+"/v1/aggregate", req); code != 200 {
		t.Fatalf("after release: %d: %s", code, data)
	}

	// The shed and 504 are visible in the metrics.
	_, metricsBody := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		`graphtempod_shed_total{endpoint="aggregate"} 1`,
		`graphtempod_requests_total{code="429",endpoint="aggregate"} 1`,
		`graphtempod_requests_total{code="504",endpoint="aggregate"} 1`,
	} {
		if !strings.Contains(string(metricsBody), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestDeadlinePropagation checks that an already-expired client deadline
// aborts the engine call and maps to 504.
func TestDeadlinePropagation(t *testing.T) {
	s, err := New(Config{Graph: core.PaperExample(), RequestTimeout: time.Nanosecond, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, data := postJSON(t, ts.URL+"/v1/aggregate", AggregateRequest{
		Op: "union", Interval: IntervalSpec{From: "t0"}, Interval2: IntervalSpec{From: "t1"}, Attrs: []string{"gender"}, Kind: "dist",
	})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline status = %d, want 504: %s", code, data)
	}
	// TGQL statements honor the same deadline (not reported as a 400
	// statement error).
	code, data = postJSON(t, ts.URL+"/v1/tgql", TGQLRequest{Query: "EXPLORE STABILITY BY gender K 2"})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("expired tgql deadline status = %d, want 504: %s", code, data)
	}
}

// TestClientDeadlineHeader: X-Deadline-Ms only ever lowers the server's
// cap. A value at or above it — even one too large for a time.Duration —
// keeps the cap, and a malformed or non-positive one is ignored.
func TestClientDeadlineHeader(t *testing.T) {
	s, ts := newStaticServer(t)
	ag := AggregateRequest{Op: "union", Interval: IntervalSpec{From: "t0"}, Interval2: IntervalSpec{From: "t1"}, Attrs: []string{"gender"}}
	for _, c := range []struct {
		header string
		want   time.Duration
	}{
		{"9223372036854775807", 30 * time.Second}, // overflowed to -1ms
		{"9300000000000", 30 * time.Second},       // overflowed to a negative duration
		{"30000", 30 * time.Second},
		{"29999", 29999 * time.Millisecond},
		{"5000", 5 * time.Second},
		{"0", 30 * time.Second},
		{"-5", 30 * time.Second},
		{"soon", 30 * time.Second},
	} {
		r := httptest.NewRequest(http.MethodPost, "/v1/aggregate", nil)
		r.Header.Set("X-Deadline-Ms", c.header)
		if got := s.deadlineFor(r); got != c.want {
			t.Errorf("X-Deadline-Ms %s: deadline %v, want %v", c.header, got, c.want)
		}
		if code, data := postJSON(t, ts.URL+"/v1/aggregate", ag, "X-Deadline-Ms", c.header); code != http.StatusOK {
			t.Errorf("X-Deadline-Ms %s: status %d, want 200: %s", c.header, code, data)
		}
	}
}

// TestWorkersClamped checks that a client cannot dictate engine
// parallelism: the planner alone decides it, so no query endpoint declares
// a workers field and a body that still carries one is a 400 naming it,
// like any other unknown field.
func TestWorkersClamped(t *testing.T) {
	s, _ := newStaticServer(t)
	for path, body := range map[string]string{
		"/v1/aggregate": `{"op":"union","interval":{"from":"t0"},"interval2":{"from":"t1"},"attrs":["gender"],"workers":2}`,
		"/v1/explore":   `{"event":"stability","k":2,"attrs":["gender"],"workers":2}`,
		"/v1/tgql":      `{"query":"EVENTS DIST BY gender","workers":2}`,
		"/v1/explain":   `{"query":"PATHS EARLIEST FROM u1 TO u2","workers":2}`,
	} {
		rec := post(s.Handler(), path, body)
		want := `{"error":{"code":"bad_request","message":"bad request body: json: unknown field \"workers\""}}` + "\n"
		if rec.Code != http.StatusBadRequest || rec.Body.String() != want {
			t.Errorf("%s with workers = %d %s, want 400 %s", path, rec.Code, rec.Body, want)
		}
	}
}

// TestOneQueryOneCacheEntry: parallelism is the planner's call, not part of
// the query, so one aggregate asked on /v1/aggregate and then as TGQL is one
// plan — one cache miss, then hits — and EXPLAIN renders the same plan
// whichever entry point's form it is compiled from.
func TestOneQueryOneCacheEntry(t *testing.T) {
	s, _ := newStaticServer(t)
	const (
		wire = `{"op":"union","interval":{"from":"t0"},"interval2":{"from":"t1"},"attrs":["gender"],"kind":"all"}`
		stmt = "AGG ALL gender ON UNION(t0, t1)"
	)
	misses, hits := plan.CacheMisses.Value(), plan.CacheHits.Value()
	if rec := post(s.Handler(), "/v1/aggregate", wire); rec.Code != http.StatusOK {
		t.Fatalf("aggregate = %d %s", rec.Code, rec.Body)
	}
	if got := plan.CacheMisses.Value() - misses; got != 1 {
		t.Fatalf("aggregate: %d cache misses, want 1", got)
	}
	rec := post(s.Handler(), "/v1/explain", `{"query":"`+stmt+`"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("explain = %d %s", rec.Code, rec.Body)
	}
	if rec := post(s.Handler(), "/v1/tgql", `{"query":"`+stmt+`"}`); rec.Code != http.StatusOK {
		t.Fatalf("tgql = %d %s", rec.Code, rec.Body)
	}
	if m, h := plan.CacheMisses.Value()-misses, plan.CacheHits.Value()-hits; m != 1 || h != 2 || s.cur.Load().Plans.Len() != 1 {
		t.Fatalf("one query took %d misses, %d hits, %d cache entries; want 1, 2, 1", m, h, s.cur.Load().Plans.Len())
	}

	var req AggregateRequest
	if err := json.Unmarshal([]byte(wire), &req); err != nil {
		t.Fatal(err)
	}
	q, err := decodeAggregate(&req)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.current()
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Compile(plan.Env{Graph: st.Graph, Catalog: st.Catalog}, q.stmt.Node)
	if err != nil {
		t.Fatal(err)
	}
	var explained ExplainResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &explained); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(explained.Plan, "workers") || explained.Plan != p.Explain() {
		t.Fatalf("EXPLAIN of the TGQL form:\n%s\nof the wire form:\n%s", explained.Plan, p.Explain())
	}
}

// TestTrailingDataRejected: a body is exactly one request object. Trailing
// whitespace is fine; anything else after the object — garbage or a second
// object — is a 400 rather than an answer to the first object.
func TestTrailingDataRejected(t *testing.T) {
	s, _ := newStaticServer(t)
	const obj = `{"op":"union","interval":{"from":"t0"},"interval2":{"from":"t1"},"attrs":["gender"]}`
	for _, tc := range []struct {
		body string
		code int
	}{
		{obj, http.StatusOK},
		{obj + " \n\t", http.StatusOK},
		{obj + " trailing", http.StatusBadRequest},
		{obj + obj, http.StatusBadRequest},
		{obj + "}", http.StatusBadRequest},
	} {
		rec := post(s.Handler(), "/v1/aggregate", tc.body)
		if rec.Code != tc.code {
			t.Errorf("%q = %d %s, want %d", tc.body, rec.Code, rec.Body, tc.code)
		}
		if tc.code == http.StatusBadRequest && !strings.Contains(rec.Body.String(), "unexpected data after the request object") {
			t.Errorf("%q: %s does not name the trailing data", tc.body, rec.Body)
		}
	}
}

// TestPanicIsolation checks the recovery middleware: a panicking handler
// yields a 500 JSON envelope and moves the panic counter, without killing
// the server.
func TestPanicIsolation(t *testing.T) {
	var logs syncBuffer
	s, err := New(Config{Graph: core.PaperExample(), Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	if err != nil {
		t.Fatal(err)
	}
	h := s.api("aggregate", func(ctx context.Context, w *statusWriter, r *http.Request) (int, error) {
		panic("boom")
	})
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/aggregate", strings.NewReader("{}"))
	req.Header.Set("X-Request-Id", "the-one-that-panicked")
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panic status = %d, want 500", rec.Code)
	}
	if !strings.Contains(logs.String(), `msg="handler panic" endpoint=aggregate request_id=the-one-that-panicked`) {
		t.Errorf("panic log does not carry the request id: %s", logs.String())
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error.Code == "" || eb.Error.Message == "" {
		t.Fatalf("malformed panic envelope: %s", rec.Body.Bytes())
	}
	if got := s.panics.Value(); got != 1 {
		t.Fatalf("panics counter = %d, want 1", got)
	}
}

// TestMetricsExposition drives every endpoint once and asserts the
// taxonomy's key series are present and moving.
func TestMetricsExposition(t *testing.T) {
	_, ts := newStaticServer(t)
	postJSON(t, ts.URL+"/v1/aggregate", AggregateRequest{Op: "union", Interval: IntervalSpec{From: "t0"}, Interval2: IntervalSpec{From: "t1"}, Attrs: []string{"gender"}, Kind: "all"})
	postJSON(t, ts.URL+"/v1/explore", ExploreRequest{Event: "stability", K: 2, Attrs: []string{"gender"}})
	postJSON(t, ts.URL+"/v1/tgql", TGQLRequest{Query: "STATS"})

	code, body := get(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	text := string(body)
	for _, want := range []string{
		`graphtempod_requests_total{code="200",endpoint="aggregate"} 1`,
		`graphtempod_requests_total{code="200",endpoint="explore"} 1`,
		`graphtempod_requests_total{code="200",endpoint="tgql"} 1`,
		"# TYPE graphtempod_request_seconds histogram",
		`graphtempod_request_seconds_count{endpoint="aggregate"} 1`,
		"# TYPE graphtempod_stage_seconds histogram",
		`graphtempod_stage_seconds_count{endpoint="aggregate",stage="admission"} 1`,
		`graphtempod_stage_seconds_count{endpoint="aggregate",stage="exec"} 1`,
		`graphtempod_stage_seconds_count{endpoint="explore",stage="compile"} 1`,
		// STATS has no plan: its request never reaches compile or exec.
		`graphtempod_stage_seconds_count{endpoint="tgql",stage="compile"} 0`,
		`graphtempod_stage_seconds_count{endpoint="tgql",stage="encode"} 1`,
		"# TYPE graphtempod_catalog_answers_total counter",
		"# TYPE graphtempod_inflight gauge",
		"graphtempod_panics_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Contains(text, "graphtempod_planner_feedback_total") {
		t.Error("the deleted planner feedback counter is still exported")
	}
	// The union+ALL request was answered by the catalog: one non-zero
	// source counter must be present.
	if !strings.Contains(text, `graphtempod_catalog_answers_total{source="scratch"} 1`) {
		t.Errorf("catalog scratch answer not counted:\n%s", grepMetrics(text, "catalog_answers"))
	}
	// The explore request moved the engine's evaluation counter.
	if strings.Contains(text, "graphtempod_explorer_evaluations_total 0\n") {
		t.Error("explorer evaluations not counted")
	}
	if !strings.Contains(text, "graphtempod_explorer_evaluations_total") {
		t.Error("explorer evaluations series missing")
	}
}

// TestGraphIndexBytesGauge: the serving graph's point index and its
// schemas' tuple-code rows are visible. A built graph transposes the index
// on first use — only the multi-appearance sets before a scan, every column
// after one — while a
// streamed graph is handed its columns at ingest; a scan on a time-varying
// attribute decodes one code row per point of its interval. Time-varying
// values are stored, not derived, so no other index is reported.
func TestGraphIndexBytesGauge(t *testing.T) {
	metricsText := func(url string) string {
		_, body := get(t, url+"/metrics")
		return string(body)
	}
	gauge := func(url string) string {
		return strings.TrimSpace(grepMetrics(metricsText(url), `graphtempod_graph_index_bytes{index="points"}`))
	}
	rowBytes := func(url string) int {
		line := strings.TrimSpace(grepMetrics(metricsText(url), `graphtempod_graph_index_bytes{index="tuple_rows"}`))
		n, err := strconv.Atoi(line[strings.LastIndexByte(line, ' ')+1:])
		if err != nil {
			t.Fatalf("tuple_rows gauge %q: %v", line, err)
		}
		return n
	}
	scan := AggregateRequest{Op: "intersection", Interval: IntervalSpec{From: "t0"}, Interval2: IntervalSpec{From: "t1"},
		Attrs: []string{"publications"}, Kind: "dist"}

	_, ts := newStaticServer(t)
	if got, want := gauge(ts.URL), `graphtempod_graph_index_bytes{index="points"} 16`; got != want {
		t.Errorf("before any scan: %q, want %q", got, want)
	}
	before := rowBytes(ts.URL)
	if code, data := postJSON(t, ts.URL+"/v1/aggregate", scan); code != 200 {
		t.Fatalf("aggregate = %d: %s", code, data)
	}
	// PaperExample: 3 points plus the multi-appearance sets × (5 nodes + 6
	// edges → one word each) × 8 bytes.
	if got, want := gauge(ts.URL), `graphtempod_graph_index_bytes{index="points"} 64`; got != want {
		t.Errorf("after a scan: %q, want %q", got, want)
	}
	// Rows for t0 and t1, 5 nodes × 8 bytes each, plus a scan record per
	// (point, side). A DIST scan groups each: one word, so two 4-byte word
	// starts, and 16 bytes per group — nodes: t0 u1 (3), u2 (1), u4 (2); t1
	// u1, u2, u4 under (1); edges: t0 u1→u2 (3→1), u2→u4 (1→2); t1 u1→u2,
	// u2→u4 under (1→1). The intersection selects every single node of t1 —
	// it has none — so that side's aggregate of singles is built, with no
	// code: 0 bytes. 80 + 4·8 + 7·16 = 224.
	if got := rowBytes(ts.URL) - before; got != 224 {
		t.Errorf("the scan added %d bytes of tuple-code rows and scan records, want 224", got)
	}

	_, sts := newStreamServer(t, Config{})
	for i := 0; i < 3; i++ {
		ingestPoint(t, sts.URL, i)
	}
	if code, data := postJSON(t, sts.URL+"/v1/aggregate", scan); code != 200 {
		t.Fatalf("stream aggregate = %d: %s", code, data)
	}
	if got, want := gauge(sts.URL), `graphtempod_graph_index_bytes{index="points"} 64`; got != want {
		t.Errorf("streamed graph: %q, want %q", got, want)
	}
	for _, url := range []string{ts.URL, sts.URL} {
		if text := metricsText(url); strings.Contains(text, "varying_rows") {
			t.Errorf("/metrics still reports a varying_rows series:\n%s", grepMetrics(text, "varying_rows"))
		}
	}
}

// TestIngestReleasesOldRows: a retired ingest generation is unreachable once
// the next one replaces it. Each serving state owns its plan cache, so no
// plan bound to a retired graph outlives that graph's state, and no
// retired graph keeps the tuple-code rows its scans built.
func TestIngestReleasesOldRows(t *testing.T) {
	s, ts := newStreamServer(t, Config{})
	var gens []weak.Pointer[core.Graph]
	for i := 0; i < 8; i++ {
		ingestPoint(t, ts.URL, i)
		scan := AggregateRequest{Op: "intersection", Interval: IntervalSpec{From: "t0", To: fmt.Sprintf("t%d", i)},
			Interval2: IntervalSpec{From: fmt.Sprintf("t%d", i)}, Attrs: []string{"gender", "publications"}, Kind: "dist"}
		if code, data := postJSON(t, ts.URL+"/v1/aggregate", scan); code != 200 {
			t.Fatalf("aggregate = %d: %s", code, data)
		}
		g := s.cur.Load().Graph
		if agg.TupleRowBytes(g) == 0 {
			t.Fatalf("generation %d: the scan built no tuple-code rows", i)
		}
		gens = append(gens, weak.Make(g))
	}
	for range 3 {
		runtime.GC()
	}
	for i, w := range gens[:len(gens)-1] {
		if g := w.Value(); g != nil {
			t.Errorf("retired generation %d is still reachable (%d bytes of tuple-code rows)", i, agg.TupleRowBytes(g))
		}
	}
}

// TestIngestStartsAnEmptyPlanCache: a query asked again after an ingest
// compiles against the new generation — one more plan-cache miss — even
// though its intervals end before the appended point.
func TestIngestStartsAnEmptyPlanCache(t *testing.T) {
	_, ts := newStreamServer(t, Config{})
	ingestPoint(t, ts.URL, 0)
	ingestPoint(t, ts.URL, 1)
	q := TGQLRequest{Query: "AGG DIST gender ON INTERSECT(t0, t1)"}
	ask := func() (misses, hits int64) {
		t.Helper()
		m, h := plan.CacheMisses.Value(), plan.CacheHits.Value()
		if code, data := postJSON(t, ts.URL+"/v1/tgql", q); code != http.StatusOK {
			t.Fatalf("tgql = %d: %s", code, data)
		}
		return plan.CacheMisses.Value() - m, plan.CacheHits.Value() - h
	}
	if m, _ := ask(); m != 1 {
		t.Fatalf("first ask: %d misses, want 1", m)
	}
	if m, h := ask(); m != 0 || h != 1 {
		t.Fatalf("second ask: %d misses, %d hits, want 0, 1", m, h)
	}
	ingestPoint(t, ts.URL, 2)
	if m, h := ask(); m != 1 || h != 0 {
		t.Fatalf("after an ingest: %d misses, %d hits, want 1, 0", m, h)
	}
}

func grepMetrics(text, substr string) string {
	var b strings.Builder
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, substr) {
			fmt.Fprintln(&b, line)
		}
	}
	return b.String()
}

// TestExplainEndpoint checks POST /v1/explain: the plan text names the
// selected operators, compilation errors map to 400, and explaining a
// query executes nothing (the catalog stays untouched).
func TestExplainEndpoint(t *testing.T) {
	_, ts := newStaticServer(t)
	code, data := postJSON(t, ts.URL+"/v1/explain", ExplainRequest{Query: "AGG ALL gender ON UNION(t0, t1)"})
	if code != 200 {
		t.Fatalf("explain = %d: %s", code, data)
	}
	var resp ExplainResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(resp.Plan, "plan: AGG ALL gender ON UNION(t0, t1)") {
		t.Errorf("plan header missing:\n%s", resp.Plan)
	}
	if !strings.Contains(resp.Plan, "CatalogUnionAll") {
		t.Errorf("union-ALL plan does not route through the catalog:\n%s", resp.Plan)
	}

	// A leading EXPLAIN keyword is accepted (clients may forward REPL text).
	code, data = postJSON(t, ts.URL+"/v1/explain", ExplainRequest{Query: "EXPLAIN EXPLORE STABILITY BY gender K 2"})
	if code != 200 || !strings.Contains(string(data), "FastExplore") {
		t.Errorf("explain of EXPLAIN-prefixed explore = %d: %s", code, data)
	}

	// EXPLAIN ANALYZE executes the statement, so it is /v1/tgql's: here it
	// is a 400, and nothing runs.
	code, data = postJSON(t, ts.URL+"/v1/explain", ExplainRequest{Query: "EXPLAIN ANALYZE AGG ALL gender ON UNION(t0, t1)"})
	if code != http.StatusBadRequest || !strings.Contains(string(data), "/v1/tgql") {
		t.Errorf("explain of EXPLAIN ANALYZE = %d, want 400 pointing at /v1/tgql: %s", code, data)
	}

	// Compile-only: no catalog answer was produced by any explain above.
	if _, body := get(t, ts.URL+"/metrics"); !strings.Contains(string(body),
		`graphtempod_catalog_answers_total{source="scratch"} 0`) {
		t.Error("explain executed a catalog query")
	}

	for _, bad := range []ExplainRequest{
		{},                                       // missing query
		{Query: "AGG ALL nope ON UNION(t0, t1)"}, // unknown attribute
		{Query: "EXPLAIN STATS"},                 // no query plan for STATS
		{Query: "FROB"},                          // parse error
	} {
		if code, data := postJSON(t, ts.URL+"/v1/explain", bad); code != http.StatusBadRequest {
			t.Errorf("explain %+v = %d, want 400: %s", bad, code, data)
		}
	}
}

// TestPlannerMetrics checks that planner operator selections and plan
// cache lookups surface at /metrics. The counters are package-global
// (shared with other tests in this run), so assertions are non-zero
// presence, not exact values.
func TestPlannerMetrics(t *testing.T) {
	_, ts := newStaticServer(t)
	ag := AggregateRequest{Op: "union", Interval: IntervalSpec{From: "t0"}, Interval2: IntervalSpec{From: "t1"}, Attrs: []string{"gender"}, Kind: "all"}
	if code, data := postJSON(t, ts.URL+"/v1/aggregate", ag); code != 200 {
		t.Fatalf("aggregate = %d: %s", code, data)
	}
	// Same canonical query again: the second compile is a plan-cache hit.
	if code, _ := postJSON(t, ts.URL+"/v1/aggregate", ag); code != 200 {
		t.Fatal("repeat aggregate failed")
	}
	if code, _ := postJSON(t, ts.URL+"/v1/aggregate", AggregateRequest{
		Op: "project", Interval: IntervalSpec{From: "t0", To: "t1"}, Attrs: []string{"gender"}}); code != 200 {
		t.Fatal("project aggregate failed")
	}
	if code, _ := postJSON(t, ts.URL+"/v1/explore", ExploreRequest{Event: "stability", K: 2, Attrs: []string{"gender"}}); code != 200 {
		t.Fatal("explore failed")
	}
	if code, _ := postJSON(t, ts.URL+"/v1/tgql", TGQLRequest{Query: "TIMELINE BY gender"}); code != 200 {
		t.Fatal("tgql timeline failed")
	}

	_, body := get(t, ts.URL+"/metrics")
	text := string(body)
	for _, re := range []string{
		`graphtempod_planner_selections_total\{op="catalog-union"\} [1-9]`,
		`graphtempod_planner_selections_total\{op="dense-agg"\} [1-9]`,
		`graphtempod_planner_selections_total\{op="fast-explore"\} [1-9]`,
		`graphtempod_planner_selections_total\{op="timeline"\} [1-9]`,
		`graphtempod_plan_cache_total\{result="miss"\} [1-9]`,
		`graphtempod_plan_cache_total\{result="hit"\} [1-9]`,
	} {
		if !regexp.MustCompile(re).MatchString(text) {
			t.Errorf("metrics missing %s:\n%s", re, grepMetrics(text, "planner_selections|plan_cache"))
		}
	}
}
