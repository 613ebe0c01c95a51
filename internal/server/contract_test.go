package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/tgql"
)

// queryEndpoints is every query endpoint with, on the paper's running
// example, a request that answers 200, one that names something the graph
// lacks, and — where the endpoint can carry one — requests for statements
// whose answer spans the whole timeline.
var queryEndpoints = []struct {
	path          string
	statement     bool // carries TGQL text: resolution errors name line:col
	ok            any
	unresolvable  any
	wholeTimeline []any
}{
	{path: "/v1/aggregate",
		ok:           AggregateRequest{Op: "union", Interval: IntervalSpec{From: "t0"}, Interval2: IntervalSpec{From: "t1"}, Attrs: []string{"gender"}, Kind: "all"},
		unresolvable: AggregateRequest{Op: "union", Interval: IntervalSpec{From: "t9"}, Interval2: IntervalSpec{From: "t1"}, Attrs: []string{"gender"}}},
	{path: "/v1/explore",
		ok:           ExploreRequest{Event: "stability", Semantics: "union", Extend: "old", K: 1, Attrs: []string{"gender"}},
		unresolvable: ExploreRequest{Event: "implosion", Semantics: "union", Extend: "old", K: 1, Attrs: []string{"gender"}}},
	{path: "/v1/tgql", statement: true,
		ok:           TGQLRequest{Query: "AGG DIST gender ON UNION(t0, t1)"},
		unresolvable: TGQLRequest{Query: "AGG DIST gender ON UNION(t0, t9)"},
		wholeTimeline: []any{
			TGQLRequest{Query: "EVENTS DIST BY gender"},
			TGQLRequest{Query: "events all by gender width 2 min 1"},
			TGQLRequest{Query: "PATHS FASTEST FROM u1 TO u2 DURING t0..t1"},
			TGQLRequest{Query: "TREND ALL BY gender WIDTH 2"},
			TGQLRequest{Query: "EXPLAIN EVENTS DIST BY gender"},
			TGQLRequest{Query: "EXPLAIN PATHS EARLIEST FROM u1 TO u2"},
			TGQLRequest{Query: "EXPLAIN TREND ALL BY gender"},
		}},
	{path: "/v1/explain", statement: true,
		ok:           ExplainRequest{Query: "AGG DIST gender ON UNION(t0, t1)"},
		unresolvable: ExplainRequest{Query: "EXPLAIN AGG DIST gender ON UNION(t0, t9)"},
		wholeTimeline: []any{
			ExplainRequest{Query: "EVENTS DIST BY gender"},
			ExplainRequest{Query: "PATHS EARLIEST FROM u1 TO u2"},
			ExplainRequest{Query: "EXPLAIN TREND ALL BY gender WIDTH 2"},
		}},
}

// slowBody delivers a request body only after a delay — a client slower
// than the deadline it asked for.
type slowBody struct {
	delay time.Duration
	io.Reader
}

func (b *slowBody) Read(p []byte) (int, error) {
	time.Sleep(b.delay)
	b.delay = 0
	return b.Reader.Read(p)
}

// paperHandler serves the paper's running example under cfg.
func paperHandler(t *testing.T, cfg Config) http.Handler {
	t.Helper()
	cfg.Graph, cfg.Logger = core.PaperExample(), quietLogger()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s.Handler()
}

func marshalBody(t *testing.T, v any) io.Reader {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(buf)
}

// expectReply posts body to path on h and checks the status, the envelope
// code and that the message contains every fragment.
func expectReply(t *testing.T, name string, h http.Handler, path string, body io.Reader, status int, code string, fragments ...string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, body)
	if _, slow := body.(*slowBody); slow {
		req.Header.Set("X-Deadline-Ms", "1")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != status {
		t.Errorf("%s %s: status %d, want %d: %s", path, name, rec.Code, status, rec.Body)
		return
	}
	if status == http.StatusOK {
		return
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error.Code != code {
		t.Errorf("%s %s: envelope %s, want code %q", path, name, rec.Body, code)
	}
	for _, f := range fragments {
		if !strings.Contains(eb.Error.Message, f) {
			t.Errorf("%s %s: message %q does not contain %q", path, name, eb.Error.Message, f)
		}
	}
}

// TestQueryEndpointContract holds every query endpoint to the one pipeline's
// contract: whichever endpoint a fault arrives at, it maps to the same status
// and envelope code, because one serve — not one handler per endpoint — decides.
// (TestPartialRejectsAnalytics is the table's partial-shard column.)
func TestQueryEndpointContract(t *testing.T) {
	static, small := paperHandler(t, Config{}), paperHandler(t, Config{MaxBodyBytes: 256})
	empty, err := New(Config{Series: stream.New(core.PaperExample().Attrs()...), Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	for _, ep := range queryEndpoints {
		expectReply(t, "ok", static, ep.path, marshalBody(t, ep.ok), 200, "")
		expectReply(t, "malformed JSON", static, ep.path, strings.NewReader(`{"`), 400, "bad_request", "bad request body")
		expectReply(t, "unknown field", static, ep.path, strings.NewReader(`{"no_such_field":1}`), 400, "bad_request", "unknown field")
		expectReply(t, "oversize body", small, ep.path,
			io.MultiReader(strings.NewReader(strings.Repeat(" ", 4096)), marshalBody(t, ep.ok)),
			413, "body_too_large", "256-byte limit")
		expectReply(t, "no points yet", empty.Handler(), ep.path, marshalBody(t, ep.ok), 503, "unavailable", "no time points")
		position := ""
		if ep.statement {
			position = "tgql: 1:" // line:col of the offending token
		}
		expectReply(t, "unresolvable", static, ep.path, marshalBody(t, ep.unresolvable), 400, "bad_request", position)
		expectReply(t, "slow client", static, ep.path, &slowBody{delay: 20 * time.Millisecond, Reader: marshalBody(t, ep.ok)},
			504, "deadline_exceeded")
	}
}

// TestPartialRejectsAnalytics: a daemon serving one time-range shard refuses
// whole-timeline statements at every entry point, bare and under EXPLAIN,
// with the typed 400 — and still serves everything else.
func TestPartialRejectsAnalytics(t *testing.T) {
	shard := paperHandler(t, Config{Partial: true})
	for _, ep := range queryEndpoints {
		for _, body := range ep.wholeTimeline {
			expectReply(t, "whole-timeline statement on a shard", shard, ep.path, marshalBody(t, body), 400, "bad_request", "time-range shard")
		}
		if ep.wholeTimeline == nil || ep.statement {
			expectReply(t, "bounded statement on a shard", shard, ep.path, marshalBody(t, ep.ok), 200, "")
		}
	}
}

// TestStatementParsedOnce: the pipeline lowers a statement once per request,
// partial-shard guard included — at the parent the guard parsed it a second
// time just to look at its type.
func TestStatementParsedOnce(t *testing.T) {
	s, err := New(Config{Graph: core.PaperExample(), Partial: true, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path, query string
		status      int
	}{
		{"/v1/tgql", "AGG DIST gender ON UNION(t0, t1)", 200},
		{"/v1/tgql", "EXPLAIN AGG DIST gender ON UNION(t0, t1)", 200},
		{"/v1/tgql", "TREND ALL BY gender", 400},
		{"/v1/tgql", "STATS", 200},
		{"/v1/explain", "TOP 2 GROWTH BY gender", 200},
		{"/v1/explain", "EXPLAIN EVENTS DIST BY gender", 400},
	} {
		before := tgql.Parses.Value()
		rec := post(s.Handler(), tc.path, string(mustJSON(t, TGQLRequest{Query: tc.query})))
		if rec.Code != tc.status {
			t.Fatalf("%s %q: status %d, want %d: %s", tc.path, tc.query, rec.Code, tc.status, rec.Body)
		}
		if n := tgql.Parses.Value() - before; n != 1 {
			t.Errorf("%s %q parsed the statement %d times, want once", tc.path, tc.query, n)
		}
	}
}

// syncBuffer is a log sink safe to read while handlers write.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.String()
}

// TestRequestIDAndStages: a client's X-Request-Id comes back on the response
// and lands on the access-log line beside the stage durations; a request
// without one, or with an oversized one, gets an id minted at the edge
// (TestPanicIsolation holds the panic log to the same id).
func TestRequestIDAndStages(t *testing.T) {
	var logs syncBuffer
	s, err := New(Config{Graph: core.PaperExample(), Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	if err != nil {
		t.Fatal(err)
	}
	body := string(mustJSON(t, queryEndpoints[0].ok))
	req := httptest.NewRequest(http.MethodPost, "/v1/aggregate", strings.NewReader(body))
	req.Header.Set("X-Request-Id", "client-chose-this")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-Id"); rec.Code != 200 || got != "client-chose-this" {
		t.Fatalf("status %d, X-Request-Id %q, want the client's id echoed", rec.Code, got)
	}
	line := logs.String()
	for _, field := range []string{"level=INFO", "request_id=client-chose-this", "op=CatalogUnionAll",
		"admit_us=", "decode_us=", "state_us=", "compile_us=", "exec_us=", "encode_us=", " ms="} {
		if !strings.Contains(line, field) {
			t.Errorf("access log lacks %q: %s", field, line)
		}
	}

	minted := post(s.Handler(), "/v1/aggregate", body).Header().Get("X-Request-Id")
	again := post(s.Handler(), "/v1/aggregate", body).Header().Get("X-Request-Id")
	if minted == "" || minted == again {
		t.Fatalf("minted ids %q and %q, want two distinct non-empty ids", minted, again)
	}
	if !strings.Contains(logs.String(), "request_id="+minted) {
		t.Errorf("minted id %q is not on the access log", minted)
	}
	oversize := httptest.NewRequest(http.MethodPost, "/v1/aggregate", strings.NewReader(body))
	oversize.Header.Set("X-Request-Id", strings.Repeat("x", 4096))
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, oversize)
	if got := rec.Header().Get("X-Request-Id"); len(got) > 128 {
		t.Errorf("a %d-byte client id was adopted", len(got))
	}
}

// TestSlowRequestWarns: a request that used more than half its deadline
// raises its own access line to WARN — the slow-query log is that line,
// with the root operator and every stage on it — and a fast one stays INFO.
func TestSlowRequestWarns(t *testing.T) {
	var logs syncBuffer
	s, err := New(Config{Graph: core.PaperExample(), Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		id, deadline string
		delay        time.Duration
		status       int
		level, op    string
	}{
		{"fast", "", 0, http.StatusOK, "INFO", "CatalogUnionAll"},
		// Expires while its body arrives: it never reaches compile.
		{"expired", "1", 20 * time.Millisecond, http.StatusGatewayTimeout, "WARN", `""`},
		{"slow-in-time", "1000", 600 * time.Millisecond, http.StatusOK, "WARN", "CatalogUnionAll"},
	} {
		req := httptest.NewRequest(http.MethodPost, "/v1/aggregate", &slowBody{delay: c.delay, Reader: marshalBody(t, queryEndpoints[0].ok)})
		req.Header.Set("X-Request-Id", c.id)
		if c.deadline != "" {
			req.Header.Set("X-Deadline-Ms", c.deadline)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != c.status {
			t.Fatalf("%s: status %d, want %d: %s", c.id, rec.Code, c.status, rec.Body)
		}
		var line string
		for _, l := range strings.Split(logs.String(), "\n") {
			if strings.Contains(l, "request_id="+c.id) {
				line = l
			}
		}
		for _, field := range []string{"level=" + c.level, "msg=request", "op=" + c.op,
			"admit_us=", "decode_us=", "state_us=", "compile_us=", "exec_us=", "encode_us="} {
			if !strings.Contains(line, field) {
				t.Errorf("%s: access line lacks %q: %s", c.id, field, line)
			}
		}
	}
}
