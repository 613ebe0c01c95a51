package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gtest"
	"repro/internal/ops"
	"repro/internal/plan"
)

// reflected encodes v the way the handlers did before they wrote graph
// answers by hand: json.NewEncoder(w).Encode of the response struct.
func reflected(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// post runs one request through the handler in process.
func post(h http.Handler, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// TestGraphAnswersMatchReflectedStructs: the hand-written envelopes of
// /v1/aggregate and /v1/tgql are byte for byte what encoding/json makes of
// AggregateResponse and TGQLResponse (elapsed_ms taken from the answer, the
// graph from the library — internal/agg's suite holds that to the reflection
// oracle), and carry their Content-Length.
func TestGraphAnswersMatchReflectedStructs(t *testing.T) {
	for name, g := range map[string]*core.Graph{
		"paper": core.PaperExample(),
		"nasty": gtest.ValueGraph(gtest.NastyValues),
		"dblp":  dataset.DBLPScaled(1, 0.05),
	} {
		srv, err := New(Config{Graph: g, Logger: quietLogger()})
		if err != nil {
			t.Fatal(err)
		}
		tl := g.Timeline()
		a, b := tl.Point(0), tl.Point(1)
		attrs := []string{g.Attr(0).Name, g.Attr(1).Name}
		schema, err := agg.ByName(g, attrs...)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			op, stmt string
			kind     agg.Kind
			second   string // label of the second operand
			view     *ops.View
		}{
			{"union", "UNION", agg.All, tl.Label(1), ops.Union(g, a, b)}, // the catalog's answer
			{"union", "UNION", agg.Distinct, tl.Label(1), ops.Union(g, a, b)},
			{"intersection", "INTERSECT", agg.All, tl.Label(1), ops.Intersection(g, a, b)},
			{"difference", "DIFF", agg.Distinct, tl.Label(0), ops.Difference(g, a, a)}, // empty: null lists
		} {
			t.Run(fmt.Sprintf("%s/%s/%s", name, tc.op, tc.kind), func(t *testing.T) {
				want := agg.Aggregate(tc.view, schema, tc.kind)
				graph, err := json.Marshal(want)
				if err != nil {
					t.Fatal(err)
				}
				check := func(rec *httptest.ResponseRecorder, wantBody []byte) {
					t.Helper()
					if rec.Code != http.StatusOK {
						t.Fatalf("status %d: %s", rec.Code, rec.Body)
					}
					if !bytes.Equal(rec.Body.Bytes(), wantBody) {
						t.Fatalf("body differs from the reflected struct\n got %s\nwant %s", rec.Body, wantBody)
					}
					if got := rec.Header().Get("Content-Length"); got != fmt.Sprint(len(wantBody)) {
						t.Fatalf("Content-Length = %q, want %d", got, len(wantBody))
					}
					if got := rec.Header().Get("Content-Type"); got != "application/json" {
						t.Fatalf("Content-Type = %q", got)
					}
				}

				req, _ := json.Marshal(AggregateRequest{Op: tc.op, Kind: strings.ToLower(tc.kind.String()), Attrs: attrs,
					Interval: IntervalSpec{From: tl.Label(0)}, Interval2: IntervalSpec{From: tc.second}})
				rec := post(srv.Handler(), "/v1/aggregate", string(req))
				var got AggregateResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
					t.Fatalf("undecodable answer %s: %v", rec.Body, err)
				}
				check(rec, reflected(t, AggregateResponse{Source: got.Source, ElapsedMs: got.ElapsedMs, Graph: graph}))

				stmt, _ := json.Marshal(TGQLRequest{Query: fmt.Sprintf("AGG %s %s ON %s(%s, %s)",
					tc.kind, strings.Join(attrs, ", "), tc.stmt, tl.Label(0), tc.second)})
				check(post(srv.Handler(), "/v1/tgql", string(stmt)),
					reflected(t, TGQLResponse{Text: want.String(), Graph: graph}))
			})
		}
	}
}

// TestRepeatedGraphRepliesKeepTheirBytes: a graph-carrying reply asked
// three times is each time what encoding/json makes of the response struct
// (elapsed_ms and source taken from the reply), whichever path serves the
// repeat — the catalog's cached graph, a plan's memoized answer, or a fresh
// graph from a catalog too small to keep one (source=scratch) — on
// /v1/aggregate and TGQL alike.
func TestRepeatedGraphRepliesKeepTheirBytes(t *testing.T) {
	g := gtest.ValueGraph(gtest.NastyValues)
	tl := g.Timeline()
	a, b := tl.Point(0), tl.Point(1)
	schema := agg.MustSchema(g, 1, 0)
	for _, sc := range []struct {
		name       string
		cacheBytes int64
		union      string // the source of a repeated union-ALL
	}{{"catalog", 0, "cached"}, {"scratch", 1, "scratch"}} {
		srv, err := New(Config{Graph: g, Logger: quietLogger(), CacheBytes: sc.cacheBytes})
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			op, stmt string
			kind     agg.Kind
			view     *ops.View
		}{
			{"union", "UNION", agg.All, ops.Union(g, a, b)},
			{"intersection", "INTERSECT", agg.Distinct, ops.Intersection(g, a, b)},
		} {
			want := agg.Aggregate(tc.view, schema, tc.kind)
			graph, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			req, _ := json.Marshal(AggregateRequest{Op: tc.op, Kind: strings.ToLower(tc.kind.String()), Attrs: []string{"y", "x"},
				Interval: IntervalSpec{From: "t0"}, Interval2: IntervalSpec{From: "t1"}})
			stmt, _ := json.Marshal(TGQLRequest{Query: fmt.Sprintf("AGG %s y, x ON %s(t0, t1)", tc.kind, tc.stmt)})
			for ask := 0; ask < 3; ask++ {
				hits := plan.MemoHits.Value()
				rec := post(srv.Handler(), "/v1/aggregate", string(req))
				var got AggregateResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
					t.Fatalf("%s/%s: undecodable answer %s: %v", sc.name, tc.op, rec.Body, err)
				}
				if !bytes.Equal(rec.Body.Bytes(), reflected(t, AggregateResponse{Source: got.Source, ElapsedMs: got.ElapsedMs, Graph: graph})) {
					t.Errorf("%s/%s ask %d: /v1/aggregate differs from the reflected struct:\n%s", sc.name, tc.op, ask, rec.Body)
				}
				switch {
				case ask == 0:
				case tc.kind == agg.All && got.Source != sc.union:
					t.Errorf("%s/%s ask %d: source %q, want %q", sc.name, tc.op, ask, got.Source, sc.union)
				case tc.kind == agg.Distinct && plan.MemoHits.Value() == hits:
					t.Errorf("%s/%s ask %d: the repeat was no memo hit", sc.name, tc.op, ask)
				}
				rec = post(srv.Handler(), "/v1/tgql", string(stmt))
				if !bytes.Equal(rec.Body.Bytes(), reflected(t, TGQLResponse{Text: want.String(), Graph: graph})) {
					t.Errorf("%s/%s ask %d: /v1/tgql differs from the reflected struct:\n%s", sc.name, tc.op, ask, rec.Body)
				}
			}
		}
	}
}

var elapsedField = regexp.MustCompile(`"elapsed_ms":[0-9.e+-]+`)

// cachedPanel is bench/'s dash_hot (gender, publications) whole-timeline
// panel and its TGQL twin: union-ALL aggregates the catalog answers from
// cache after the first request.
func cachedPanel(g *core.Graph) (aggregate, tgql string) {
	l := g.Timeline().Labels()
	mid := len(l) / 2
	return fmt.Sprintf(`{"op":"union","kind":"all","attrs":["gender","publications"],"interval":{"from":%q,"to":%q},"interval2":{"from":%q,"to":%q}}`,
			l[0], l[mid-1], l[mid], l[len(l)-1]),
		fmt.Sprintf(`{"query":"AGG ALL gender, publications ON UNION(%s..%s, %s..%s)"}`, l[0], l[mid-1], l[mid], l[len(l)-1])
}

// TestConcurrentCachedPanel hammers one cached panel from 16 goroutines:
// every request encodes the same shared catalog graph into a pooled buffer,
// and every body must be the same bytes. Run under -race.
func TestConcurrentCachedPanel(t *testing.T) {
	g := dataset.DBLPScaled(1, 0.05)
	srv, err := New(Config{Graph: g, Logger: quietLogger(), MaxInflight: 64})
	if err != nil {
		t.Fatal(err)
	}
	paths := []string{"/v1/aggregate", "/v1/tgql"}
	var bodies, want [2]string
	bodies[0], bodies[1] = cachedPanel(g)
	for i, path := range paths {
		post(srv.Handler(), path, bodies[i]) // the first answer's source is not yet "cached"
		want[i] = elapsedField.ReplaceAllString(post(srv.Handler(), path, bodies[i]).Body.String(), "")
	}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				k := (w + i) % 2
				rec := post(srv.Handler(), paths[k], bodies[k])
				if got := elapsedField.ReplaceAllString(rec.Body.String(), ""); rec.Code != http.StatusOK || got != want[k] {
					t.Errorf("%s: status %d, body differs from the first answer", paths[k], rec.Code)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestCachedPanelAllocCeilings pins what a catalog-answered panel may
// allocate at DBLP scale 1 (26 nodes, 602 edges, 29 KB): the reflection
// path took 47,611 allocations for /v1/aggregate and 97,535 for the TGQL
// twin; the ceilings leave an order of magnitude over today's count, so they
// trip on a return to per-edge allocation, not on noise.
func TestCachedPanelAllocCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("generates DBLP at scale 1")
	}
	g := dataset.DBLPScaled(1, 1.0)
	srv, err := New(Config{Graph: g, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	aggregate, tgql := cachedPanel(g)
	for _, tc := range []struct {
		path, body string
		ceiling    float64
	}{{"/v1/aggregate", aggregate, 2000}, {"/v1/tgql", tgql, 10000}} {
		run := func() { post(srv.Handler(), tc.path, tc.body) }
		run() // fill the catalog and the plan cache
		if got := testing.AllocsPerRun(20, run); got > tc.ceiling {
			t.Errorf("%s: %.0f allocs per cached panel, ceiling %.0f", tc.path, got, tc.ceiling)
		} else {
			t.Logf("%s: %.0f allocs per cached panel", tc.path, got)
		}
	}
}
