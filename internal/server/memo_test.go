package server

import (
	"bytes"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/materialize"
	"repro/internal/metrics"
	"repro/internal/plan"
)

// stripElapsed drops the one part of a reply that measures rather than
// answers.
func stripElapsed(body []byte) string { return string(elapsedField.ReplaceAll(body, nil)) }

// operatorRuns sums the planner's selection counters, which count one per
// operator run; an answer served from a plan's memo runs nothing.
func operatorRuns() int64 {
	v := reflect.ValueOf(&plan.Selections).Elem()
	var n int64
	for i := range v.NumField() {
		n += v.Field(i).Addr().Interface().(*metrics.Counter).Value()
	}
	return n
}

// memoRequest is one read and the endpoint it goes to.
type memoRequest struct {
	name, path string
	body       any
}

func tgqlRead(stmt string) memoRequest {
	return memoRequest{stmt, "/v1/tgql", TGQLRequest{Query: stmt}}
}

// memoFamilies is one read per query family the memo serves.
func memoFamilies() []memoRequest {
	var reqs []memoRequest
	for _, op := range []string{"union", "intersection", "difference"} {
		for _, kind := range []string{"dist", "all"} {
			reqs = append(reqs, memoRequest{op + "-" + kind, "/v1/aggregate", AggregateRequest{Op: op,
				Interval: IntervalSpec{From: "t0"}, Interval2: IntervalSpec{From: "t1"},
				Attrs: []string{"gender", "publications"}, Kind: kind}})
		}
	}
	reqs = append(reqs,
		tgqlRead("AGG ALL gender ON PROJECT t0..t2 WHERE publications > 2"),
		tgqlRead("AGG DIST gender ON PROJECT t0..t2 MEASURE SUM(publications)"),
		memoRequest{"explore", "/v1/explore", ExploreRequest{Event: "stability", K: 1, Attrs: []string{"gender"}}},
		tgqlRead("EVENTS DIST BY gender"),
		tgqlRead("PATHS EARLIEST FROM u1 TO u2, u4"),
		tgqlRead("EVOLVE DIST gender FROM t0 TO t1"),
		tgqlRead("TOP 3 SHRINKAGE BY gender"),
		tgqlRead("TIMELINE BY gender"),
		tgqlRead("AGG DIST gender ON INTERSECT(t0, t2)"),
		tgqlRead("TREND DIST BY gender WIDTH 2"),
	)
	return reqs
}

// TestRepeatedReadRunsOnce: each query family asked twice on one state
// answers the same bytes, elapsed_ms aside, and runs its operator once,
// TREND ALL's catalog composition included. Union-ALL stays the catalog's:
// it runs each time and the repeat is a catalog hit. EXPLAIN ANALYZE of a
// memoized statement runs its operator again.
func TestRepeatedReadRunsOnce(t *testing.T) {
	s, ts := newStaticServer(t)
	ask := func(r memoRequest) string {
		t.Helper()
		code, body := postJSON(t, ts.URL+r.path, r.body)
		if code != http.StatusOK {
			t.Fatalf("%s = %d: %s", r.name, code, body)
		}
		return stripElapsed(body)
	}
	catalog := map[string]bool{"union-all": true}
	reqs := append(memoFamilies(), tgqlRead("TREND ALL BY gender WIDTH 2"))
	for _, r := range reqs {
		runs, hits, cached := operatorRuns(), plan.MemoHits.Value(), s.cur.Load().Catalog.Stats().Cached
		first, second := ask(r), ask(r)
		if catalog[r.name] {
			if n := s.cur.Load().Catalog.Stats().Cached - cached; n == 0 {
				t.Errorf("%s: the repeat was no catalog hit", r.name)
			}
			if !strings.Contains(second, `"source":"cached"`) {
				t.Errorf("%s: the repeat answered %s, want source=cached", r.name, second)
			}
			first = strings.Replace(first, `"source":"scratch"`, `"source":"cached"`, 1)
			if n, h := operatorRuns()-runs, plan.MemoHits.Value()-hits; n != 2 || h != 0 {
				t.Errorf("%s: %d runs, %d memo hits; want 2, 0", r.name, n, h)
			}
		} else if n, h := operatorRuns()-runs, plan.MemoHits.Value()-hits; n != 1 || h != 1 {
			t.Errorf("%s: %d runs, %d memo hits over two asks; want 1, 1", r.name, n, h)
		}
		if first != second {
			t.Errorf("%s: the repeat answered\n%s\nwant\n%s", r.name, second, first)
		}
		if r.path != "/v1/tgql" || catalog[r.name] {
			continue
		}
		runs = operatorRuns()
		analyze := tgqlRead("EXPLAIN ANALYZE " + r.body.(TGQLRequest).Query)
		if !strings.Contains(ask(analyze), "actual_us=") || operatorRuns()-runs != 1 {
			t.Errorf("%s: EXPLAIN ANALYZE did not run the operator", r.name)
		}
		if ask(r) != first || operatorRuns()-runs != 1 {
			t.Errorf("%s: EXPLAIN ANALYZE disturbed the memo", r.name)
		}
	}
}

// TestMemoObservable: a memoized reply's access line ends in memo=hit, and
// /metrics counts memo hits and misses beside the plan-cache lookups.
func TestMemoObservable(t *testing.T) {
	var logs syncBuffer
	s, err := New(Config{Graph: core.PaperExample(), Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	if err != nil {
		t.Fatal(err)
	}
	body := `{"op":"intersection","interval":{"from":"t0"},"interval2":{"from":"t1"},"attrs":["gender"]}`
	for range 2 {
		if rec := post(s.Handler(), "/v1/aggregate", body); rec.Code != http.StatusOK {
			t.Fatalf("aggregate = %d %s", rec.Code, rec.Body)
		}
	}
	lines := strings.Split(strings.TrimSpace(logs.String()), "\n")
	if len(lines) != 2 || strings.Contains(lines[0], "memo=") || !strings.HasSuffix(lines[1], " memo=hit") {
		t.Errorf("access lines, want memo=hit on the second alone:\n%s", logs.String())
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	text := rec.Body.String()
	for _, re := range []string{
		`graphtempod_plan_cache_total\{result="memo_hit"\} [1-9]`,
		`graphtempod_plan_cache_total\{result="memo_miss"\} [1-9]`,
	} {
		if !regexp.MustCompile(re).MatchString(text) {
			t.Errorf("metrics missing %s:\n%s", re, grepMetrics(text, "plan_cache"))
		}
	}
}

// TestMemoDiesWithItsState: after a tail ingest, a retroactive ingest and a
// refused advance, the same reads run again on the new state and equal a
// from-scratch server over its graph.
func TestMemoDiesWithItsState(t *testing.T) {
	s, ts := newStreamServer(t, Config{})
	batches := asOfBatches()
	for _, b := range batches[:2] {
		ingestAck(t, ts.URL, b)
	}
	reads := []memoRequest{
		tgqlRead("TIMELINE BY gender"),
		tgqlRead("EVENTS DIST BY gender"),
		{"scan", "/v1/aggregate", AggregateRequest{Op: "intersection", Interval: IntervalSpec{From: "t0"},
			Interval2: IntervalSpec{From: "t1"}, Attrs: []string{"gender", "publications"}}},
	}
	ask := func(base string, r memoRequest) string {
		t.Helper()
		code, body := postJSON(t, base+r.path, r.body)
		if code != http.StatusOK {
			t.Fatalf("%s = %d: %s", r.name, code, body)
		}
		return stripElapsed(body)
	}
	for _, r := range reads {
		ask(ts.URL, r)
		if hits := plan.MemoHits.Value(); ask(ts.URL, r) == "" || plan.MemoHits.Value()-hits != 1 {
			t.Fatalf("%s: the repeat on one state was no memo hit", r.name)
		}
	}
	n := func(label, gender string) IngestNode {
		in := IngestNode{Label: label, Varying: map[string]string{"publications": "1"}}
		if gender != "" {
			in.Static = map[string]string{"gender": gender}
		}
		return in
	}
	for _, step := range []struct {
		name    string
		batches []IngestRequest
		counter func() int64
	}{
		{"tail ingest", batches[2:3], s.deltaApplies.Value},
		{"retroactive ingest", batches[3:4], s.retroApplies.Value},
		// u9 appears without a gender, then gets one: the advance is refused.
		{"refused advance", []IngestRequest{{Label: "t3", Nodes: []IngestNode{n("u9", "")}},
			{Label: "t4", Nodes: []IngestNode{n("u9", "m")}}}, s.fullRebuilds.Value},
	} {
		before := step.counter()
		for _, b := range step.batches {
			ingestAck(t, ts.URL, b)
		}
		if step.counter() == before {
			t.Fatalf("%s: the state did not move the way the step names", step.name)
		}
		ref, err := New(Config{Graph: s.cur.Load().Graph, Logger: quietLogger()})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reads {
			hits, misses := plan.MemoHits.Value(), plan.MemoMisses.Value()
			got := ask(ts.URL, r)
			if plan.MemoHits.Value() != hits || plan.MemoMisses.Value()-misses != 1 {
				t.Errorf("after the %s, %s was not computed again", step.name, r.name)
			}
			rec := post(ref.Handler(), r.path, string(mustJSON(t, r.body)))
			if want := stripElapsed(rec.Body.Bytes()); got != want {
				t.Errorf("after the %s, %s answered\n%s\nwant (scratch)\n%s", step.name, r.name, got, want)
			}
		}
	}
}

// TestAsOfMemoApart: an AS OF state's memo never answers the head, and
// the head's memo never answers an AS OF state.
func TestAsOfMemoApart(t *testing.T) {
	_, ts := newStreamServer(t, Config{})
	_, ref := newStreamServer(t, Config{})
	batches := asOfBatches()
	for _, b := range batches[:3] {
		ingestAck(t, ts.URL, b)
	}
	ingestAck(t, ref.URL, batches[0])
	ask := func(base string, asOf int) (string, bool) {
		t.Helper()
		hits := plan.MemoHits.Value()
		code, body := postJSON(t, base+"/v1/tgql", TGQLRequest{Query: "TIMELINE BY gender", AsOf: asOf})
		if code != http.StatusOK {
			t.Fatalf("AS OF %d = %d: %s", asOf, code, body)
		}
		return string(body), plan.MemoHits.Value() != hits
	}
	head, _ := ask(ts.URL, 0)
	if again, memo := ask(ts.URL, 0); !memo || again != head {
		t.Fatal("the head's repeat was no memo hit")
	}
	past, memo := ask(ts.URL, 1)
	if want, _ := ask(ref.URL, 0); memo || past != want || past == head {
		t.Fatalf("AS OF 1 (memo %v) answered\n%s\nwant\n%s", memo, past, want)
	}
	for i, want := range []string{head, past, head, past} {
		if got, memo := ask(ts.URL, i%2); !memo || got != want {
			t.Fatalf("ask %d at AS OF %d: memo %v, answered\n%s\nwant\n%s", i, i%2, memo, got, want)
		}
	}
}

// TestConcurrentIdenticalReads: 16 clients asking one statement at once on
// a cold state get byte-identical bodies; under -race this also checks that
// no encoder writes to the Result they share once it is memoized.
func TestConcurrentIdenticalReads(t *testing.T) {
	for _, r := range memoFamilies() {
		s, err := New(Config{Graph: core.PaperExample(), MaxInflight: 64, MaxQueue: 64, Logger: quietLogger()})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		bodies := make([]string, 16)
		var wg sync.WaitGroup
		for i := range bodies {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				code, body := postJSON(t, ts.URL+r.path, r.body)
				if code != http.StatusOK {
					t.Errorf("%s = %d: %s", r.name, code, body)
				}
				bodies[i] = stripElapsed(bytes.Replace(body, []byte(`"source":"cached"`), []byte(`"source":"scratch"`), 1))
			}(i)
		}
		wg.Wait()
		for i, b := range bodies {
			if b != bodies[0] {
				t.Errorf("%s: client %d answered\n%s\nclient 0\n%s", r.name, i, b, bodies[0])
			}
		}
	}
}

// TestHistoryMemoWithinBudget: a reconstructed AS OF state's plan and
// answer memo and its catalog's result cache are charged to the history
// LRU, so AS OF states each filled with distinct statements — TOP reads,
// union-ALL reads the catalog caches and TGQL AGG DIST reads the memo
// keeps, each aggregate with its kept wire forms — hold their graphs,
// memos and cached results within HistoryCacheBytes. A catalog sized by
// -cache-bytes and left uncharged holds more than the whole budget here.
func TestHistoryMemoWithinBudget(t *testing.T) {
	const budget = 256 << 10
	s, ts := newStreamServer(t, Config{HistoryCacheBytes: budget})
	const points = 12
	for i := 0; i < points; i++ {
		ingestPoint(t, ts.URL, i)
	}
	read := func(q TGQLRequest) {
		t.Helper()
		if code, body := postJSON(t, ts.URL+"/v1/tgql", q); code != http.StatusOK {
			t.Fatalf("%s AS OF %d = %d: %s", q.Query, q.AsOf, code, body)
		}
	}
	for txn := 1; txn < points; txn++ {
		for n := 1; n <= 40; n++ {
			read(TGQLRequest{Query: fmt.Sprintf("TOP %d GROWTH BY gender", n), AsOf: txn})
		}
		for from := 0; from < txn; from++ {
			for to := from; to < txn; to++ {
				for _, kind := range []string{"ALL", "DIST"} {
					read(TGQLRequest{Query: fmt.Sprintf("AGG %s gender, publications ON UNION(t%d..t%d, t%d..t%d)", kind, from, to, from, to), AsOf: txn})
				}
			}
		}
	}
	var resident, memo, results int64
	for txn := 1; txn < points; txn++ {
		if st, ok := s.hist.Get("txn=" + strconv.Itoa(txn)); ok {
			// What histBytes charges the graph alone: a state over it with
			// one-byte budgets.
			bare := &plan.State{Graph: st.Graph, Plans: plan.NewCache(1),
				Catalog: materialize.NewCatalogWith(st.Graph, materialize.CatalogConfig{MaxBytes: 1, Shards: 1})}
			cached := st.Catalog.Stats().CacheBytes
			resident += histBytes(bare) + st.Plans.Bytes() + cached
			memo += st.Plans.Bytes()
			results += cached
		}
	}
	if memo == 0 || results == 0 || resident > budget {
		t.Fatalf("AS OF states hold %d bytes, %d of them memo and %d cached results; budget %d", resident, memo, results, budget)
	}
}
