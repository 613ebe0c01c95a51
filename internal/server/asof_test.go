package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/stream"
)

// The server-level time-travel acceptance: every response captured LIVE
// right after transaction n was acknowledged must be reproduced
// byte-identically later by the same query AS OF n — across tail appends,
// retroactive inserts and (in the storage-backed variant) checkpoints.

// tgqlAt posts one TGQL query with an as_of pin and returns the response
// text and graph payload.
func tgqlAt(t *testing.T, base, query string, asOf int) (string, []byte) {
	t.Helper()
	code, data := postJSON(t, base+"/v1/tgql", TGQLRequest{Query: query, AsOf: asOf})
	if code != 200 {
		t.Fatalf("tgql %q as_of %d = %d: %s", query, asOf, code, data)
	}
	var tr TGQLResponse
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	return tr.Text, tr.Graph
}

func ingestAck(t *testing.T, base string, req IngestRequest) IngestResponse {
	t.Helper()
	code, data := postJSON(t, base+"/v1/ingest", req)
	if code != 200 {
		t.Fatalf("ingest %s = %d: %s", req.Label, code, data)
	}
	var ir IngestResponse
	if err := json.Unmarshal(data, &ir); err != nil {
		t.Fatal(err)
	}
	return ir
}

// asOfBatches is a four-batch history whose last record is retroactive:
// t0, t1, t2 tail appends, then t0b spliced before t1.
func asOfBatches() []IngestRequest {
	n := func(label, gender, pubs string) IngestNode {
		return IngestNode{Label: label,
			Static:  map[string]string{"gender": gender},
			Varying: map[string]string{"publications": pubs}}
	}
	return []IngestRequest{
		{Label: "t0", Nodes: []IngestNode{n("u1", "m", "3"), n("u2", "f", "1")},
			Edges: []IngestEdge{{U: "u1", V: "u2"}}},
		{Label: "t1", Nodes: []IngestNode{n("u1", "m", "1"), n("u2", "f", "1"), n("u3", "f", "2")},
			Edges: []IngestEdge{{U: "u1", V: "u2"}, {U: "u2", V: "u3"}}},
		{Label: "t2", Nodes: []IngestNode{n("u2", "f", "2"), n("u3", "f", "1")},
			Edges: []IngestEdge{{U: "u2", V: "u3"}}},
		{Label: "t0b", Before: "t1", Nodes: []IngestNode{n("u1", "m", "2"), n("u2", "f", "1")},
			Edges: []IngestEdge{{U: "u1", V: "u2"}}},
	}
}

// runAsOfLifecycle drives the batches through a server, capturing the live
// render after each ack, then replays every capture through AS OF.
func runAsOfLifecycle(t *testing.T, base string) {
	t.Helper()
	const q = "AGG DIST gender ON UNION(t0, t0)"
	// TIMELINE labels its steps with its state's timeline, which the
	// retroactive t0b shifts under the head.
	const steps = "TIMELINE BY gender"
	type capture struct {
		txn      int
		text     string
		graph    []byte
		timeline string
	}
	var caps []capture
	for i, req := range asOfBatches() {
		ir := ingestAck(t, base, req)
		if ir.Txn != i+1 {
			t.Fatalf("ingest %s: ack txn = %d, want %d", req.Label, ir.Txn, i+1)
		}
		if ir.Points != i+1 {
			t.Fatalf("ingest %s: points = %d, want %d", req.Label, ir.Points, i+1)
		}
		text, graph := tgqlAt(t, base, q, 0)
		timeline, _ := tgqlAt(t, base, steps, 0)
		caps = append(caps, capture{ir.Txn, text, graph, timeline})
	}

	// Retroactive visibility: the full-interval aggregate now spans four
	// points and differs from the pre-retro head.
	headText, _ := tgqlAt(t, base, "AGG ALL gender ON PROJECT t0..t2", 0)
	preText, _ := tgqlAt(t, base, "AGG ALL gender ON PROJECT t0..t2", 3)
	if headText == preText {
		t.Fatalf("retroactive ingest is invisible: head render == AS OF 3 render:\n%s", headText)
	}

	for _, c := range caps {
		text, graph := tgqlAt(t, base, q, c.txn)
		if text != c.text {
			t.Errorf("AS OF %d text:\n%s\nwant live capture:\n%s", c.txn, text, c.text)
		}
		if !bytes.Equal(graph, c.graph) {
			t.Errorf("AS OF %d graph diverges from live capture:\n%s\nvs\n%s", c.txn, graph, c.graph)
		}
		if timeline, _ := tgqlAt(t, base, steps, c.txn); timeline != c.timeline {
			t.Errorf("AS OF %d %s:\n%s\nwant live capture:\n%s", c.txn, steps, timeline, c.timeline)
		}
	}

	// The aggregate endpoint accepts the same pin.
	code, data := postJSON(t, base+"/v1/aggregate", AggregateRequest{
		Op: "union", Interval: IntervalSpec{From: "t0"}, Interval2: IntervalSpec{From: "t0"},
		Attrs: []string{"gender"}, Kind: "dist", AsOf: 1,
	})
	if code != 200 {
		t.Fatalf("aggregate as_of 1 = %d: %s", code, data)
	}

	// Out-of-range and malformed pins are client errors with positions.
	code, data = postJSON(t, base+"/v1/tgql", TGQLRequest{Query: q, AsOf: 99})
	if code != 400 {
		t.Fatalf("as_of beyond head = %d: %s", code, data)
	}
	if !strings.Contains(string(data), "AS OF 99") {
		t.Errorf("beyond-head error does not name the transaction: %s", data)
	}
	// Explain travels too: the plan must carry the clause.
	code, data = postJSON(t, base+"/v1/explain", ExplainRequest{Query: q, AsOf: 2})
	if code != 200 {
		t.Fatalf("explain as_of = %d: %s", code, data)
	}
	if !strings.Contains(string(data), "AS OF 2") {
		t.Errorf("explain output does not render the AS OF clause: %s", data)
	}
}

func TestAsOfLifecycleStream(t *testing.T) {
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
	runAsOfLifecycle(t, ts.URL)
}

func TestAsOfLifecycleStorage(t *testing.T) {
	dir := t.TempDir()
	eng, err := storage.Open(dir, durableAttrs(), storage.Options{
		Fsync:             storage.FsyncAlways,
		CheckpointRecords: -1,
		Logger:            quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Storage: eng, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	runAsOfLifecycle(t, ts.URL)

	// Capture the per-txn answers, then crash (no Close) and reopen: every
	// AS OF answer must survive recovery byte-identically — including past
	// a checkpoint taken on the recovered engine.
	const q = "AGG DIST gender ON UNION(t0, t0)"
	type capture struct {
		text  string
		graph []byte
	}
	var caps []capture
	for txn := 1; txn <= 4; txn++ {
		text, graph := tgqlAt(t, ts.URL, q, txn)
		caps = append(caps, capture{text, graph})
	}
	ts.Close()

	eng2, err := storage.Open(dir, durableAttrs(), storage.Options{Logger: quietLogger()})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer eng2.Close()
	if got := eng2.Series().Txn(); got != 4 {
		t.Fatalf("recovered txn seq = %d, want 4", got)
	}
	if err := eng2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{Storage: eng2, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	for i, c := range caps {
		text, graph := tgqlAt(t, ts2.URL, q, i+1)
		if text != c.text || !bytes.Equal(graph, c.graph) {
			t.Errorf("AS OF %d diverged across crash+checkpoint:\n%s\nvs\n%s", i+1, text, c.text)
		}
	}

	// The transaction watermark surfaces on /v1/status and /metrics.
	code, data := get(t, ts2.URL+"/v1/status")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	var sr StatusResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Txn != 4 {
		t.Errorf("status txn = %d, want 4", sr.Txn)
	}
	code, data = get(t, ts2.URL+"/metrics")
	if code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	if !strings.Contains(string(data), "graphtempod_storage_txn_seq 4") {
		t.Errorf("metrics missing txn seq gauge:\n%s", data)
	}
	for _, name := range []string{"graphtempod_history_cache_entries", "graphtempod_catalog_retro_applies_total"} {
		if !strings.Contains(string(data), name) {
			t.Errorf("metrics missing %s", name)
		}
	}
	// Each pin below the head (txns 1..3) left its state as an anchor: four
	// transactions keep the finest spacing.
	for _, line := range []string{"graphtempod_history_anchors 3\n", "graphtempod_history_anchor_spacing 1\n", "graphtempod_history_anchor_bytes "} {
		if !strings.Contains(string(data), line) {
			t.Errorf("metrics missing %q:\n%s", line, grepMetrics(string(data), "anchor"))
		}
	}
}

// TestAsOfStaticModeRejected: a static dataset has no transaction log;
// explicit pins are 400s, pin 0 (the head) serves normally.
func TestAsOfStaticModeRejected(t *testing.T) {
	s, err := New(Config{Graph: core.PaperExample(), Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, data := postJSON(t, ts.URL+"/v1/tgql", TGQLRequest{Query: "AGG DIST gender ON POINT t0", AsOf: 1})
	if code != 400 || !strings.Contains(string(data), "transaction log") {
		t.Fatalf("static as_of = %d: %s", code, data)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/tgql", TGQLRequest{Query: "AGG DIST gender ON POINT t0"}); code != 200 {
		t.Fatalf("static head query = %d", code)
	}
	// VALID DURING still works: it windows the live graph.
	code, data = postJSON(t, ts.URL+"/v1/tgql", TGQLRequest{
		Query: "AGG DIST gender ON POINT t1 VALID DURING t1..t2",
	})
	if code != 200 {
		t.Fatalf("static VALID DURING = %d: %s", code, data)
	}
}

// catalogCounters scrapes the catalog's cumulative counters from /metrics:
// the answers by source and the cache evictions.
func catalogCounters(t *testing.T, base string) map[string]float64 {
	t.Helper()
	_, body := get(t, base+"/metrics")
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "graphtempod_catalog_answers_total{") &&
			!strings.HasPrefix(line, "graphtempod_catalog_cache_evictions_total ") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("metric line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	if len(out) != 5 {
		t.Fatalf("scraped %d catalog counters, want 4 sources and evictions: %v", len(out), out)
	}
	return out
}

// requireMonotonic fails when a catalog counter fell between two scrapes.
func requireMonotonic(t *testing.T, what string, before, after map[string]float64) {
	t.Helper()
	for k, v := range before {
		if after[k] < v {
			t.Errorf("%s: %s fell from %v to %v", what, k, v, after[k])
		}
	}
}

// catalogRound sends union-ALL queries the head's catalog answers, over
// each label for three attribute lists, each twice (a computed answer, then
// a cached one unless evicted).
func catalogRound(t *testing.T, base string, labels ...string) {
	t.Helper()
	for _, l := range labels {
		for _, attrs := range []string{"gender", "publications", "gender, publications"} {
			q := "AGG ALL " + attrs + " ON UNION(" + l + ", " + l + ")"
			tgqlAt(t, base, q, 0)
			tgqlAt(t, base, q, 0)
		}
	}
}

// TestRetroIngestReaggregates: after a retroactive batch, interval
// aggregates spanning the insert match a from-scratch server fed the same
// four points in valid-time order, and the catalog counters on /metrics
// never fall across the advances — the retroactive one included, whose
// successor catalog starts with a fresh result cache.
func TestRetroIngestReaggregates(t *testing.T) {
	series := stream.New(
		core.AttrSpec{Name: "gender", Kind: core.Static},
		core.AttrSpec{Name: "publications", Kind: core.TimeVarying},
	)
	// A cache too small for every result, so evictions are counted too.
	s, err := New(Config{Series: series, Logger: quietLogger(), CacheBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var (
		last   map[string]float64
		labels []string
	)
	for _, req := range asOfBatches() {
		ingestAck(t, ts.URL, req)
		now := catalogCounters(t, ts.URL)
		requireMonotonic(t, "ingest "+req.Label, last, now)
		labels = append(labels, req.Label)
		catalogRound(t, ts.URL, labels...)
		last = catalogCounters(t, ts.URL)
		requireMonotonic(t, "queries after "+req.Label, now, last)
	}
	for _, k := range []string{`graphtempod_catalog_answers_total{source="cached"}`, "graphtempod_catalog_cache_evictions_total"} {
		if last[k] == 0 {
			t.Errorf("%s stayed 0: the monotonicity check checked nothing", k)
		}
	}

	// Reference: the same history ingested in valid-time order.
	ref := stream.New(series.Attrs()...)
	sref, err := New(Config{Series: ref, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	tsRef := httptest.NewServer(sref.Handler())
	defer tsRef.Close()
	batches := asOfBatches()
	for _, i := range []int{0, 3, 1, 2} {
		req := batches[i]
		req.Before = ""
		ingestAck(t, tsRef.URL, req)
	}

	for _, q := range []string{
		"AGG ALL gender ON PROJECT t0..t2",
		"AGG DIST gender ON UNION(t0b, t2)",
		"AGG ALL gender, publications ON INTERSECT(t0, t0b)",
		"EVOLVE DIST gender FROM t0 TO t0b",
	} {
		gotText, gotGraph := tgqlAt(t, ts.URL, q, 0)
		wantText, wantGraph := tgqlAt(t, tsRef.URL, q, 0)
		if gotText != wantText || !bytes.Equal(gotGraph, wantGraph) {
			t.Errorf("%s after retro ingest:\n%s\nwant (in-order ingest):\n%s", q, gotText, wantText)
		}
	}
}
