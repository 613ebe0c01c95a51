package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/stream"
)

// newStreamServer builds an empty stream-mode server with the lifecycle
// test's schema.
func newStreamServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Series = stream.New(
		core.AttrSpec{Name: "gender", Kind: core.Static},
		core.AttrSpec{Name: "publications", Kind: core.TimeVarying},
	)
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// ingestPoint posts one small consistent snapshot labeled t<i> and returns
// the decoded acknowledgement.
func ingestPoint(t *testing.T, url string, i int) IngestResponse {
	t.Helper()
	code, data := postJSON(t, url+"/v1/ingest", IngestRequest{
		Label: fmt.Sprintf("t%d", i),
		Nodes: []IngestNode{
			{Label: "u1", Static: map[string]string{"gender": "m"},
				Varying: map[string]string{"publications": fmt.Sprintf("%d", i+1)}},
			{Label: "u2", Static: map[string]string{"gender": "f"},
				Varying: map[string]string{"publications": "1"}},
		},
		Edges: []IngestEdge{{U: "u1", V: "u2"}},
	})
	if code != http.StatusOK {
		t.Fatalf("ingest t%d = %d: %s", i, code, data)
	}
	var ir IngestResponse
	if err := json.Unmarshal(data, &ir); err != nil {
		t.Fatal(err)
	}
	return ir
}

// TestIngestDeltaApplies pins the freshness contract: after the initial
// build, every steady-state ingest folds in as a delta (no full rebuilds),
// the acknowledgement reports the point already visible, and the ingest's
// state stage — the advance that makes the point queryable — records one
// observation per ingest.
func TestIngestDeltaApplies(t *testing.T) {
	s, ts := newStreamServer(t, Config{})
	const points = 4
	for i := 0; i < points; i++ {
		ir := ingestPoint(t, ts.URL, i)
		if ir.Points != i+1 {
			t.Fatalf("ingest %d: points = %d, want %d", i, ir.Points, i+1)
		}
		if ir.Visible != ir.Points {
			t.Fatalf("ingest %d: visible = %d, want %d (ack must carry visibility)", i, ir.Visible, ir.Points)
		}
	}
	if got := s.deltaApplies.Value(); got != points-1 {
		t.Errorf("delta applies = %d, want %d", got, points-1)
	}
	if got := s.fullRebuilds.Value(); got != 0 {
		t.Errorf("full rebuilds = %d, want 0 in steady state", got)
	}

	// The state stage covers every acknowledged ingest, exposed on /metrics.
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		fmt.Sprintf("graphtempod_catalog_delta_applies_total %d", points-1),
		"graphtempod_catalog_full_rebuilds_total 0",
		fmt.Sprintf(`graphtempod_stage_seconds_count{endpoint="ingest",stage="state"} %d`, points),
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestIngestStaticBackfillFallsBack pins the soundness fallback: filling in
// a static value for a pre-existing node changes its tuple at old points,
// so the delta is refused and the server rebuilds — counted, still correct
// (the ack still reports the point visible), and with catalog counters on
// /metrics that continue across the rebuild.
func TestIngestStaticBackfillFallsBack(t *testing.T) {
	s, ts := newStreamServer(t, Config{})
	// t0: u9 appears without a gender.
	code, data := postJSON(t, ts.URL+"/v1/ingest", IngestRequest{
		Label: "t0",
		Nodes: []IngestNode{{Label: "u9", Varying: map[string]string{"publications": "1"}}},
	})
	if code != http.StatusOK {
		t.Fatalf("ingest t0 = %d: %s", code, data)
	}
	catalogRound(t, ts.URL, "t0")
	before := catalogCounters(t, ts.URL)
	// t1: the same node's gender is filled in retroactively.
	code, data = postJSON(t, ts.URL+"/v1/ingest", IngestRequest{
		Label: "t1",
		Nodes: []IngestNode{{Label: "u9", Static: map[string]string{"gender": "m"},
			Varying: map[string]string{"publications": "2"}}},
	})
	if code != http.StatusOK {
		t.Fatalf("ingest t1 = %d: %s", code, data)
	}
	var ir IngestResponse
	if err := json.Unmarshal(data, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Visible != 2 {
		t.Fatalf("backfill ingest visible = %d, want 2", ir.Visible)
	}
	if got := s.deltaApplies.Value(); got != 0 {
		t.Errorf("delta applies = %d, want 0 (backfill must not delta-apply)", got)
	}
	if got := s.fullRebuilds.Value(); got != 1 {
		t.Errorf("full rebuilds = %d, want 1", got)
	}
	rebuilt := catalogCounters(t, ts.URL)
	requireMonotonic(t, "rebuild", before, rebuilt)
	if k := `graphtempod_catalog_answers_total{source="scratch"}`; before[k] == 0 {
		t.Errorf("%s was 0 before the rebuild: the monotonicity check checked nothing", k)
	}
	catalogRound(t, ts.URL, "t0")
	requireMonotonic(t, "queries after the rebuild", rebuilt, catalogCounters(t, ts.URL))
}

// TestReadyzGeneration pins the /readyz?gen=N polling contract.
func TestReadyzGeneration(t *testing.T) {
	_, ts := newStreamServer(t, Config{})
	if code, _ := get(t, ts.URL+"/readyz?gen=1"); code != http.StatusServiceUnavailable {
		t.Fatalf("empty readyz?gen=1 = %d, want 503", code)
	}
	ingestPoint(t, ts.URL, 0)
	if code, body := get(t, ts.URL+"/readyz?gen=1"); code != http.StatusOK {
		t.Fatalf("readyz?gen=1 = %d: %s", code, body)
	}
	if code, body := get(t, ts.URL+"/readyz?gen=2"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz?gen=2 = %d, want 503: %s", code, body)
	}
	if code, _ := get(t, ts.URL+"/readyz?gen=x"); code != http.StatusBadRequest {
		t.Fatalf("readyz?gen=x = %d, want 400", code)
	}

	// Static mode has exactly one generation; the parameter is ignored.
	_, static := newStaticServer(t)
	if code, _ := get(t, static.URL+"/readyz?gen=99"); code != http.StatusOK {
		t.Fatalf("static readyz?gen=99 = %d, want 200", code)
	}
}
