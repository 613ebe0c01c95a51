package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ops"
	"repro/internal/timeline"
)

// TestServedScansMatchOracle: every one-off scan shape of the benchmark's
// adhoc_scan workload — union DIST, intersection and difference DIST and
// ALL, on publications and on (gender, publications) — over a strided walk
// of contiguous range pairs of DBLP ×0.1, answers through /v1/aggregate and
// through /v1/tgql exactly the map engine's graph (agg.AggregateMap). The
// scans are one-offs, so the kernel, not a cache, answers each.
func TestServedScansMatchOracle(t *testing.T) {
	g := dataset.DBLPScaled(7, 0.1)
	s, err := New(Config{Graph: g, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	tl := g.Timeline()
	type span struct{ lo, hi int }
	var spans []span
	for n := 1; n <= tl.Len(); n++ {
		for i := 0; i+n <= tl.Len(); i++ {
			spans = append(spans, span{i, i + n - 1})
		}
	}
	text := func(sp span) string {
		if sp.lo == sp.hi {
			return tl.Label(timeline.Time(sp.lo))
		}
		return tl.Label(timeline.Time(sp.lo)) + ".." + tl.Label(timeline.Time(sp.hi))
	}
	wire := func(sp span) IntervalSpec {
		return IntervalSpec{From: tl.Label(timeline.Time(sp.lo)), To: tl.Label(timeline.Time(sp.hi))}
	}
	type shape struct {
		op, kind, tgql string
		build          func(*core.Graph, timeline.Interval, timeline.Interval) *ops.View
		attrs          []string
	}
	var shapes []shape
	for _, op := range []struct {
		name, tgql string
		build      func(*core.Graph, timeline.Interval, timeline.Interval) *ops.View
	}{{"union", "UNION", ops.Union}, {"intersection", "INTERSECT", ops.Intersection}, {"difference", "DIFF", ops.Difference}} {
		for _, kind := range []string{"dist", "all"} {
			if op.name == "union" && kind == "all" {
				continue // the catalog answers union-ALL
			}
			for _, attrs := range [][]string{{"gender", "publications"}, {"publications"}} {
				shapes = append(shapes, shape{op.name, kind, op.tgql, op.build, attrs})
			}
		}
	}
	scans := 400
	if testing.Short() {
		scans = 60
	}
	n := len(spans)
	for i := 0; i < scans; i++ {
		sh := shapes[i%len(shapes)]
		a, b := spans[(i*89)%n], spans[(17+i*137+i/n*89)%n]
		schema, err := agg.ByName(g, sh.attrs...)
		if err != nil {
			t.Fatal(err)
		}
		kind := agg.Distinct
		if sh.kind == "all" {
			kind = agg.All
		}
		iv := func(sp span) timeline.Interval { return tl.Range(timeline.Time(sp.lo), timeline.Time(sp.hi)) }
		want := agg.AggregateMap(sh.build(g, iv(a), iv(b)), schema, kind)
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("%s %s %v %s | %s", sh.op, sh.kind, sh.attrs, text(a), text(b))

		code, body := postJSON(t, ts.URL+"/v1/aggregate", AggregateRequest{Op: sh.op, Kind: sh.kind, Attrs: sh.attrs,
			Interval: wire(a), Interval2: wire(b)})
		var ar AggregateResponse
		if code != 200 || json.Unmarshal(body, &ar) != nil {
			t.Fatalf("%s: /v1/aggregate = %d: %s", what, code, body)
		}
		if !bytes.Equal(ar.Graph, wantJSON) {
			t.Fatalf("%s: /v1/aggregate graph\n%s\nAggregateMap\n%s", what, ar.Graph, wantJSON)
		}

		stmt := fmt.Sprintf("AGG %s %s ON %s(%s, %s)", strings.ToUpper(sh.kind), strings.Join(sh.attrs, ", "), sh.tgql, text(a), text(b))
		code, body = postJSON(t, ts.URL+"/v1/tgql", TGQLRequest{Query: stmt})
		var tr TGQLResponse
		if code != 200 || json.Unmarshal(body, &tr) != nil {
			t.Fatalf("%s: /v1/tgql = %d: %s", stmt, code, body)
		}
		if !bytes.Equal(tr.Graph, wantJSON) || tr.Text != want.String() {
			t.Fatalf("%s: /v1/tgql\n%s\n%s\nAggregateMap\n%s\n%s", stmt, tr.Graph, tr.Text, wantJSON, want)
		}
	}
}
