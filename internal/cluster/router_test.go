package cluster

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
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gtest"
	"repro/internal/server"
	"repro/internal/stream"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// testPoints is a six-point series rich enough to tell exact answers from
// approximate ones: static gender, time-varying publications, nodes that
// come and go, and edges that repeat across the shard boundary. Every
// appearance restates its static attributes (self-contained batches, the
// cluster's ingest contract).
func testPoints() []server.IngestRequest {
	node := func(label, gender, pubs string) server.IngestNode {
		return server.IngestNode{Label: label,
			Static:  map[string]string{"gender": gender},
			Varying: map[string]string{"publications": pubs}}
	}
	e := func(u, v string) server.IngestEdge { return server.IngestEdge{U: u, V: v} }
	return []server.IngestRequest{
		{Label: "t0", Nodes: []server.IngestNode{node("u1", "m", "1"), node("u2", "f", "2")},
			Edges: []server.IngestEdge{e("u1", "u2")}},
		{Label: "t1", Nodes: []server.IngestNode{node("u1", "m", "2"), node("u2", "f", "2"), node("u3", "f", "1")},
			Edges: []server.IngestEdge{e("u1", "u2"), e("u2", "u3")}},
		{Label: "t2", Nodes: []server.IngestNode{node("u2", "f", "3"), node("u3", "f", "1"), node("u4", "m", "1")},
			Edges: []server.IngestEdge{e("u2", "u3"), e("u3", "u4")}},
		{Label: "t3", Nodes: []server.IngestNode{node("u1", "m", "3"), node("u2", "f", "3"), node("u3", "f", "2"), node("u4", "m", "2")},
			Edges: []server.IngestEdge{e("u1", "u2"), e("u3", "u4"), e("u1", "u4")}},
		{Label: "t4", Nodes: []server.IngestNode{node("u1", "m", "3"), node("u2", "f", "1"), node("u5", "f", "1")},
			Edges: []server.IngestEdge{e("u1", "u2"), e("u2", "u5")}},
		{Label: "t5", Nodes: []server.IngestNode{node("u2", "f", "1"), node("u4", "m", "3"), node("u5", "f", "2")},
			Edges: []server.IngestEdge{e("u2", "u5"), e("u4", "u5")}},
	}
}

func postJSON(t *testing.T, url string, v any) (int, []byte, http.Header) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header
}

// newStreamServer builds a stream-mode server with the given points
// ingested, exposed through an httptest server.
func newStreamServer(t *testing.T, name, role string, pts []server.IngestRequest) *httptest.Server {
	t.Helper()
	s, err := server.New(server.Config{
		Series: stream.New(attrsFor()...), Logger: quietLogger(),
		ShardName: name, Role: role,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	for _, p := range pts {
		if code, data, _ := postJSON(t, ts.URL+"/v1/ingest", p); code != 200 {
			t.Fatalf("ingest %s into %s: %d: %s", p.Label, name, code, data)
		}
	}
	return ts
}

// attrsFor is the fixture schema: one static and one time-varying attribute.
func attrsFor() []core.AttrSpec {
	return []core.AttrSpec{
		{Name: "gender", Kind: core.Static},
		{Name: "publications", Kind: core.TimeVarying},
	}
}

// startCluster splits testPoints at the given cut indices into shards
// (cuts=[3] → shard a: t0..t2, shard b: t3..t5), builds a router over
// them plus a single-node reference with the full series, and returns
// both base URLs.
func startCluster(t *testing.T, cuts ...int) (routerURL, refURL string, rt *Router) {
	t.Helper()
	return startClusterOn(t, testPoints(), cuts...)
}

// startClusterOn is startCluster over the given points.
func startClusterOn(t *testing.T, pts []server.IngestRequest, cuts ...int) (routerURL, refURL string, rt *Router) {
	t.Helper()
	ref := newStreamServer(t, "", "", pts)
	bounds := append([]int{0}, cuts...)
	bounds = append(bounds, len(pts))
	var spec []string
	for i := 0; i+1 < len(bounds); i++ {
		name := fmt.Sprintf("s%d", i)
		ts := newStreamServer(t, name, "", pts[bounds[i]:bounds[i+1]])
		spec = append(spec, name+"="+ts.URL)
	}
	m, err := ParseShardMap(strings.Join(spec, ";"))
	if err != nil {
		t.Fatal(err)
	}
	rt, err = New(Config{Map: m, ProbeInterval: 25 * time.Millisecond, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	waitMirror(t, rt, len(pts))
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	return rts.URL, ref.URL, rt
}

// waitMirror blocks until the router's mirror has replicated n points
// (the tail shard replays in the background).
func waitMirror(t *testing.T, rt *Router, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for rt.mseries.Len() < n {
		if time.Now().After(deadline) {
			t.Fatalf("mirror stuck at %d/%d points", rt.mseries.Len(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// aggregate posts an aggregate request and returns the raw graph bytes
// plus the route header.
func aggregate(t *testing.T, base string, req server.AggregateRequest) ([]byte, string) {
	t.Helper()
	code, data, hdr := postJSON(t, base+"/v1/aggregate", req)
	if code != 200 {
		t.Fatalf("aggregate %+v = %d: %s", req, code, data)
	}
	var ar server.AggregateResponse
	if err := json.Unmarshal(data, &ar); err != nil {
		t.Fatal(err)
	}
	return ar.Graph, hdr.Get("X-Gt-Route")
}

func TestParseShardMap(t *testing.T) {
	m, err := ParseShardMap("a=http://h:1|http://h:2; b=http://h:3/")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Shards) != 2 || m.Tail() != 1 {
		t.Fatalf("shards = %+v", m.Shards)
	}
	if p := m.Shards[0].Primary(); p.URL != "http://h:1" || p.Role != "primary" {
		t.Fatalf("primary = %+v", p)
	}
	if r := m.Shards[0].Members[1]; r.URL != "http://h:2" || r.Role != "replica" {
		t.Fatalf("replica = %+v", r)
	}
	if got := m.Shards[1].Primary().URL; got != "http://h:3" {
		t.Fatalf("trailing slash not trimmed: %q", got)
	}
	for _, bad := range []string{"", "a=", "a=notaurl", "a=http://h:1;a=http://h:2", "=http://h:1"} {
		if _, err := ParseShardMap(bad); err == nil {
			t.Errorf("ParseShardMap(%q) accepted", bad)
		}
	}
}

// TestScatterByteIdentity is the acceptance criterion for the exact
// merge: every aggregate answered through the router — scattered unions,
// single-shard projects, and mirror-served multi-shard projects — is
// byte-identical to the single-node answer, across shard counts, kinds
// and boundary-spanning intervals. Union requests must take the scatter
// path; single-shard projects scatter as one slice; multi-shard projects
// (intersection semantics) fall back to the mirror.
func TestScatterByteIdentity(t *testing.T) {
	iv := func(from, to string) server.IntervalSpec { return server.IntervalSpec{From: from, To: to} }
	cases := []server.AggregateRequest{
		{Op: "project", Interval: iv("t0", "t5"), Attrs: []string{"gender"}},
		{Op: "project", Interval: iv("t1", "t4"), Attrs: []string{"gender"}, Kind: "all"},
		{Op: "project", Interval: iv("t2", "t3"), Attrs: []string{"gender", "publications"}},
		{Op: "project", Interval: iv("t2", ""), Attrs: []string{"publications"}, Kind: "all"},
		{Op: "union", Interval: iv("t0", "t1"), Interval2: iv("t3", "t5"), Attrs: []string{"gender"}},
		{Op: "union", Interval: iv("t0", "t3"), Interval2: iv("t2", "t5"), Attrs: []string{"gender"}, Kind: "all"},
		{Op: "union", Interval: iv("t1", "t2"), Interval2: iv("t2", "t4"), Attrs: []string{"gender", "publications"}},
	}
	for _, cuts := range [][]int{{3}, {2, 4}} {
		routerURL, refURL, _ := startCluster(t, cuts...)
		for _, req := range cases {
			want, _ := aggregate(t, refURL, req)
			got, route := aggregate(t, routerURL, req)
			if req.Op == "union" && route != "scatter" {
				t.Errorf("cuts=%v union %s: route = %q, want scatter", cuts, req.Interval.From, route)
			}
			if !bytes.Equal(want, got) {
				t.Errorf("cuts=%v %+v diverged:\n single %s\n router %s", cuts, req, want, got)
			}
		}
		// Route sanity at this cut set: a single-point project lands in one
		// shard and scatters as one slice.
		_, route := aggregate(t, routerURL, server.AggregateRequest{
			Op: "project", Interval: iv("t2", ""), Attrs: []string{"gender"}})
		if route != "scatter" {
			t.Errorf("cuts=%v single-shard project route = %q, want scatter", cuts, route)
		}
		// A boundary-spanning project is intersection-semantics and must be
		// served by the mirror.
		_, route = aggregate(t, routerURL, server.AggregateRequest{
			Op: "project", Interval: iv("t0", "t5"), Attrs: []string{"gender"}})
		if route != "mirror" {
			t.Errorf("cuts=%v spanning project route = %q, want mirror", cuts, route)
		}
	}
}

// TestScatterByteIdentityOnNastyValues: the router's scatter answer goes
// through the same encoder, wire order and envelope as a single node's, so
// the whole body (modulo source and elapsed_ms) stays byte-identical on
// values that collide labels, that order differently as a concatenated edge
// key than as a pair, and that need every JSON escape. (Invalid UTF-8 is
// already U+FFFD on both sides: it cannot cross the JSON ingest.)
func TestScatterByteIdentityOnNastyValues(t *testing.T) {
	vals := gtest.NastyValues
	var pts []server.IngestRequest
	for p := 0; p < 4; p++ {
		req := server.IngestRequest{Label: fmt.Sprintf("t%d", p)}
		for i, v := range vals {
			req.Nodes = append(req.Nodes, server.IngestNode{Label: fmt.Sprintf("u%d", i),
				Static:  map[string]string{"gender": v},
				Varying: map[string]string{"publications": vals[(i+p)%len(vals)]}})
			for _, d := range []int{1, 5} {
				req.Edges = append(req.Edges, server.IngestEdge{U: fmt.Sprintf("u%d", i), V: fmt.Sprintf("u%d", (i+d)%len(vals))})
			}
		}
		pts = append(pts, req)
	}
	routerURL, refURL, _ := startClusterOn(t, pts, 2)
	volatile := regexp.MustCompile(`^\{"source":"[^"]*","elapsed_ms":[0-9.]+,`)
	for _, kind := range []string{"dist", "all"} {
		for _, attrs := range [][]string{{"gender", "publications"}, {"publications", "gender"}} {
			req := server.AggregateRequest{Op: "union", Kind: kind, Attrs: attrs,
				Interval:  server.IntervalSpec{From: "t0", To: "t1"},
				Interval2: server.IntervalSpec{From: "t1", To: "t3"}}
			code, want, _ := postJSON(t, refURL+"/v1/aggregate", req)
			if code != 200 {
				t.Fatalf("single node = %d: %s", code, want)
			}
			code, got, hdr := postJSON(t, routerURL+"/v1/aggregate", req)
			if code != 200 || hdr.Get("X-Gt-Route") != "scatter" {
				t.Fatalf("router = %d via %q: %s", code, hdr.Get("X-Gt-Route"), got)
			}
			if !volatile.Match(got) || !bytes.Equal(volatile.ReplaceAll(got, nil), volatile.ReplaceAll(want, nil)) {
				t.Errorf("%s %v diverged:\n single %s\n router %s", kind, attrs, want, got)
			}
			if hdr.Get("Content-Length") != strconv.Itoa(len(got)) {
				t.Errorf("router Content-Length = %q for a %d-byte body", hdr.Get("Content-Length"), len(got))
			}
		}
	}
}

// TestMirrorByteIdentity covers the non-decomposable paths: intersection
// and difference aggregates, exploration and TGQL answered by the mirror
// must equal the single-node responses byte for byte (modulo timing).
func TestMirrorByteIdentity(t *testing.T) {
	routerURL, refURL, _ := startCluster(t, 3)
	iv := func(from, to string) server.IntervalSpec { return server.IntervalSpec{From: from, To: to} }
	for _, req := range []server.AggregateRequest{
		{Op: "intersection", Interval: iv("t0", "t2"), Interval2: iv("t3", "t5"), Attrs: []string{"gender"}},
		{Op: "difference", Interval: iv("t0", "t2"), Interval2: iv("t3", "t5"), Attrs: []string{"gender"}, Kind: "all"},
	} {
		want, _ := aggregate(t, refURL, req)
		got, route := aggregate(t, routerURL, req)
		if route != "mirror" {
			t.Errorf("%s: route = %q, want mirror", req.Op, route)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%s diverged:\n single %s\n router %s", req.Op, want, got)
		}
	}

	exploreReq := server.ExploreRequest{
		Event: "growth", Semantics: "union", Extend: "old", K: 1, Attrs: []string{"gender"},
	}
	code, refData, _ := postJSON(t, refURL+"/v1/explore", exploreReq)
	if code != 200 {
		t.Fatalf("single explore = %d: %s", code, refData)
	}
	code, gotData, hdr := postJSON(t, routerURL+"/v1/explore", exploreReq)
	if code != 200 {
		t.Fatalf("router explore = %d: %s", code, gotData)
	}
	if hdr.Get("X-Gt-Route") != "mirror" {
		t.Errorf("explore route = %q", hdr.Get("X-Gt-Route"))
	}
	if b, a := stripElapsed(t, refData), stripElapsed(t, gotData); !bytes.Equal(b, a) {
		t.Errorf("explore diverged:\n single %s\n router %s", b, a)
	}

	tq := server.TGQLRequest{Query: "AGG DIST gender ON INTERSECT(t0..t2, t3..t5)"}
	code, refData, _ = postJSON(t, refURL+"/v1/tgql", tq)
	if code != 200 {
		t.Fatalf("single tgql = %d: %s", code, refData)
	}
	code, gotData, _ = postJSON(t, routerURL+"/v1/tgql", tq)
	if code != 200 {
		t.Fatalf("router tgql = %d: %s", code, gotData)
	}
	if !bytes.Equal(refData, gotData) {
		t.Errorf("tgql diverged:\n single %s\n router %s", refData, gotData)
	}

	// Canonical error fidelity: an unknown time point produces the exact
	// single-node error envelope through the router.
	bad := server.AggregateRequest{Op: "project", Interval: iv("nope", ""), Attrs: []string{"gender"}}
	refCode, refErr, _ := postJSON(t, refURL+"/v1/aggregate", bad)
	gotCode, gotErr, _ := postJSON(t, routerURL+"/v1/aggregate", bad)
	if refCode != gotCode || !bytes.Equal(refErr, gotErr) {
		t.Errorf("error envelope diverged: single %d %s vs router %d %s", refCode, refErr, gotCode, gotErr)
	}
}

// TestRouterAndDaemonRejectTheSameBodies: the router decides a route from
// the same strict decoding the daemons run, so every body gets one verdict
// whichever process it reaches — a retired workers field or anything after
// the request object is the daemon's canonical 400 through the router too,
// not a scattered 200.
func TestRouterAndDaemonRejectTheSameBodies(t *testing.T) {
	routerURL, refURL, _ := startCluster(t, 3)
	const obj = `{"op":"union","interval":{"from":"t0","to":"t1"},"interval2":{"from":"t3","to":"t5"},"attrs":["gender"]}`
	for _, tc := range []struct {
		name, body string
		code       int
	}{
		{"valid", obj, http.StatusOK},
		{"workers", obj[:len(obj)-1] + `,"workers":2}`, http.StatusBadRequest},
		{"trailing bytes", obj + " trailing", http.StatusBadRequest},
		{"two objects", obj + obj, http.StatusBadRequest},
	} {
		post := func(base string) (int, []byte) {
			resp, err := http.Post(base+"/v1/aggregate", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				return resp.StatusCode, data
			}
			var m map[string]any
			if err := json.Unmarshal(data, &m); err != nil {
				t.Fatal(err)
			}
			delete(m, "source") // the router reports scatter(n)
			delete(m, "elapsed_ms")
			if data, err = json.Marshal(m); err != nil {
				t.Fatal(err)
			}
			return resp.StatusCode, data
		}
		refCode, refBody := post(refURL)
		gotCode, gotBody := post(routerURL)
		if refCode != tc.code || gotCode != refCode || !bytes.Equal(gotBody, refBody) {
			t.Errorf("%s: single %d %s vs router %d %s, want both %d", tc.name, refCode, refBody, gotCode, gotBody, tc.code)
		}
	}
}

// stripElapsed zeroes the elapsed_ms field of a JSON response.
func stripElapsed(t *testing.T, data []byte) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "elapsed_ms")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReplicaFailover builds a shard with a WAL-fed replica, kills the
// primary, and checks reads keep flowing with byte-identical answers;
// killing the replica too must surface 503 + Retry-After in the unified
// envelope, never a silently wrong answer.
func TestReplicaFailover(t *testing.T) {
	pts := testPoints()
	ref := newStreamServer(t, "", "", pts)

	// Shard a (t0..t2): primary plus a replica that replicates over the
	// real WAL stream. Shard b (t3..t5) is the tail.
	primA := newStreamServer(t, "a", "", pts[:3])
	replSeries := stream.New(attrsFor()...)
	replSrv, err := server.New(server.Config{
		Series: replSeries, Logger: quietLogger(), ShardName: "a", Role: server.RoleReplica,
	})
	if err != nil {
		t.Fatal(err)
	}
	replA := httptest.NewServer(replSrv.Handler())
	t.Cleanup(replA.Close)
	f := &Follower{
		Pick:  func() (string, error) { return primA.URL, nil },
		Apply: replSeries.AppendAt,
		Len:   replSeries.Len,
		Log:   quietLogger(),
	}
	for replSeries.Len() < 3 {
		if _, err := f.Poll(context.Background()); err != nil {
			t.Fatalf("replica catch-up: %v", err)
		}
	}
	primB := newStreamServer(t, "b", "", pts[3:])

	m, err := ParseShardMap("a=" + primA.URL + "|" + replA.URL + ";b=" + primB.URL)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{Map: m, ProbeInterval: 20 * time.Millisecond, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	// The tail shard replays into the mirror in the background, and the router
	// resolves labels against the mirror's timeline: wait for t3..t5 to land.
	waitMirror(t, rt, len(pts))
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)

	req := server.AggregateRequest{
		Op: "union", Interval: server.IntervalSpec{From: "t0", To: "t2"},
		Interval2: server.IntervalSpec{From: "t3", To: "t5"}, Attrs: []string{"gender"},
	}
	want, _ := aggregate(t, ref.URL, req)
	got, route := aggregate(t, rts.URL, req)
	if route != "scatter" || !bytes.Equal(want, got) {
		t.Fatalf("pre-failover: route=%s\n single %s\n router %s", route, want, got)
	}

	// Kill shard a's primary: the scatter must fail over to the replica
	// (possibly before the health loop notices) and stay byte-identical.
	primA.Close()
	got, route = aggregate(t, rts.URL, req)
	if route != "scatter" {
		t.Errorf("post-failover route = %q", route)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("post-failover diverged:\n single %s\n router %s", want, got)
	}

	// Kill the replica too: shard a has no live member, so the scattered
	// read must shed with 503 + Retry-After in the error envelope.
	replA.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		code, data, hdr := postJSON(t, rts.URL+"/v1/aggregate", req)
		if code == http.StatusServiceUnavailable {
			if hdr.Get("Retry-After") == "" {
				t.Errorf("503 without Retry-After")
			}
			var eb struct {
				Error server.ErrorDetail `json:"error"`
			}
			if err := json.Unmarshal(data, &eb); err != nil || eb.Error.Code != "unavailable" {
				t.Errorf("503 envelope = %s", data)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard never became unavailable: %d %s", code, data)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestIngestThroughRouter routes a write to the tail primary, checks the
// global point-count rewrite, waits for mirror visibility, and verifies a
// query spanning the new point is byte-identical to a single node that
// ingested the same series.
func TestIngestThroughRouter(t *testing.T) {
	routerURL, refURL, rt := startCluster(t, 3)
	extra := server.IngestRequest{
		Label: "t6",
		Nodes: []server.IngestNode{{Label: "u1",
			Static: map[string]string{"gender": "m"}, Varying: map[string]string{"publications": "4"}}},
		Edges: []server.IngestEdge{{U: "u1", V: "u1"}},
	}
	code, data, _ := postJSON(t, routerURL+"/v1/ingest", extra)
	if code != 200 {
		t.Fatalf("routed ingest = %d: %s", code, data)
	}
	var ir server.IngestResponse
	if err := json.Unmarshal(data, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Points != 7 {
		t.Fatalf("routed ingest points = %d, want global 7", ir.Points)
	}
	// Mirror the write into the reference node and wait for replication.
	if code, data, _ := postJSON(t, refURL+"/v1/ingest", extra); code != 200 {
		t.Fatalf("reference ingest = %d: %s", code, data)
	}
	deadline := time.Now().Add(2 * time.Second)
	for rt.mseries.Len() < 7 {
		if time.Now().After(deadline) {
			t.Fatalf("mirror never reached 7 points (at %d)", rt.mseries.Len())
		}
		time.Sleep(10 * time.Millisecond)
	}
	req := server.AggregateRequest{
		Op: "project", Interval: server.IntervalSpec{From: "t4", To: "t6"}, Attrs: []string{"gender"},
	}
	want, _ := aggregate(t, refURL, req)
	got, route := aggregate(t, routerURL, req)
	if route != "scatter" {
		t.Errorf("route = %q", route)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("post-ingest diverged:\n single %s\n router %s", want, got)
	}

	// A write must never land on a replica: the shard-side guard answers
	// 409 in the envelope.
	replSrv, err := server.New(server.Config{
		Series: stream.New(attrsFor()...), Logger: quietLogger(), ShardName: "x", Role: server.RoleReplica,
	})
	if err != nil {
		t.Fatal(err)
	}
	replTS := httptest.NewServer(replSrv.Handler())
	t.Cleanup(replTS.Close)
	code, data, _ = postJSON(t, replTS.URL+"/v1/ingest", extra)
	if code != http.StatusConflict {
		t.Fatalf("replica ingest = %d: %s", code, data)
	}
}

// TestClusterStatus sanity-checks the control-plane view: pinned starts,
// frozen flags, member health and the mirror watermark.
func TestClusterStatus(t *testing.T) {
	routerURL, _, _ := startCluster(t, 2, 4)
	resp, err := http.Get(routerURL + "/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cs ClusterStatus
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		t.Fatal(err)
	}
	if len(cs.Shards) != 3 {
		t.Fatalf("shards = %+v", cs.Shards)
	}
	wantStarts := []int{0, 2, 4}
	for i, sh := range cs.Shards {
		if sh.Start != wantStarts[i] {
			t.Errorf("shard %s start = %d, want %d", sh.Name, sh.Start, wantStarts[i])
		}
		if frozen := i != 2; sh.Frozen != frozen {
			t.Errorf("shard %s frozen = %v", sh.Name, sh.Frozen)
		}
		for _, mem := range sh.Members {
			if !mem.Alive || mem.Lag != 0 {
				t.Errorf("member %s: %+v", mem.URL, mem)
			}
		}
	}
	if cs.MirrorPoints != 6 || cs.GlobalPoints != 6 || cs.MirrorLag != 0 {
		t.Errorf("watermarks = %+v", cs)
	}

	var rs RouterStatus
	resp2, err := http.Get(routerURL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&rs); err != nil {
		t.Fatal(err)
	}
	if rs.Role != "router" || rs.Points != 6 || rs.Shards != 3 {
		t.Errorf("router status = %+v", rs)
	}
}

// lockedBuffer is a log sink safe to read while servers write.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.String()
}

// TestRequestIDFollowsHops: one id follows a request across processes — the
// router adopts the client's X-Request-Id (or mints one), echoes it, and
// forwards it on its shard posts and mirror hand-offs, so the shard's and the
// mirror's access-log lines carry the id the client holds.
func TestRequestIDFollowsHops(t *testing.T) {
	var logs lockedBuffer // shards, mirror and router share one sink
	log := slog.New(slog.NewTextHandler(&logs, nil))
	pts := testPoints()
	var spec []string
	for i, part := range [][]server.IngestRequest{pts[:3], pts[3:]} {
		s, err := server.New(server.Config{Series: stream.New(attrsFor()...), Logger: log.With("shard", i),
			ShardName: fmt.Sprintf("s%d", i), Partial: true})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		for _, p := range part {
			if code, data, _ := postJSON(t, ts.URL+"/v1/ingest", p); code != 200 {
				t.Fatalf("ingest %s: %d: %s", p.Label, code, data)
			}
		}
		spec = append(spec, fmt.Sprintf("s%d=%s", i, ts.URL))
	}
	m, err := ParseShardMap(strings.Join(spec, ";"))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{Map: m, ProbeInterval: 25 * time.Millisecond, Logger: log})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	waitMirror(t, rt, len(pts))
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)

	send := func(path string, body any, id string) (route, echoed string) {
		t.Helper()
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, rts.URL+path, bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			req.Header.Set("X-Request-Id", id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if data, _ := io.ReadAll(resp.Body); resp.StatusCode != 200 {
			t.Fatalf("%s = %d: %s", path, resp.StatusCode, data)
		}
		return resp.Header.Get("X-Gt-Route"), resp.Header.Get("X-Request-Id")
	}
	union := server.AggregateRequest{Op: "union", Interval: server.IntervalSpec{From: "t0", To: "t1"},
		Interval2: server.IntervalSpec{From: "t3", To: "t5"}, Attrs: []string{"gender"}}

	if route, echoed := send("/v1/aggregate", union, "trace-scatter"); route != "scatter" || echoed != "trace-scatter" {
		t.Fatalf("scatter: route %q, echoed id %q", route, echoed)
	}
	for shard := 0; shard < 2; shard++ {
		if !containsLine(logs.String(), "endpoint=partial", fmt.Sprintf("shard=%d", shard), "request_id=trace-scatter") {
			t.Errorf("shard %d logged no partial request under the client's id:\n%s", shard, logs.String())
		}
	}
	if route, echoed := send("/v1/tgql", server.TGQLRequest{Query: "TIMELINE BY gender"}, "trace-mirror"); route != "mirror" || echoed != "trace-mirror" {
		t.Fatalf("mirror: route %q, echoed id %q", route, echoed)
	}
	if !containsLine(logs.String(), "endpoint=tgql", "request_id=trace-mirror", "component=mirror") {
		t.Errorf("the mirror logged no tgql request under the client's id:\n%s", logs.String())
	}
	_, minted := send("/v1/aggregate", union, "")
	if minted == "" || !containsLine(logs.String(), "endpoint=partial", "request_id="+minted) {
		t.Errorf("router-minted id %q did not reach a shard:\n%s", minted, logs.String())
	}
}

// containsLine reports whether one line of text contains every fragment.
func containsLine(text string, fragments ...string) bool {
lines:
	for _, line := range strings.Split(text, "\n") {
		for _, f := range fragments {
			if !strings.Contains(line, f) {
				continue lines
			}
		}
		return true
	}
	return false
}
