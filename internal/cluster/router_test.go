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
	"sync/atomic"
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
	for _, bad := range []string{"", "a=", "a=notaurl", "a=http://h:1;a=http://h:2", "=http://h:1",
		"a=http://h:1;b=http://h:1", "a=http://h:1|http://h:1/"} {
		if _, err := ParseShardMap(bad); err == nil {
			t.Errorf("ParseShardMap(%q) accepted", bad)
		}
	}
}

// newReplica starts a replica of the shard whose primary is at primaryURL
// and feeds it the primary's n points over the real WAL stream.
func newReplica(t *testing.T, name, primaryURL string, n int) *httptest.Server {
	t.Helper()
	series := stream.New(attrsFor()...)
	srv, err := server.New(server.Config{
		Series: series, Logger: quietLogger(), ShardName: name, Role: server.RoleReplica,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	f := &Follower{
		Pick:  func() (string, error) { return primaryURL, nil },
		Apply: series.AppendRecord,
		Len:   series.Len,
		Log:   quietLogger(),
	}
	for series.Len() < n {
		if _, err := f.Poll(context.Background()); err != nil {
			t.Fatalf("replica catch-up: %v", err)
		}
	}
	return ts
}

// startReplicatedCluster splits pts at cut into frozen shard a (a primary
// plus a WAL-fed replica) and tail shard b, and starts a router over them
// and a single-node reference holding every point. It returns the router
// and reference URLs, shard a's members and shard b's primary.
func startReplicatedCluster(t *testing.T, pts []server.IngestRequest, cut int) (routerURL, refURL string, shardA []*httptest.Server, primB *httptest.Server) {
	t.Helper()
	ref := newStreamServer(t, "", "", pts)
	primA := newStreamServer(t, "a", "", pts[:cut])
	replA := newReplica(t, "a", primA.URL, cut)
	primB = newStreamServer(t, "b", "", pts[cut:])
	m, err := ParseShardMap("a=" + primA.URL + "|" + replA.URL + ";b=" + primB.URL)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{Map: m, ProbeInterval: 20 * time.Millisecond, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	waitMirror(t, rt, len(pts))
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	return rts.URL, ref.URL, []*httptest.Server{primA, replA}, primB
}

// nastyPoints is a four-point series over gtest.NastyValues: values that
// collide labels, that order differently as a concatenated edge key than
// as a pair, and that need every JSON escape.
func nastyPoints() []server.IngestRequest {
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
	return pts
}

// routerTable is the router ≡ single-node table over a series whose tail
// shard starts at point cut (2 ≤ cut ≤ len(labels)-2): every temporal
// operator under both kinds and two attribute orders, on operands inside
// the frozen shard, inside the tail, spanning the boundary, and as explicit
// point sets.
func routerTable(labels []string, cut int) map[string]server.AggregateRequest {
	last := len(labels) - 1
	iv := func(from, to int) server.IntervalSpec {
		return server.IntervalSpec{From: labels[from], To: labels[to]}
	}
	pts := func(ix ...int) server.IntervalSpec {
		var sp server.IntervalSpec
		for _, i := range ix {
			sp.Points = append(sp.Points, labels[i])
		}
		return sp
	}
	operands := []struct {
		name string
		a, b server.IntervalSpec
	}{
		{"frozen", iv(0, 0), iv(1, cut-1)},
		{"tail", iv(cut, cut), iv(cut+1, last)},
		{"spanning", iv(0, cut), iv(cut-1, last)},
		{"points", pts(0, cut), pts(cut-1, last)},
	}
	table := make(map[string]server.AggregateRequest)
	for _, op := range []string{"union", "project", "intersection", "difference"} {
		for _, kind := range []string{"dist", "all"} {
			for _, attrs := range [][]string{{"gender"}, {"publications", "gender"}} {
				for _, o := range operands {
					req := server.AggregateRequest{Op: op, Kind: kind, Attrs: attrs, Interval: o.a}
					if op != "project" {
						req.Interval2 = o.b
					}
					table[fmt.Sprintf("%s/%s/%s/%s", op, kind, strings.Join(attrs, "+"), o.name)] = req
				}
			}
		}
	}
	return table
}

// elapsedField is the one field of an aggregate body that describes the
// run rather than the answer.
var elapsedField = regexp.MustCompile(`"elapsed_ms":[0-9.]+`)

// checkRouterMatchesSingleNode runs the table against the router and the
// reference: every body must be byte-identical with elapsed_ms stripped,
// and every routed answer must come from the mirror.
func checkRouterMatchesSingleNode(t *testing.T, routerURL, refURL string, table map[string]server.AggregateRequest) {
	t.Helper()
	for name, req := range table {
		code, want, _ := postJSON(t, refURL+"/v1/aggregate", req)
		if code != http.StatusOK {
			t.Fatalf("%s: single node = %d: %s", name, code, want)
		}
		code, got, hdr := postJSON(t, routerURL+"/v1/aggregate", req)
		if code != http.StatusOK || hdr.Get("X-Gt-Route") != "mirror" {
			t.Fatalf("%s: router = %d via %q: %s", name, code, hdr.Get("X-Gt-Route"), got)
		}
		if !bytes.Equal(elapsedField.ReplaceAll(got, nil), elapsedField.ReplaceAll(want, nil)) {
			t.Errorf("%s diverged:\n single %s\n router %s", name, want, got)
		}
		if hdr.Get("Content-Length") != strconv.Itoa(len(got)) {
			t.Errorf("%s: router Content-Length = %q for a %d-byte body", name, hdr.Get("Content-Length"), len(got))
		}
	}
}

// TestRouterMatchesSingleNode is the router's exactness criterion: every
// aggregate in routerTable answers through the router with the single
// node's bytes, on the fixture series and on gtest.NastyValues, and still
// does after every member of frozen shard a is killed — frozen history
// lives in the mirror, so reads do not depend on shard liveness.
func TestRouterMatchesSingleNode(t *testing.T) {
	for _, fx := range []struct {
		name string
		pts  []server.IngestRequest
		cut  int
	}{
		{"fixture", testPoints(), 3},
		{"nasty", nastyPoints(), 2},
	} {
		t.Run(fx.name, func(t *testing.T) {
			var labels []string
			for _, p := range fx.pts {
				labels = append(labels, p.Label)
			}
			table := routerTable(labels, fx.cut)
			routerURL, refURL, shardA, _ := startReplicatedCluster(t, fx.pts, fx.cut)
			checkRouterMatchesSingleNode(t, routerURL, refURL, table)
			for _, member := range shardA {
				member.Close()
			}
			checkRouterMatchesSingleNode(t, routerURL, refURL, table)
		})
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

// TestMirrorRepeatedReadsKeepTheirBytes: graph-carrying reads asked three
// times through the router — union-ALL the mirror's catalog caches, a
// DIST intersection its memo keeps, and their TGQL forms — answer each time
// what a single node asked the same sequence answers, elapsed_ms aside, and
// every repeat carries the first answer's graph.
func TestMirrorRepeatedReadsKeepTheirBytes(t *testing.T) {
	routerURL, refURL, _ := startCluster(t, 3)
	iv := func(from, to string) server.IntervalSpec { return server.IntervalSpec{From: from, To: to} }
	reads := []struct {
		path string
		body any
	}{
		{"/v1/aggregate", server.AggregateRequest{Op: "union", Kind: "all", Interval: iv("t0", "t2"), Interval2: iv("t3", "t5"), Attrs: []string{"gender", "publications"}}},
		{"/v1/aggregate", server.AggregateRequest{Op: "intersection", Interval: iv("t0", "t2"), Interval2: iv("t3", "t5"), Attrs: []string{"publications"}}},
		{"/v1/tgql", server.TGQLRequest{Query: "AGG ALL gender, publications ON UNION(t0..t2, t3..t5)"}},
		{"/v1/tgql", server.TGQLRequest{Query: "AGG DIST publications ON INTERSECT(t0..t2, t3..t5)"}},
	}
	for _, r := range reads {
		var first json.RawMessage
		for ask := 0; ask < 3; ask++ {
			code, want, _ := postJSON(t, refURL+r.path, r.body)
			if code != http.StatusOK {
				t.Fatalf("%+v: single node = %d: %s", r.body, code, want)
			}
			code, got, hdr := postJSON(t, routerURL+r.path, r.body)
			if code != http.StatusOK || hdr.Get("X-Gt-Route") != "mirror" {
				t.Fatalf("%+v: router = %d via %q: %s", r.body, code, hdr.Get("X-Gt-Route"), got)
			}
			if !bytes.Equal(elapsedField.ReplaceAll(got, nil), elapsedField.ReplaceAll(want, nil)) {
				t.Errorf("%+v ask %d diverged:\n single %s\n router %s", r.body, ask, want, got)
			}
			var reply struct{ Graph json.RawMessage }
			if err := json.Unmarshal(got, &reply); err != nil || reply.Graph == nil {
				t.Fatalf("%+v: no graph in %s (%v)", r.body, got, err)
			}
			if first == nil {
				first = reply.Graph
			} else if !bytes.Equal(reply.Graph, first) {
				t.Errorf("%+v ask %d: graph\n%s\nwant the first answer's\n%s", r.body, ask, reply.Graph, first)
			}
		}
	}
}

// TestRouterAndDaemonRejectTheSameBodies: every body gets one verdict
// whichever process it reaches — a retired workers field or anything after
// the request object is the daemon's canonical 400 through the router too,
// and an ingest body over the daemon's limit is the daemon's 413, not a
// truncated body forwarded to the primary.
func TestRouterAndDaemonRejectTheSameBodies(t *testing.T) {
	routerURL, refURL, _ := startCluster(t, 3)
	const obj = `{"op":"union","interval":{"from":"t0","to":"t1"},"interval2":{"from":"t3","to":"t5"},"attrs":["gender"]}`
	const point = `{"label":"t6","nodes":[{"label":"u1","static":{"gender":"m"}}]}`
	for _, tc := range []struct {
		name, path, body string
		code             int
	}{
		{"valid", "/v1/aggregate", obj, http.StatusOK},
		{"workers", "/v1/aggregate", obj[:len(obj)-1] + `,"workers":2}`, http.StatusBadRequest},
		{"trailing bytes", "/v1/aggregate", obj + " trailing", http.StatusBadRequest},
		{"two objects", "/v1/aggregate", obj + obj, http.StatusBadRequest},
		{"oversize ingest", "/v1/ingest",
			strings.Repeat(" ", server.DefaultMaxBodyBytes+1-len(point)) + point, http.StatusRequestEntityTooLarge},
	} {
		post := func(base string) (int, []byte) {
			resp, err := http.Post(base+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			return resp.StatusCode, elapsedField.ReplaceAll(data, nil)
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

// TestReplicaFailover: reads never touch a shard, so killing every member
// of frozen shard a leaves them byte-identical; writes go to the tail
// primary only, so killing it makes a routed ingest 503 + Retry-After in
// the error envelope — never a write promoted onto a replica.
func TestReplicaFailover(t *testing.T) {
	pts := testPoints()
	routerURL, refURL, shardA, primB := startReplicatedCluster(t, pts, 3)
	reads := map[string]any{
		"/v1/aggregate": server.AggregateRequest{Op: "union", Attrs: []string{"gender"},
			Interval: server.IntervalSpec{From: "t0", To: "t2"}, Interval2: server.IntervalSpec{From: "t3", To: "t5"}},
		"/v1/explore": server.ExploreRequest{Event: "growth", Semantics: "union", Extend: "old", K: 1, Attrs: []string{"gender"}},
		"/v1/tgql":    server.TGQLRequest{Query: "AGG ALL gender ON INTERSECT(t0..t2, t3..t5)"},
	}
	checkReads := func(phase string) {
		t.Helper()
		for path, req := range reads {
			_, want, _ := postJSON(t, refURL+path, req)
			code, got, hdr := postJSON(t, routerURL+path, req)
			if code != http.StatusOK || hdr.Get("X-Gt-Route") != "mirror" {
				t.Fatalf("%s %s = %d via %q: %s", phase, path, code, hdr.Get("X-Gt-Route"), got)
			}
			if !bytes.Equal(elapsedField.ReplaceAll(got, nil), elapsedField.ReplaceAll(want, nil)) {
				t.Errorf("%s %s diverged:\n single %s\n router %s", phase, path, want, got)
			}
		}
	}
	checkReads("healthy")
	for _, member := range shardA {
		member.Close()
	}
	checkReads("shard a down")

	primB.Close()
	code, data, hdr := postJSON(t, routerURL+"/v1/ingest", server.IngestRequest{Label: "t6",
		Nodes: []server.IngestNode{{Label: "u1", Static: map[string]string{"gender": "m"}}}})
	if code != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Fatalf("ingest with the tail primary down = %d (Retry-After %q): %s", code, hdr.Get("Retry-After"), data)
	}
	var eb struct {
		Error server.ErrorDetail `json:"error"`
	}
	if err := json.Unmarshal(data, &eb); err != nil || eb.Error.Code != "unavailable" {
		t.Errorf("503 envelope = %s", data)
	}
	checkReads("tail primary down")
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
	if route != "mirror" {
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

// TestIngestIsForwardedOnce: the tail primary applies a write and the
// connection then drops before the reply. The router must answer 503 +
// Retry-After — not resend the batch and relay the primary's duplicate-label
// 400 — and the series must hold the write exactly once.
func TestIngestIsForwardedOnce(t *testing.T) {
	pts := testPoints()
	shardA := newStreamServer(t, "a", "", pts[:3])
	series := stream.New(attrsFor()...)
	srv, err := server.New(server.Config{Series: series, Logger: quietLogger(), ShardName: "b"})
	if err != nil {
		t.Fatal(err)
	}
	real := srv.Handler()
	for _, p := range pts[3:] {
		body, _ := json.Marshal(p)
		rec := httptest.NewRecorder()
		real.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("ingest %s: %d: %s", p.Label, rec.Code, rec.Body)
		}
	}
	// The fake primary serves every route from the real stream server, but
	// loses the reply of the first ingest it applies; a resend would get the
	// real server's answer.
	var dropped atomic.Bool
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/ingest" || dropped.Swap(true) {
			real.ServeHTTP(w, r)
			return
		}
		real.ServeHTTP(httptest.NewRecorder(), r)
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		conn.Close()
	}))
	t.Cleanup(fake.Close)
	m, err := ParseShardMap("a=" + shardA.URL + ";b=" + fake.URL)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{Map: m, ProbeInterval: 25 * time.Millisecond, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)

	before := series.Len()
	code, data, hdr := postJSON(t, rts.URL+"/v1/ingest", server.IngestRequest{Label: "t6",
		Nodes: []server.IngestNode{{Label: "u1", Static: map[string]string{"gender": "m"}}}})
	if code != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Errorf("ingest with a lost reply = %d (Retry-After %q): %s", code, hdr.Get("Retry-After"), data)
	}
	if got := series.Len(); got != before+1 {
		t.Errorf("tail series holds %d points after one write, want %d", got, before+1)
	}
	waitMirror(t, rt, len(pts)+1)
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
// forwards it on its mirror hand-offs and ingest forwards, so the mirror's
// and the tail shard's access-log lines carry the id the client holds.
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

	if route, echoed := send("/v1/aggregate", union, "trace-mirror"); route != "mirror" || echoed != "trace-mirror" {
		t.Fatalf("aggregate: route %q, echoed id %q", route, echoed)
	}
	if !containsLine(logs.String(), "endpoint=aggregate", "request_id=trace-mirror", "component=mirror") {
		t.Errorf("the mirror logged no aggregate request under the client's id:\n%s", logs.String())
	}
	ingest := server.IngestRequest{Label: "t6", Nodes: []server.IngestNode{{Label: "u1", Static: map[string]string{"gender": "m"}}}}
	if route, echoed := send("/v1/ingest", ingest, "trace-ingest"); route != "" || echoed != "trace-ingest" {
		t.Fatalf("ingest: route %q, echoed id %q", route, echoed)
	}
	if !containsLine(logs.String(), "endpoint=ingest", "shard=1", "request_id=trace-ingest") {
		t.Errorf("the tail shard logged no ingest under the client's id:\n%s", logs.String())
	}
	_, minted := send("/v1/tgql", server.TGQLRequest{Query: "TIMELINE BY gender"}, "")
	if minted == "" || !containsLine(logs.String(), "endpoint=tgql", "request_id="+minted, "component=mirror") {
		t.Errorf("router-minted id %q did not reach the mirror:\n%s", minted, logs.String())
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
