package cluster

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/internal/stream"
)

// The analytics family (EVENTS/PATHS/TREND) is never scattered: the
// router answers every analytics statement from its full-timeline mirror,
// byte-identical to a single node holding the whole series, and a shard
// daemon (Partial) refuses analytics outright with the typed 400.

func TestAnalyticsMirrorByteIdentity(t *testing.T) {
	routerURL, refURL, _ := startCluster(t, 3)

	// The windows split across the shard cut at t3, which only the
	// mirror's full timeline can answer.
	for _, q := range []string{
		"EVENTS DIST BY gender WIDTH 2",
		"PATHS FASTEST FROM u1 TO u5",
		"PATHS EARLIEST FROM u1 TO u5 DURING t1..t4",
		"TREND ALL BY gender WIDTH 3",
	} {
		req := server.TGQLRequest{Query: q}
		code, refData, _ := postJSON(t, refURL+"/v1/tgql", req)
		if code != 200 {
			t.Fatalf("single %q = %d: %s", q, code, refData)
		}
		code, gotData, hdr := postJSON(t, routerURL+"/v1/tgql", req)
		if code != 200 {
			t.Fatalf("router %q = %d: %s", q, code, gotData)
		}
		if route := hdr.Get("X-Gt-Route"); route != "mirror" {
			t.Errorf("%q route = %q, want mirror", q, route)
		}
		if !bytes.Equal(refData, gotData) {
			t.Errorf("%q diverged:\n single %s\n router %s", q, refData, gotData)
		}
	}

	// Compile errors keep their exact single-node envelopes too.
	bad := server.TGQLRequest{Query: "PATHS EARLIEST FROM u1 TO nobody"}
	refCode, refErr, _ := postJSON(t, refURL+"/v1/tgql", bad)
	gotCode, gotErr, _ := postJSON(t, routerURL+"/v1/tgql", bad)
	if refCode != 400 || refCode != gotCode || !bytes.Equal(refErr, gotErr) {
		t.Errorf("error envelope diverged: single %d %s vs router %d %s", refCode, refErr, gotCode, gotErr)
	}
}

// TestShardDaemonRejectsAnalytics builds a shard the way graphtempod
// -shard does (Partial set) and checks analytics never produce a
// shard-local — and therefore wrong — answer.
func TestShardDaemonRejectsAnalytics(t *testing.T) {
	s, err := server.New(server.Config{
		Series: stream.New(attrsFor()...), Logger: quietLogger(),
		ShardName: "s0", Partial: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	for _, p := range testPoints()[:3] {
		if code, data, _ := postJSON(t, ts.URL+"/v1/ingest", p); code != 200 {
			t.Fatalf("ingest %s: %d: %s", p.Label, code, data)
		}
	}

	for _, c := range []struct {
		path string
		req  any
	}{
		{"/v1/tgql", server.TGQLRequest{Query: "EVENTS DIST BY gender"}},
		{"/v1/tgql", server.TGQLRequest{Query: "PATHS EARLIEST FROM u1 TO u2"}},
		{"/v1/tgql", server.TGQLRequest{Query: "TREND DIST BY gender"}},
		{"/v1/explain", server.TGQLRequest{Query: "TREND ALL BY gender WIDTH 2"}},
	} {
		code, data, _ := postJSON(t, ts.URL+c.path, c.req)
		if code != 400 {
			t.Fatalf("%s on shard daemon = %d, want 400: %s", c.path, code, data)
		}
		if !strings.Contains(string(data), `"code":"bad_request"`) ||
			!strings.Contains(string(data), "time-range shard") {
			t.Fatalf("%s: rejection is not the typed envelope: %s", c.path, data)
		}
	}

	// Shard-local statements keep working.
	code, data, _ := postJSON(t, ts.URL+"/v1/tgql",
		server.TGQLRequest{Query: "AGG DIST gender ON UNION(t0, t1)"})
	if code != 200 {
		t.Fatalf("non-analytics tgql on shard daemon = %d: %s", code, data)
	}
}
