package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/server"
)

// TestAsOfRoutesToMirror: the mirror holds the global transaction journal,
// so every as_of request lands on it and answers byte-identically to a
// single node that ingested the same series.
func TestAsOfRoutesToMirror(t *testing.T) {
	routerURL, refURL, rt := startCluster(t, 3)
	head := rt.mseries.Txn()
	if head != len(testPoints()) {
		t.Fatalf("mirror txn = %d, want %d", head, len(testPoints()))
	}

	// An interval inside one shard, pinned at the head.
	req := server.AggregateRequest{
		Op: "project", Interval: server.IntervalSpec{From: "t0", To: "t1"},
		Attrs: []string{"gender"}, Kind: "dist", AsOf: head,
	}
	got, route := aggregate(t, routerURL, req)
	if route != "mirror" {
		t.Errorf("as_of aggregate route = %q, want mirror", route)
	}
	want, _ := aggregate(t, refURL, req)
	if !bytes.Equal(got, want) {
		t.Errorf("as_of head answer diverged:\n router %s\n single %s", got, want)
	}

	// An earlier pin travels: at txn 2 only t0..t1 existed, so the full
	// PROJECT over the historical head equals the reference's own AS OF 2.
	req2 := server.AggregateRequest{
		Op: "project", Interval: server.IntervalSpec{From: "t0", To: "t1"},
		Attrs: []string{"gender"}, Kind: "dist", AsOf: 2,
	}
	got2, route2 := aggregate(t, routerURL, req2)
	if route2 != "mirror" {
		t.Errorf("as_of 2 route = %q, want mirror", route2)
	}
	want2, _ := aggregate(t, refURL, req2)
	if !bytes.Equal(got2, want2) {
		t.Errorf("as_of 2 answer diverged:\n router %s\n single %s", got2, want2)
	}
	// And a point label beyond that txn's timeline is unknown.
	code, data, _ := postJSON(t, routerURL+"/v1/aggregate", server.AggregateRequest{
		Op: "project", Interval: server.IntervalSpec{From: "t4", To: "t4"},
		Attrs: []string{"gender"}, AsOf: 2,
	})
	if code != http.StatusBadRequest || !strings.Contains(string(data), "unknown time point") {
		t.Errorf("pinned query on a future label = %d: %s", code, data)
	}

	// TGQL as_of through the router hits the mirror as well.
	code, data, hdr := postJSON(t, routerURL+"/v1/tgql", server.TGQLRequest{
		Query: "AGG DIST gender ON UNION(t0, t1)", AsOf: 3,
	})
	if code != 200 {
		t.Fatalf("tgql as_of = %d: %s", code, data)
	}
	if hdr.Get("X-Gt-Route") != "mirror" {
		t.Errorf("tgql as_of route = %q, want mirror", hdr.Get("X-Gt-Route"))
	}
	var tr server.TGQLResponse
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	code, refData := func() (int, []byte) {
		c, d, _ := postJSON(t, refURL+"/v1/tgql", server.TGQLRequest{
			Query: "AGG DIST gender ON UNION(t0, t1)", AsOf: 3,
		})
		return c, d
	}()
	if code != 200 {
		t.Fatalf("reference tgql as_of = %d: %s", code, refData)
	}
	var refTr server.TGQLResponse
	if err := json.Unmarshal(refData, &refTr); err != nil {
		t.Fatal(err)
	}
	if tr.Text != refTr.Text || !bytes.Equal(tr.Graph, refTr.Graph) {
		t.Errorf("tgql as_of diverged:\n router %s\n single %s", tr.Text, refTr.Text)
	}
}

// TestMirrorTxnInStatus: the cluster status surfaces the mirror's
// transaction watermark and per-member txns.
func TestMirrorTxnInStatus(t *testing.T) {
	routerURL, _, rt := startCluster(t, 3)
	code, data, _ := func() (int, []byte, http.Header) {
		resp, err := http.Get(routerURL + "/v1/cluster/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b := new(bytes.Buffer)
		if _, err := b.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b.Bytes(), resp.Header
	}()
	if code != 200 {
		t.Fatalf("cluster status = %d: %s", code, data)
	}
	var cs ClusterStatus
	if err := json.Unmarshal(data, &cs); err != nil {
		t.Fatal(err)
	}
	if cs.MirrorTxn != rt.mseries.Txn() {
		t.Errorf("cluster status mirror_txn = %d, want %d", cs.MirrorTxn, rt.mseries.Txn())
	}
}
