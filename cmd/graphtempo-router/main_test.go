package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/stream"
)

func streamSchema() *stream.Series {
	return stream.New(core.AttrSpec{Name: "gender", Kind: core.Static})
}

func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"-shards", "a=http://h1:1;b=http://h2:2", "-max-lag", "3"})
	if err != nil {
		t.Fatal(err)
	}
	if o.shards != "a=http://h1:1;b=http://h2:2" || o.maxLag != 3 {
		t.Fatalf("parsed %+v", o)
	}
	if _, err := parseFlags(nil); err == nil {
		t.Fatal("missing -shards accepted")
	}
}

// TestFlagsReachConfig: each routing flag set to a non-default value lands
// in its cluster.Config field.
func TestFlagsReachConfig(t *testing.T) {
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	for _, tc := range []struct {
		flag  string
		value string
		ok    func(cluster.Config) bool
	}{
		{"max-lag", "3", func(c cluster.Config) bool { return c.MaxLag == 3 }},
		{"shard-timeout", "3s", func(c cluster.Config) bool { return c.ShardTimeout == 3*time.Second }},
		{"timeout", "4s", func(c cluster.Config) bool { return c.RequestTimeout == 4*time.Second }},
		{"probe-interval", "5ms", func(c cluster.Config) bool { return c.ProbeInterval == 5*time.Millisecond }},
		{"cache-bytes", "4096", func(c cluster.Config) bool { return c.CacheBytes == 4096 }},
	} {
		t.Run(tc.flag, func(t *testing.T) {
			o, err := parseFlags([]string{"-shards", "a=http://h1:1", "-" + tc.flag, tc.value})
			if err != nil {
				t.Fatal(err)
			}
			if cfg := routerConfig(o, nil, log); !tc.ok(cfg) {
				t.Fatalf("-%s %s did not reach its field: %+v", tc.flag, tc.value, cfg)
			}
		})
	}
}

// TestLogFormat: -log json writes one JSON object per record, the default
// text handler does not.
func TestLogFormat(t *testing.T) {
	for format, wantJSON := range map[string]bool{"json": true, "text": false} {
		var buf bytes.Buffer
		server.NewLogger(format, &buf).Info("listening", "addr", ":0")
		if json.Valid(buf.Bytes()) != wantJSON {
			t.Fatalf("-log %s wrote %q", format, buf.String())
		}
	}
}

// shardServer boots one in-process graphtempod-equivalent stream server
// and ingests the given time points through its HTTP API.
func shardServer(t *testing.T, name string, points []string) *httptest.Server {
	t.Helper()
	srv, err := server.New(server.Config{
		Series:    streamSchema(),
		Logger:    slog.New(slog.NewTextHandler(io.Discard, nil)),
		ShardName: name,
		Role:      server.RolePrimary,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	for _, label := range points {
		body := fmt.Sprintf(`{"label": %q, "nodes": [{"label": "u1", "static": {"gender": "m"}}]}`, label)
		resp, err := http.Post(hs.URL+"/v1/ingest", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("ingest %s into %s: %d %s", label, name, resp.StatusCode, data)
		}
	}
	return hs
}

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// startRouter runs the router on addr over shards a (t0, t1) and b (t2)
// with the given extra flags, waits for readiness and returns run's result
// channel.
func startRouter(t *testing.T, addr string, extra ...string) <-chan error {
	t.Helper()
	a := shardServer(t, "a", []string{"t0", "t1"})
	b := shardServer(t, "b", []string{"t2"})
	done := make(chan error, 1)
	go func() {
		done <- run(append([]string{
			"-addr", addr,
			"-shards", "a=" + a.URL + ";b=" + b.URL,
			"-probe-interval", "25ms",
		}, extra...))
	}()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		resp, err := http.Get("http://" + addr + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == 200 {
				return done
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("router never became ready")
	return nil
}

// TestDrainTimeoutBoundsShutdown: a connection that has sent half a request
// holds the drain open (net/http waits up to 5s for it), so run must give up
// after -drain-timeout and report the drain incomplete.
func TestDrainTimeoutBoundsShutdown(t *testing.T) {
	addr := freeAddr(t)
	done := startRouter(t, addr, "-drain-timeout", "50ms")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\n")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "drain incomplete") {
			t.Fatalf("run returned %v, want the drain cut at -drain-timeout", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("drain outlived -drain-timeout")
	}
}

// TestRunServesAndDrains boots the router binary path against two live
// shards, waits for readiness, runs a boundary-spanning union and a tgql
// query through the mirror, then drains.
func TestRunServesAndDrains(t *testing.T) {
	addr := freeAddr(t)
	done := startRouter(t, addr, "-drain-timeout", "5s")
	base := "http://" + addr

	resp, err := http.Post(base+"/v1/aggregate", "application/json", strings.NewReader(
		`{"op": "union", "interval": {"from": "t0", "to": "t1"}, "interval2": {"from": "t2"}, "attrs": ["gender"], "kind": "dist"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("aggregate = %d: %s", resp.StatusCode, body)
	}
	if route := resp.Header.Get("X-Gt-Route"); route != "mirror" {
		t.Fatalf("boundary-spanning union routed %q, want mirror (%s)", route, body)
	}
	var ar struct {
		Graph json.RawMessage `json:"graph"`
	}
	if err := json.Unmarshal(body, &ar); err != nil || len(ar.Graph) == 0 {
		t.Fatalf("malformed aggregate response: %s", body)
	}

	resp, err = http.Post(base+"/v1/tgql", "application/json", strings.NewReader(`{"query": "STATS"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("tgql via mirror = %d: %s", resp.StatusCode, body)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("router did not drain after SIGTERM")
	}
}
