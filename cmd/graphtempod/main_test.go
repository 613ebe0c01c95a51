package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/server"
	"repro/internal/storage"
)

func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"-dataset", "paper", "-addr", ":0"})
	if err != nil {
		t.Fatal(err)
	}
	if o.dataset != "paper" || o.addr != ":0" {
		t.Fatalf("parsed %+v", o)
	}
	if _, err := parseFlags(nil); err == nil {
		t.Fatal("no dataset and no stream accepted")
	}
	if _, err := parseFlags([]string{"-dataset", "paper", "-stream", "a:static"}); err == nil {
		t.Fatal("dataset and stream together accepted")
	}
}

func TestParseStreamSpec(t *testing.T) {
	attrs, err := parseStreamSpec("gender:static, publications:varying")
	if err != nil {
		t.Fatal(err)
	}
	if len(attrs) != 2 || attrs[0].Name != "gender" || attrs[0].Kind != core.Static ||
		attrs[1].Name != "publications" || attrs[1].Kind != core.TimeVarying {
		t.Fatalf("parsed %+v", attrs)
	}
	for _, bad := range []string{"", "gender", "gender:maybe", ":static", "gender:static,gender:varying"} {
		if _, err := parseStreamSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestNewServerModes(t *testing.T) {
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	o, err := parseFlags([]string{"-dataset", "paper"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := newServer(o, log); err != nil {
		t.Fatalf("static mode: %v", err)
	}
	o, err = parseFlags([]string{"-stream", "gender:static"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := newServer(o, log); err != nil {
		t.Fatalf("stream mode: %v", err)
	}
	o, err = parseFlags([]string{"-stream", "gender:static", "-data-dir", t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	_, eng, _, _, err := newServer(o, log)
	if err != nil {
		t.Fatalf("durable stream mode: %v", err)
	}
	if eng == nil {
		t.Fatal("durable stream mode returned no storage engine")
	}
	eng.Close()
	// A data directory whose only snapshot does not load and whose segments
	// start after generation 0 refuses to boot: run returns this error and
	// main exits 1 with it on stderr.
	os.WriteFile(filepath.Join(o.dataDir, "snapshot-0000000000000003.gts"), []byte("not a snapshot"), 0o644)
	os.Rename(filepath.Join(o.dataDir, "wal-0000000000000000.log"), filepath.Join(o.dataDir, "wal-0000000000000003.log"))
	if _, _, _, _, err := newServer(o, log); !errors.Is(err, storage.ErrUnrecoverable) || !strings.Contains(err.Error(), "snapshot-0000000000000003.gts") {
		t.Fatalf("damaged data dir: %v, want ErrUnrecoverable naming the snapshot", err)
	}
	// A schema naming one attribute twice is a flag error in both stream
	// modes, not a panic in the accumulator.
	for _, args := range [][]string{
		{"-stream", "gender:static,gender:varying"},
		{"-stream", "gender:static,gender:varying", "-data-dir", t.TempDir()},
	} {
		o, err = parseFlags(args)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, _, err := newServer(o, log); err == nil || !strings.Contains(err.Error(), `"gender" named twice`) {
			t.Fatalf("%v: %v, want the repeated name refused", args, err)
		}
	}
	o, err = parseFlags([]string{"-dataset", "/nonexistent/graphdir"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := newServer(o, log); err == nil {
		t.Fatal("bad graph dir accepted")
	}
}

func TestParseFlagsDataDir(t *testing.T) {
	if _, err := parseFlags([]string{"-dataset", "paper", "-data-dir", "/tmp/x"}); err == nil {
		t.Fatal("-data-dir without -stream accepted")
	}
	if _, err := parseFlags([]string{"-stream", "a:static", "-fsync", "sometimes"}); err == nil {
		t.Fatal("bad -fsync policy accepted")
	}
	o, err := parseFlags([]string{"-stream", "a:static", "-data-dir", "/tmp/x", "-fsync", "interval"})
	if err != nil {
		t.Fatal(err)
	}
	if o.dataDir != "/tmp/x" {
		t.Fatalf("parsed %+v", o)
	}
}

func TestParseFlagsCluster(t *testing.T) {
	if _, err := parseFlags([]string{"-dataset", "paper", "-follow", "http://p:8089"}); err == nil {
		t.Fatal("-follow without -stream accepted")
	}
	o, err := parseFlags([]string{"-stream", "a:static", "-shard", "a", "-follow", "http://p:8089"})
	if err != nil {
		t.Fatal(err)
	}
	if o.shard != "a" || o.follow != "http://p:8089" {
		t.Fatalf("parsed %+v", o)
	}
}

// TestFlagsReachConfig: each serving and durability flag set to a
// non-default value lands in its server.Config or storage.Options field.
func TestFlagsReachConfig(t *testing.T) {
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	for _, tc := range []struct {
		flag  string
		value string
		ok    func(server.Config, storage.Options) bool
	}{
		{"fsync", "never", func(_ server.Config, so storage.Options) bool { return so.Fsync == storage.FsyncNever }},
		{"fsync-interval", "7ms", func(_ server.Config, so storage.Options) bool { return so.FsyncInterval == 7*time.Millisecond }},
		{"checkpoint-records", "5", func(_ server.Config, so storage.Options) bool { return so.CheckpointRecords == 5 }},
		{"max-inflight", "3", func(c server.Config, _ storage.Options) bool { return c.MaxInflight == 3 }},
		{"max-queue", "5", func(c server.Config, _ storage.Options) bool { return c.MaxQueue == 5 }},
		{"timeout", "2s", func(c server.Config, _ storage.Options) bool { return c.RequestTimeout == 2*time.Second }},
		{"cache-bytes", "4096", func(c server.Config, _ storage.Options) bool { return c.CacheBytes == 4096 }},
		{"shard", "a", func(c server.Config, _ storage.Options) bool { return c.ShardName == "a" && c.Partial }},
		{"follow", "http://p:8089", func(c server.Config, _ storage.Options) bool { return c.Role == server.RoleReplica }},
	} {
		t.Run(tc.flag, func(t *testing.T) {
			o, err := parseFlags([]string{"-stream", "gender:static", "-" + tc.flag, tc.value})
			if err != nil {
				t.Fatal(err)
			}
			cfg := serverConfig(o, log)
			so, err := storageOptions(o, log)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.ok(cfg, so) {
				t.Fatalf("-%s %s did not reach its field: %+v %+v", tc.flag, tc.value, cfg, so)
			}
		})
	}
}

// TestLogFormat: -log json writes one JSON object per record, the default
// text handler does not.
func TestLogFormat(t *testing.T) {
	for format, wantJSON := range map[string]bool{"json": true, "text": false} {
		var buf bytes.Buffer
		newLogger(format, &buf).Info("listening", "addr", ":0")
		if json.Valid(buf.Bytes()) != wantJSON {
			t.Fatalf("-log %s wrote %q", format, buf.String())
		}
	}
}

// TestLoadGraphSources: -scale and -seed reach the generator, and a binary
// snapshot file given to -dataset loads to the graph it was saved from.
func TestLoadGraphSources(t *testing.T) {
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	want := dataset.DBLPScaled(3, 0.02)
	path := filepath.Join(t.TempDir(), "dblp.gts")
	if err := storage.SaveFile(path, want); err != nil {
		t.Fatal(err)
	}
	var wantBytes bytes.Buffer
	if err := storage.Save(&wantBytes, want); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-dataset", "dblp", "-scale", "0.02", "-seed", "3"},
		{"-dataset", path},
	} {
		o, err := parseFlags(args)
		if err != nil {
			t.Fatal(err)
		}
		g, err := loadGraph(o, log)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := storage.Save(&got, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), wantBytes.Bytes()) {
			t.Fatalf("%v: graph differs from dataset.DBLPScaled(3, 0.02)", args)
		}
	}
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

// awaitReady polls base/readyz until it answers 200.
func awaitReady(t *testing.T, base string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == 200 {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("server never became ready")
}

// TestDrainTimeoutBoundsShutdown: a connection that has sent half a request
// holds the drain open (net/http waits up to 5s for it), so run must give up
// after -drain-timeout and report the drain incomplete.
func TestDrainTimeoutBoundsShutdown(t *testing.T) {
	addr := freeAddr(t)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-dataset", "paper", "-addr", addr, "-drain-timeout", "50ms"})
	}()
	awaitReady(t, "http://"+addr)
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

// TestRunServesAndDrains boots the daemon on a random port, waits for
// readiness, runs one query, then sends SIGTERM and checks the graceful
// exit path.
func TestRunServesAndDrains(t *testing.T) {
	addr := freeAddr(t)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-dataset", "paper", "-addr", addr, "-drain-timeout", "5s"})
	}()

	base := "http://" + addr
	awaitReady(t, base)

	resp, err := http.Post(base+"/v1/tgql", "application/json",
		strings.NewReader(`{"query": "STATS"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("tgql = %d: %s", resp.StatusCode, body)
	}
	var tr struct {
		Text string `json:"text"`
	}
	if err := json.Unmarshal(body, &tr); err != nil || tr.Text == "" {
		t.Fatalf("malformed tgql response: %s", body)
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
		t.Fatal("daemon did not drain after SIGTERM")
	}
}
