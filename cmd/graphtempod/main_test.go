package main

import (
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
	for _, bad := range []string{"", "gender", "gender:maybe", ":static"} {
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
	if _, _, _, _, _, err := newServer(o, log); err != nil {
		t.Fatalf("static mode: %v", err)
	}
	o, err = parseFlags([]string{"-stream", "gender:static"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, _, err := newServer(o, log); err != nil {
		t.Fatalf("stream mode: %v", err)
	}
	o, err = parseFlags([]string{"-stream", "gender:static", "-data-dir", t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	_, eng, _, _, _, err := newServer(o, log)
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
	if _, _, _, _, _, err := newServer(o, log); !errors.Is(err, storage.ErrUnrecoverable) || !strings.Contains(err.Error(), "snapshot-0000000000000003.gts") {
		t.Fatalf("damaged data dir: %v, want ErrUnrecoverable naming the snapshot", err)
	}
	o, err = parseFlags([]string{"-dataset", "/nonexistent/graphdir"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, _, err := newServer(o, log); err == nil {
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

// TestRunServesAndDrains boots the daemon on a random port, waits for
// readiness, runs one query, then sends SIGTERM and checks the graceful
// exit path.
func TestRunServesAndDrains(t *testing.T) {
	// Pick a free port up front so the test can poll it.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-dataset", "paper", "-addr", addr, "-drain-timeout", "5s"})
	}()

	base := "http://" + addr
	ready := false
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == 200 {
				ready = true
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !ready {
		t.Fatal("server never became ready")
	}

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
