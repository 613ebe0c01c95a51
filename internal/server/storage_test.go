package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/stream"
)

// durableAttrs is the stream schema used by the durable-mode tests.
func durableAttrs() []core.AttrSpec {
	return []core.AttrSpec{
		{Name: "gender", Kind: core.Static},
		{Name: "publications", Kind: core.TimeVarying},
	}
}

// durableSnaps is a two-point ingestion sequence (same shape as the
// stream-mode lifecycle test).
func durableSnaps() []IngestRequest {
	return []IngestRequest{
		{Label: "t0",
			Nodes: []IngestNode{
				{Label: "u1", Static: map[string]string{"gender": "m"}, Varying: map[string]string{"publications": "3"}},
				{Label: "u2", Static: map[string]string{"gender": "f"}, Varying: map[string]string{"publications": "1"}},
			},
			Edges: []IngestEdge{{U: "u1", V: "u2"}}},
		{Label: "t1",
			Nodes: []IngestNode{
				{Label: "u1", Static: map[string]string{"gender": "m"}, Varying: map[string]string{"publications": "1"}},
				{Label: "u2", Static: map[string]string{"gender": "f"}, Varying: map[string]string{"publications": "1"}},
				{Label: "u3", Static: map[string]string{"gender": "f"}, Varying: map[string]string{"publications": "2"}},
			},
			Edges: []IngestEdge{{U: "u1", V: "u2"}, {U: "u2", V: "u3"}}},
	}
}

// queryAll runs the three read endpoints and returns the deterministic
// parts of each response: aggregate graph bytes, the full explore
// response, and TGQL text + graph bytes. Timing fields are excluded by
// construction.
func queryAll(t *testing.T, base string) (aggGraph []byte, explore ExploreResponse, tgqlText string, tgqlGraph []byte) {
	t.Helper()
	code, data := postJSON(t, base+"/v1/aggregate", AggregateRequest{
		Op: "union", Interval: IntervalSpec{From: "t0"}, Interval2: IntervalSpec{From: "t1"},
		Attrs: []string{"gender"}, Kind: "all",
	})
	if code != 200 {
		t.Fatalf("aggregate = %d: %s", code, data)
	}
	var ar AggregateResponse
	if err := json.Unmarshal(data, &ar); err != nil {
		t.Fatal(err)
	}
	aggGraph = ar.Graph

	code, data = postJSON(t, base+"/v1/explore", ExploreRequest{
		Event: "growth", Semantics: "union", Extend: "old", K: 1, Attrs: []string{"gender"},
	})
	if code != 200 {
		t.Fatalf("explore = %d: %s", code, data)
	}
	if err := json.Unmarshal(data, &explore); err != nil {
		t.Fatal(err)
	}
	explore.ElapsedMs = 0

	code, data = postJSON(t, base+"/v1/tgql", TGQLRequest{
		Query: "AGG DIST gender ON INTERSECT(t0, t1)",
	})
	if code != 200 {
		t.Fatalf("tgql = %d: %s", code, data)
	}
	var tr TGQLResponse
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	return aggGraph, explore, tr.Text, tr.Graph
}

// TestDurableIngestRecoveryByteIdentical is the persistence acceptance
// criterion at the server level: ingest through a storage-backed server,
// abandon the engine without Close (the moral equivalent of kill -9 —
// fsync=always has already made every acknowledged append durable), then
// reopen the same directory and check the three read endpoints serve
// byte-identical payloads.
func TestDurableIngestRecoveryByteIdentical(t *testing.T) {
	dir := t.TempDir()
	eng, err := storage.Open(dir, durableAttrs(), storage.Options{
		Fsync:             storage.FsyncAlways,
		CheckpointRecords: -1, // WAL-only: recovery must replay every record
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

	for i, snap := range durableSnaps() {
		code, data := postJSON(t, ts.URL+"/v1/ingest", snap)
		if code != 200 {
			t.Fatalf("ingest %s: %d: %s", snap.Label, code, data)
		}
		var ir IngestResponse
		if err := json.Unmarshal(data, &ir); err != nil {
			t.Fatal(err)
		}
		if ir.Points != i+1 {
			t.Fatalf("ingest %s: points = %d, want %d", snap.Label, ir.Points, i+1)
		}
	}
	aggBefore, expBefore, txtBefore, tgBefore := queryAll(t, ts.URL)
	ts.Close()
	// Crash: the engine is dropped without Close. Its file handle stays
	// open for the test's lifetime, which is exactly what a SIGKILL leaves.

	eng2, err := storage.Open(dir, durableAttrs(), storage.Options{Logger: quietLogger()})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer eng2.Close()
	if ri := eng2.Recovery(); ri.WALRecords != 2 {
		t.Fatalf("recovered %d WAL records, want 2 (%+v)", ri.WALRecords, ri)
	}
	s2, err := New(Config{Storage: eng2, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	aggAfter, expAfter, txtAfter, tgAfter := queryAll(t, ts2.URL)
	if !bytes.Equal(aggBefore, aggAfter) {
		t.Errorf("aggregate graph diverged after recovery:\n before %s\n after  %s", aggBefore, aggAfter)
	}
	if b, a := mustJSON(t, expBefore), mustJSON(t, expAfter); !bytes.Equal(b, a) {
		t.Errorf("explore diverged after recovery:\n before %s\n after  %s", b, a)
	}
	if txtBefore != txtAfter {
		t.Errorf("tgql text diverged after recovery:\n before %q\n after  %q", txtBefore, txtAfter)
	}
	if !bytes.Equal(tgBefore, tgAfter) {
		t.Errorf("tgql graph diverged after recovery:\n before %s\n after  %s", tgBefore, tgAfter)
	}

	// The recovery counters surface on /metrics (the CI crash-recovery
	// step greps for a non-zero records total).
	code, data := get(t, ts2.URL+"/metrics")
	if code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	if !strings.Contains(string(data), "graphtempod_storage_recovery_records_total 2") {
		t.Errorf("metrics missing recovery records total:\n%s", data)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDurableIngestCheckpointServes checks the serving path stays correct
// across a checkpoint: after compaction the series and plan cache still
// answer from the same data.
func TestDurableIngestCheckpointServes(t *testing.T) {
	dir := t.TempDir()
	eng, err := storage.Open(dir, durableAttrs(), storage.Options{
		Fsync:             storage.FsyncNever,
		CheckpointRecords: -1,
		Logger:            quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	s, err := New(Config{Storage: eng, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, snap := range durableSnaps() {
		if code, data := postJSON(t, ts.URL+"/v1/ingest", snap); code != 200 {
			t.Fatalf("ingest %s: %d: %s", snap.Label, code, data)
		}
	}
	aggBefore, _, _, _ := queryAll(t, ts.URL)
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if gen := eng.Stats().Generation; gen != 1 {
		t.Fatalf("generation after checkpoint = %d, want 1", gen)
	}
	aggAfter, _, _, _ := queryAll(t, ts.URL)
	if !bytes.Equal(aggBefore, aggAfter) {
		t.Fatalf("aggregate diverged across checkpoint:\n before %s\n after  %s", aggBefore, aggAfter)
	}
}

// TestBodyTooLarge checks the configurable request-body cap: an oversized
// body is refused with a structured 413 naming the limit, and a body
// under the cap still parses.
func TestBodyTooLarge(t *testing.T) {
	s, err := New(Config{Graph: core.PaperExample(), MaxBodyBytes: 512, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	big := TGQLRequest{Query: "STATS /* " + strings.Repeat("x", 4096) + " */"}
	code, data := postJSON(t, ts.URL+"/v1/tgql", big)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413: %s", code, data)
	}
	var eb struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(data, &eb); err != nil {
		t.Fatalf("413 body is not the JSON error envelope: %s", data)
	}
	if eb.Error.Code != "body_too_large" {
		t.Fatalf("413 error code %q, want body_too_large", eb.Error.Code)
	}
	if !strings.Contains(eb.Error.Message, "512-byte limit") {
		t.Fatalf("413 error %q does not name the limit", eb.Error.Message)
	}

	if code, data := postJSON(t, ts.URL+"/v1/tgql", TGQLRequest{Query: "STATS"}); code != 200 {
		t.Fatalf("small body = %d: %s", code, data)
	}

	// The cap applies to every decoding endpoint, ingest included.
	code, data = postJSON(t, ts.URL+"/v1/aggregate", AggregateRequest{
		Op: "project", Attrs: []string{strings.Repeat("a", 4096)},
	})
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized aggregate = %d, want 413: %s", code, data)
	}
}

// TestConfigStorageMode checks the one-of-three data source validation.
func TestConfigStorageMode(t *testing.T) {
	if _, err := New(Config{Logger: quietLogger()}); err == nil {
		t.Fatal("no data source accepted")
	}
	eng, err := storage.Open(t.TempDir(), durableAttrs(), storage.Options{Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := New(Config{Graph: core.PaperExample(), Storage: eng, Logger: quietLogger()}); err == nil {
		t.Fatal("graph + storage accepted")
	}
}

// TestParentDataDirServesParentAnswers recovers a data directory the PR 22
// binary wrote — tail appends and two `before` inserts, ten records folded
// into snapshot 1 and six more (one of them retroactive) in the WAL tail when
// it was killed — and requires byte-identical /v1/aggregate and /v1/tgql
// answers, AS OF pins below and above the snapshot's transaction included, to
// the ones that binary gave after its own restart (testdata/pr22_answers.jsonl,
// elapsed_ms stripped): the one ingest codec and the one Advance read the
// parent's bytes the way the parent's two of each did.
func TestParentDataDirServesParentAnswers(t *testing.T) {
	dir := t.TempDir()
	files, err := filepath.Glob("testdata/pr22_datadir/*")
	if err != nil || len(files) != 2 {
		t.Fatalf("fixture files %v: %v", files, err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := storage.Open(dir, durableAttrs(), storage.Options{CheckpointRecords: -1, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if ri := eng.Recovery(); ri.SnapshotPoints != 10 || ri.WALRecords != 6 {
		t.Fatalf("recovery %+v, want 10 snapshot points + 6 WAL records", ri)
	}
	s, err := New(Config{Storage: eng, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/pr22_answers.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		var want struct {
			Path, Body, Answer string
			Status             int
		}
		if err := json.Unmarshal([]byte(line), &want); err != nil {
			t.Fatal(err)
		}
		rec := post(s.Handler(), want.Path, want.Body)
		if got := elapsedField.ReplaceAllString(rec.Body.String(), ""); rec.Code != want.Status || got != want.Answer {
			t.Errorf("%s %s:\n got %d %s\nwant %d %s", want.Path, want.Body, rec.Code, got, want.Status, want.Answer)
		}
	}
}

// TestWALStreamOneByteForm: every daemon serves /v1/wal/stream from the
// records its journal holds — a durable one's are the bytes its WAL framed,
// a non-durable one's the bytes it encoded at ingest. Fed the same history
// — tail appends and retroactive inserts of nodes with two static
// attributes — both serve byte-identical bodies, also after the durable one
// checkpointed mid-history, was abandoned without a Close and reopened, so
// its records come from a snapshot, from WAL replay and from appends after
// the restart; and a durable replica fed that body serves it too, from a
// WAL that logged the primary's bytes.
func TestWALStreamOneByteForm(t *testing.T) {
	attrs := []core.AttrSpec{
		{Name: "grade", Kind: core.Static},
		{Name: "class", Kind: core.Static},
		{Name: "contacts", Kind: core.TimeVarying},
	}
	dir := t.TempDir()
	opts := storage.Options{CheckpointRecords: -1, Logger: quietLogger()}
	eng, err := storage.Open(dir, attrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	durable, err := New(Config{Storage: eng, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(Config{Series: stream.New(attrs...), Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	var labels []string
	retro := 0
	ingest := func(i int) {
		req := IngestRequest{Label: fmt.Sprintf("t%d", i)}
		if i > 0 && r.Intn(4) == 0 {
			req.Before = labels[r.Intn(len(labels))]
			retro++
		}
		for _, j := range r.Perm(8)[:2+r.Intn(5)] {
			req.Nodes = append(req.Nodes, IngestNode{Label: fmt.Sprintf("n%d", j),
				Static:  map[string]string{"grade": fmt.Sprint(j % 3), "class": fmt.Sprint(j % 2)},
				Varying: map[string]string{"contacts": fmt.Sprint(r.Intn(4))}})
		}
		req.Edges = []IngestEdge{{U: req.Nodes[0].Label, V: req.Nodes[1].Label}}
		labels = append(labels, req.Label)
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []*Server{durable, plain} {
			if rec := post(s.Handler(), "/v1/ingest", string(body)); rec.Code != http.StatusOK {
				t.Fatalf("ingest %s = %d: %s", req.Label, rec.Code, rec.Body)
			}
		}
	}
	walStream := func(s *Server, next int) []byte {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/wal/stream?from=0", nil))
		if rec.Code != http.StatusOK || rec.Header().Get("X-Wal-Next") != strconv.Itoa(next) {
			t.Fatalf("wal stream = %d, next %s, want %d: %s", rec.Code, rec.Header().Get("X-Wal-Next"), next, rec.Body)
		}
		return rec.Body.Bytes()
	}
	for i := range 12 {
		ingest(i)
		if i == 5 {
			if err := eng.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if a, b := walStream(durable, 12), walStream(plain, 12); !bytes.Equal(a, b) {
		t.Fatalf("durable and non-durable wal streams differ:\n%x\n%x", a, b)
	}
	// kill -9: the first engine is abandoned, not closed.
	eng2, err := storage.Open(dir, attrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if ri := eng2.Recovery(); ri.SnapshotPoints != 6 || ri.WALRecords != 6 {
		t.Fatalf("recovery %+v, want 6 snapshot points + 6 WAL records", ri)
	}
	if durable, err = New(Config{Storage: eng2, Logger: quietLogger()}); err != nil {
		t.Fatal(err)
	}
	for i := 12; i < 18; i++ {
		ingest(i)
	}
	if retro == 0 {
		t.Fatal("the history holds no retroactive insert")
	}
	body := walStream(durable, 18)
	if b := walStream(plain, 18); !bytes.Equal(body, b) {
		t.Fatalf("reopened durable and non-durable wal streams differ:\n%x\n%x", body, b)
	}

	// A durable -follow replica: graphtempod applies each frame of the
	// primary's stream with its engine's AppendRecord, as the follower
	// reads it. It serves the primary's body, and its WAL segment holds
	// those frames verbatim after the header.
	rdir := t.TempDir()
	reng, err := storage.Open(rdir, attrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer reng.Close()
	replica, err := New(Config{Storage: reng, Role: RoleReplica, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	for r := bytes.NewReader(body); ; {
		rec, err := storage.ReadFramedRecord(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := reng.AppendRecord(rec); err != nil {
			t.Fatalf("replica append: %v", err)
		}
	}
	if b := walStream(replica, 18); !bytes.Equal(body, b) {
		t.Fatalf("replica and primary wal streams differ:\n%x\n%x", b, body)
	}
	seg, err := os.ReadFile(filepath.Join(rdir, "wal-0000000000000000.log"))
	if err != nil {
		t.Fatal(err)
	}
	const walHeader = 18 // magic, version, generation
	if len(seg) < walHeader || !bytes.Equal(seg[walHeader:], body) {
		t.Fatalf("replica WAL payloads differ from the primary's frames:\n%x\n%x", seg, body)
	}
}
