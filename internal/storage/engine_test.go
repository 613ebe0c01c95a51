package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/stream"
)

var testAttrs = []core.AttrSpec{
	{Name: "gender", Kind: core.Static},
	{Name: "pubs", Kind: core.TimeVarying},
}

func openTestEngine(t *testing.T, dir string, opts Options) *Engine {
	t.Helper()
	e, err := Open(dir, testAttrs, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return e
}

func appendN(t *testing.T, e *Engine, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		label, snap := testBatch(i)
		if err := e.Append(label, snap); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
}

func TestEngineEmptyOpenClose(t *testing.T) {
	dir := t.TempDir()
	e := openTestEngine(t, dir, Options{})
	if e.Series().Len() != 0 {
		t.Fatalf("fresh engine has %d points", e.Series().Len())
	}
	if ri := e.Recovery(); ri.SnapshotPoints != 0 || ri.WALRecords != 0 {
		t.Fatalf("fresh engine recovered %+v", ri)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen of a cleanly closed empty dir.
	e2 := openTestEngine(t, dir, Options{})
	defer e2.Close()
	if e2.Series().Len() != 0 {
		t.Fatalf("reopened empty engine has %d points", e2.Series().Len())
	}
}

func TestEngineCleanRestart(t *testing.T) {
	dir := t.TempDir()
	e := openTestEngine(t, dir, Options{})
	appendN(t, e, 0, 7)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := openTestEngine(t, dir, Options{})
	defer e2.Close()
	if got := e2.Series().Labels(); len(got) != 7 || got[0] != "t0" || got[6] != "t6" {
		t.Fatalf("recovered labels %v", got)
	}
	if ri := e2.Recovery(); ri.WALRecords != 7 || ri.TruncatedBytes != 0 {
		t.Fatalf("recovery %+v, want 7 clean WAL records", ri)
	}
	// The recovered series keeps accepting appends.
	appendN(t, e2, 7, 9)
	if e2.Series().Len() != 9 {
		t.Fatalf("len %d after post-recovery appends", e2.Series().Len())
	}
}

// TestEngineCrashRestart simulates kill -9: the first engine is abandoned
// without Close (FsyncAlways, so every acked record is on disk) and the
// directory reopened.
func TestEngineCrashRestart(t *testing.T) {
	dir := t.TempDir()
	e := openTestEngine(t, dir, Options{Fsync: FsyncAlways, CheckpointRecords: -1})
	appendN(t, e, 0, 5)
	// No Close: the OS file handle leaks until the test exits, exactly as a
	// killed process would leave it.
	e2 := openTestEngine(t, dir, Options{Fsync: FsyncAlways, CheckpointRecords: -1})
	defer e2.Close()
	if got := e2.Series().Labels(); len(got) != 5 {
		t.Fatalf("recovered labels %v, want 5", got)
	}
	if ri := e2.Recovery(); ri.WALRecords != 5 {
		t.Fatalf("recovery %+v", ri)
	}
}

// TestEngineCrashAfterCheckpoints streams past two automatic checkpoints —
// timelines several words long, full of nodes that stopped appearing (whose
// timestamp sets are shorter than the timeline) — then abandons the engine: every acknowledged point
// must come back, from a snapshot, and every snapshot left behind must load.
func TestEngineCrashAfterCheckpoints(t *testing.T) {
	dir := t.TempDir()
	e := openTestEngine(t, dir, Options{Fsync: FsyncNever, CheckpointRecords: 256})
	const acked = 640
	appendN(t, e, 0, acked)
	e.wg.Wait() // the background checkpoint finishes; still no Close
	e2 := openTestEngine(t, dir, Options{Fsync: FsyncNever, CheckpointRecords: -1})
	defer e2.Close()
	if got := e2.Series().Len(); got != acked {
		t.Errorf("recovered %d points, want all %d acknowledged", got, acked)
	}
	if ri := e2.Recovery(); ri.SnapshotGeneration == 0 {
		t.Errorf("recovery %+v, want a snapshot generation", ri)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snapshot-*.gts"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshot left in %s (err %v)", dir, err)
	}
	for _, path := range snaps {
		if _, err := LoadFile(path); err != nil {
			t.Errorf("LoadFile(%s): %v", filepath.Base(path), err)
		}
	}
}

func TestEngineTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	e := openTestEngine(t, dir, Options{Fsync: FsyncAlways, CheckpointRecords: -1})
	appendN(t, e, 0, 4)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last record.
	path := filepath.Join(dir, walName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	e2 := openTestEngine(t, dir, Options{CheckpointRecords: -1})
	defer e2.Close()
	if got := e2.Series().Labels(); len(got) != 3 {
		t.Fatalf("recovered %v, want 3 records", got)
	}
	ri := e2.Recovery()
	if ri.WALRecords != 3 || ri.TruncatedBytes == 0 {
		t.Fatalf("recovery %+v, want 3 records and a truncated tail", ri)
	}
	// The torn record's label was never acked durable; its slot is free.
	label, snap := testBatch(3)
	if err := e2.Append(label, snap); err != nil {
		t.Fatalf("re-append after truncation: %v", err)
	}
}

func TestEngineCheckpointAndGC(t *testing.T) {
	dir := t.TempDir()
	e := openTestEngine(t, dir, Options{CheckpointRecords: -1})
	appendN(t, e, 0, 6)
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	st := e.Stats()
	if st.Checkpoints != 1 || st.Generation != 1 {
		t.Fatalf("stats %+v", st)
	}
	// Old generation files are gone; new snapshot + segment exist.
	if _, err := os.Stat(filepath.Join(dir, walName(0))); !os.IsNotExist(err) {
		t.Fatalf("wal-0 not collected: %v", err)
	}
	for _, name := range []string{snapName(1), walName(1)} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
	}
	// Records appended after the checkpoint land in the new segment.
	appendN(t, e, 6, 8)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := openTestEngine(t, dir, Options{CheckpointRecords: -1})
	defer e2.Close()
	if got := e2.Series().Labels(); len(got) != 8 {
		t.Fatalf("recovered %v, want 8", got)
	}
	ri := e2.Recovery()
	if ri.SnapshotGeneration != 1 || ri.SnapshotPoints != 6 || ri.WALRecords != 2 {
		t.Fatalf("recovery %+v, want snapshot gen 1 with 6 points + 2 WAL records", ri)
	}
}

func TestEngineAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	e := openTestEngine(t, dir, Options{CheckpointRecords: 3})
	appendN(t, e, 0, 10)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Checkpoints; got == 0 {
		t.Fatalf("no automatic checkpoint after 10 appends with threshold 3")
	}
	e2 := openTestEngine(t, dir, Options{})
	defer e2.Close()
	if e2.Series().Len() != 10 {
		t.Fatalf("recovered %d points, want 10", e2.Series().Len())
	}
}

// flipSnapshotByte damages one byte in the middle of snapshot gen's body.
func flipSnapshotByte(t *testing.T, dir string, gen uint64) {
	t.Helper()
	path := filepath.Join(dir, snapName(gen))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestEngineCorruptSnapshotFallsBack damages the newest snapshot. Recovery
// falls back to whatever still holds the whole acknowledged history — a
// loadable predecessor plus its segments, or segments reaching back to
// generation 0 — and refuses with ErrUnrecoverable when nothing does: with
// the predecessors collected, the records before the oldest surviving
// segment exist only in the damaged file, and booting on the rest would
// serve a fragment.
func TestEngineCorruptSnapshotFallsBack(t *testing.T) {
	// Every row ingests 4 points, checkpoints (snapshot 1), ingests 3 more,
	// checkpoints again (snapshot 2, collecting generation 1) and ingests 2
	// into wal-2; keep names the collected files put back before reopening,
	// as if the crash had interrupted the collection.
	for _, tc := range []struct {
		name    string
		keep    []string
		corrupt []uint64
		refused []string // file names ErrUnrecoverable must carry; nil = recovers all 9 points
	}{
		{name: "predecessors collected", corrupt: []uint64{2},
			refused: []string{snapName(2), walName(2)}},
		{name: "every snapshot damaged, segments from 1", keep: []string{snapName(1), walName(1)}, corrupt: []uint64{1, 2},
			refused: []string{snapName(1), snapName(2), walName(1)}},
		{name: "loadable predecessor and its segments", keep: []string{snapName(1), walName(1)}, corrupt: []uint64{2}},
		{name: "segments back to generation 0", keep: []string{walName(0), walName(1)}, corrupt: []uint64{2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			kept := map[string][]byte{}
			save := func() {
				for _, name := range tc.keep {
					if data, err := os.ReadFile(filepath.Join(dir, name)); err == nil {
						kept[name] = data
					}
				}
			}
			e := openTestEngine(t, dir, Options{CheckpointRecords: -1})
			appendN(t, e, 0, 4)
			save()
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			appendN(t, e, 4, 7)
			save()
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			appendN(t, e, 7, 9)
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			for name, data := range kept {
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			for _, gen := range tc.corrupt {
				flipSnapshotByte(t, dir, gen)
			}

			if tc.refused != nil {
				_, err := Open(dir, testAttrs, Options{CheckpointRecords: -1})
				if !errors.Is(err, ErrUnrecoverable) {
					t.Fatalf("Open = %v, want ErrUnrecoverable", err)
				}
				for _, part := range append([]string{dir}, tc.refused...) {
					if !strings.Contains(err.Error(), part) {
						t.Errorf("error does not name %s: %v", part, err)
					}
				}
				return
			}
			// Boot, crash (no Close) and boot again with no checkpoint in
			// between: the first boot must not collect a segment its loaded
			// snapshot does not cover.
			crashed := openTestEngine(t, dir, Options{CheckpointRecords: -1})
			if got := crashed.Series().Len(); got != 9 {
				t.Fatalf("recovered %d points, want all 9 acknowledged", got)
			}
			e2 := openTestEngine(t, dir, Options{CheckpointRecords: -1})
			if got := e2.Series().Len(); got != 9 {
				t.Fatalf("second boot recovered %d points, want all 9 acknowledged", got)
			}
			appendN(t, e2, 9, 11)
			if err := e2.Checkpoint(); err != nil {
				t.Fatalf("checkpoint after fallback: %v", err)
			}
			if err := e2.Close(); err != nil {
				t.Fatal(err)
			}
			e3 := openTestEngine(t, dir, Options{CheckpointRecords: -1})
			defer e3.Close()
			if ri := e3.Recovery(); e3.Series().Len() != 11 || ri.SnapshotPoints != 11 {
				t.Fatalf("after the retried checkpoint: %d points, recovery %+v", e3.Series().Len(), ri)
			}
		})
	}
}

// TestEngineRefusesBelowNamedTxn: the newest snapshot is damaged in its
// blob area only, so its framed meta sections still parse and name the txn
// it covers (7). Its loadable predecessor covers 4, and the segment that
// carried records 5–7 is gone: recovery would reach txn 6 (4 + wal-2's 2)
// with a hole in the history. Open must refuse, naming both numbers and
// both snapshots, and leave every file as it was.
func TestEngineRefusesBelowNamedTxn(t *testing.T) {
	dir := t.TempDir()
	e := openTestEngine(t, dir, Options{CheckpointRecords: -1})
	appendN(t, e, 0, 4)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(filepath.Join(dir, snapName(1)))
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, e, 4, 7)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	appendN(t, e, 7, 9)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapName(1)), first, 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapName(2))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ent, _, _ := dirEntry(t, data, blobNodeTau, 1)
	data[binary.LittleEndian.Uint64(data[ent+8:])] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirContents(t, dir)

	_, err = Open(dir, testAttrs, Options{CheckpointRecords: -1})
	if !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("Open = %v, want ErrUnrecoverable", err)
	}
	for _, part := range []string{dir, snapName(2), snapName(1), "txn 7", "txn 6"} {
		if !strings.Contains(err.Error(), part) {
			t.Errorf("error does not name %s: %v", part, err)
		}
	}
	if after := dirContents(t, dir); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("refused Open changed the directory:\n%v\nwas\n%v", after, before)
	}
}

// dirContents maps every file in dir to its bytes.
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(ents))
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[ent.Name()] = string(data)
	}
	return out
}

// TestCheckpointVerifiesBeforeGC damages each snapshot between its write
// and its verification: the checkpoint must fail, count the failure, and
// leave the generation and segments it would have replaced in place, so a
// crash right then still recovers every acknowledged point; the next
// undisturbed checkpoint retries the compaction and collects them.
func TestCheckpointVerifiesBeforeGC(t *testing.T) {
	dir := t.TempDir()
	e := openTestEngine(t, dir, Options{Fsync: FsyncAlways, CheckpointRecords: -1})
	appendN(t, e, 0, 4)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	appendN(t, e, 4, 7)

	testHookSnapshotWritten = func(path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Error(err)
			return
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Error(err)
		}
	}
	defer func() { testHookSnapshotWritten = nil }()
	if err := e.Checkpoint(); !isStorageError(err) {
		t.Fatalf("checkpoint over a damaged snapshot: %v, want a typed storage error", err)
	}
	testHookSnapshotWritten = nil
	if st := e.Stats(); st.Checkpoints != 1 || st.CheckpointErrors != 1 {
		t.Fatalf("stats %+v, want 1 checkpoint and 1 checkpoint error", st)
	}
	for _, name := range []string{snapName(1), walName(1), walName(2)} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("%s was not kept: %v", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, snapName(2))); !os.IsNotExist(err) {
		t.Fatalf("unverified snapshot left behind: %v", err)
	}
	appendN(t, e, 7, 9) // acknowledged into the segment the failed checkpoint opened

	// Crash here: no Close.
	e2 := openTestEngine(t, dir, Options{Fsync: FsyncAlways, CheckpointRecords: -1})
	if got := e2.Series().Len(); got != 9 {
		t.Fatalf("recovered %d points, want all 9 acknowledged", got)
	}
	if ri := e2.Recovery(); ri.SnapshotGeneration != 1 || ri.SnapshotPoints != 4 || ri.WALRecords != 5 {
		t.Fatalf("recovery %+v, want snapshot gen 1 with 4 points + 5 WAL records", ri)
	}
	if err := e2.Checkpoint(); err != nil {
		t.Fatalf("retry checkpoint: %v", err)
	}
	gen := e2.Stats().Generation
	for _, old := range []string{snapName(1), walName(1), walName(2)} {
		if _, err := os.Stat(filepath.Join(dir, old)); !os.IsNotExist(err) {
			t.Fatalf("%s not collected after the retry: %v", old, err)
		}
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	e3 := openTestEngine(t, dir, Options{CheckpointRecords: -1})
	defer e3.Close()
	if ri := e3.Recovery(); e3.Series().Len() != 9 || ri.SnapshotGeneration != gen || ri.SnapshotPoints != 9 {
		t.Fatalf("after retry: %d points, recovery %+v, want 9 from snapshot gen %d", e3.Series().Len(), ri, gen)
	}
}

func TestEngineValidationErrorsLeaveNoState(t *testing.T) {
	dir := t.TempDir()
	e := openTestEngine(t, dir, Options{})
	defer e.Close()
	appendN(t, e, 0, 1)
	label, snap := testBatch(0) // duplicate label
	if err := e.Append(label, snap); err == nil {
		t.Fatal("duplicate label accepted")
	}
	if err := e.Append("bad", stream.Snapshot{
		Edges: []stream.EdgeRecord{{U: "x", V: "y"}},
	}); err == nil {
		t.Fatal("dangling edge accepted")
	}
	if n := e.Stats().WALRecords; n != 1 {
		t.Fatalf("%d WAL records after 1 good + 2 bad appends", n)
	}
}

func TestEngineSchemaMismatch(t *testing.T) {
	dir := t.TempDir()
	e := openTestEngine(t, dir, Options{CheckpointRecords: -1})
	appendN(t, e, 0, 3)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	other := []core.AttrSpec{{Name: "color", Kind: core.Static}}
	if _, err := Open(dir, other, Options{}); err == nil {
		t.Fatal("engine opened a data directory written under a different schema")
	}
}

func TestEngineClosedAppend(t *testing.T) {
	e := openTestEngine(t, t.TempDir(), Options{})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	label, snap := testBatch(0)
	if err := e.Append(label, snap); err == nil {
		t.Fatal("append on closed engine succeeded")
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, s := range []string{"always", "interval", "never"} {
		p, err := ParseFsyncPolicy(s)
		if err != nil || p.String() != s {
			t.Fatalf("%q: %v %v", s, p, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

// TestEngineConcurrent exercises appends, checkpoints, window queries and
// stats under the race detector.
func TestEngineConcurrent(t *testing.T) {
	dir := t.TempDir()
	e := openTestEngine(t, dir, Options{Fsync: FsyncInterval, FsyncInterval: 1e6, CheckpointRecords: 8})
	const n = 60
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			label, snap := testBatch(i)
			if err := e.Append(label, snap); err != nil {
				t.Errorf("Append %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			_ = e.Stats()
			if e.Series().Len() > 1 {
				if _, err := e.Series().Graph(); err != nil {
					t.Errorf("Graph: %v", err)
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if err := e.Checkpoint(); err != nil {
				t.Errorf("Checkpoint: %v", err)
			}
		}
	}()
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := openTestEngine(t, dir, Options{})
	defer e2.Close()
	if e2.Series().Len() != n {
		t.Fatalf("recovered %d points, want %d", e2.Series().Len(), n)
	}
	// Exactly the appended labels, in order.
	labels := e2.Series().Labels()
	for i, l := range labels {
		if want := fmt.Sprintf("t%d", i); l != want {
			t.Fatalf("label %d is %q, want %q", i, l, want)
		}
	}
}

func TestErrorsAreTyped(t *testing.T) {
	if !errors.Is(fmt.Errorf("%w: detail", ErrWAL), ErrWAL) {
		t.Fatal("ErrWAL does not wrap")
	}
}
