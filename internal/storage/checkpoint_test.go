package storage

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"sync"
	"testing"

	"repro/internal/dataset"
)

// replayedSnapshot is the file a checkpoint covering the first txn records
// must write: the graph a full replay of those records builds, with the
// records themselves embedded.
func replayedSnapshot(t *testing.T, e *Engine, txn int) []byte {
	t.Helper()
	var buf bytes.Buffer
	journal := e.Series().Journal()[:txn]
	g := oracleReplay(t, e.attrs, journal, txn)
	records := make([][]byte, txn)
	for i, j := range journal {
		records[i] = j.Record
	}
	if err := writeSnapshotV2(&buf, g, records, txn); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointWritesReplayedSnapshot captures every snapshot a checkpoint
// writes — sequentially over random histories with retroactive inserts, and
// with appends racing the checkpointer — and compares it byte for byte with
// the file a full replay of the records it covers would produce: the graph
// the series holds is the graph its records build.
func TestCheckpointWritesReplayedSnapshot(t *testing.T) {
	var (
		mu      sync.Mutex
		written [][]byte
	)
	testHookSnapshotWritten = func(path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		written = append(written, data)
		mu.Unlock()
	}
	defer func() { testHookSnapshotWritten = nil }()
	check := func(t *testing.T, e *Engine) {
		t.Helper()
		if len(written) == 0 {
			t.Fatal("no checkpoint wrote a snapshot")
		}
		for i, data := range written {
			snap, err := decode(append([]byte(nil), data...))
			if err != nil {
				t.Fatalf("snapshot %d: %v", i, err)
			}
			if want := replayedSnapshot(t, e, snap.CoveredTxn()); !bytes.Equal(data, want) {
				t.Fatalf("snapshot %d (txn %d) differs from the replayed one (%d vs %d bytes)",
					i, snap.CoveredTxn(), len(data), len(want))
			}
		}
		written = nil
	}

	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			e := openTestEngine(t, t.TempDir(), Options{CheckpointRecords: -1})
			defer e.Close()
			randomJournal(t, e, rand.New(rand.NewSource(seed)), 40)
			check(t, e)
		})
	}
	t.Run("racing appends", func(t *testing.T) {
		e := openTestEngine(t, t.TempDir(), Options{Fsync: FsyncNever, CheckpointRecords: 5})
		defer e.Close()
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 80; i++ {
				label, snap := testBatch(i)
				if err := e.Append(label, snap); err != nil {
					t.Errorf("Append %d: %v", i, err)
					return
				}
			}
		}()
		for i := 0; i < 20; i++ {
			if err := e.Checkpoint(); err != nil {
				t.Errorf("Checkpoint: %v", err)
			}
		}
		<-done
		e.wg.Wait()
		mu.Lock()
		defer mu.Unlock()
		check(t, e)
	})
}

// TestRecoveredSeriesMatchesReplay reopens directories whose newest
// snapshot covers retroactive inserts — cleanly closed and abandoned — and
// checks that the series recovery restores from that snapshot is the one a
// full replay builds, byte for byte, and stays so through further tail
// appends, retroactive inserts, a checkpoint and another reopen.
func TestRecoveredSeriesMatchesReplay(t *testing.T) {
	for _, crash := range []bool{false, true} {
		t.Run(fmt.Sprintf("crash=%v", crash), func(t *testing.T) {
			dir := t.TempDir()
			r := rand.New(rand.NewSource(7))
			e := openTestEngine(t, dir, Options{Fsync: FsyncAlways, CheckpointRecords: -1})
			randomJournal(t, e, r, 35) // checkpoints at 10, 20, 30
			if !crash {
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
			}
			matches := func(e *Engine, step string) {
				t.Helper()
				live, err := e.Series().Graph()
				if err != nil {
					t.Fatal(err)
				}
				journal := e.Series().Journal()
				if want := snapBytes(t, oracleReplay(t, testAttrs, journal, len(journal))); !bytes.Equal(snapBytes(t, live), want) {
					t.Fatalf("%s: recovered series diverges from the full replay of its %d records", step, len(journal))
				}
			}
			e2 := openTestEngine(t, dir, Options{Fsync: FsyncAlways, CheckpointRecords: -1})
			if ri := e2.Recovery(); ri.SnapshotPoints != 30 || ri.WALRecords != 5 {
				t.Fatalf("recovery %+v, want 30 snapshot points + 5 WAL records", ri)
			}
			matches(e2, "reopened")
			assertReplayMatchesOracle(t, e2, testAttrs, []int{1, 15, 30, 35})
			randomJournal(t, e2, r, 25) // more retroactive inserts, checkpoints at 40, 50
			matches(e2, "appended after recovery")
			if err := e2.Close(); err != nil {
				t.Fatal(err)
			}
			e3 := openTestEngine(t, dir, Options{CheckpointRecords: -1})
			defer e3.Close()
			if got := e3.Series().Len(); got != 60 {
				t.Fatalf("second reopen: %d points, want 60", got)
			}
			matches(e3, "reopened twice")
		})
	}
}

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// contactsDir fills dir with a durable school-contacts stream of the given
// length — 24 classes of 10 students, 330 contacts a day, the shape of the
// ingest_audit benchmark's history — checkpointed once after checkpointAt
// days (0: never).
func contactsDir(b *testing.B, dir string, days, checkpointAt int) *Engine {
	b.Helper()
	attrs, labels, snaps := graphBatches(dataset.SchoolContacts(1, dataset.ContactsParams{
		Days: days, Grades: 6, ClassesPerGrade: 4, StudentsPerClass: 10,
		ContactsPerDay: 330, Homophily: 0.7, MitigationDay: days / 2,
	}))
	e, err := Open(dir, attrs, Options{Fsync: FsyncNever, CheckpointRecords: -1, Logger: quiet})
	if err != nil {
		b.Fatal(err)
	}
	for i, label := range labels {
		if err := e.Append(label, snaps[i]); err != nil {
			b.Fatal(err)
		}
		if i+1 == checkpointAt {
			if err := e.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
	}
	return e
}

// BenchmarkCheckpoint times one checkpoint of a 1,024-day (1x) and a
// 4,096-day (4x) history: the snapshot write and its verification.
func BenchmarkCheckpoint(b *testing.B) {
	for _, mult := range []int{1, 4} {
		b.Run(fmt.Sprintf("history=%dx", mult), func(b *testing.B) {
			e := contactsDir(b, b.TempDir(), 1024*mult, 0)
			defer e.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecover times Open of a directory whose snapshot covers a
// 1,024-day history and whose live segment holds 16 more records.
func BenchmarkRecover(b *testing.B) {
	dir := b.TempDir()
	e := contactsDir(b, dir, 1040, 1024)
	attrs := e.attrs
	if err := e.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := Open(dir, attrs, Options{CheckpointRecords: -1, Logger: quiet})
		if err != nil {
			b.Fatal(err)
		}
		e.Close()
	}
}
