package storage

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/stream"
)

// A cut is a checkpoint captured at its trigger and not yet written: the
// snapshot generation it creates, the series' graph and journal at that
// txn, and its place in the order checkpoints are written.
type cut struct {
	gen     uint64
	g       *core.Graph
	journal []stream.JournalEntry
	took    time.Duration   // the capture and rotation
	prev    <-chan struct{} // closed when the previous cut is written; nil for the first
	done    chan struct{}   // closed when this one is
}

// startCheckpoint cuts a checkpoint at the current txn — the step of the
// compaction that runs under the append lock. Every append takes that lock,
// so the graph it captures is exactly the state the captured journal
// builds, and the checkpoint an append triggers covers that append and
// nothing after it. It syncs the active segment, creates segment gen+1 (so
// only the newest segment can ever carry a torn tail) and swaps it in. It
// returns nil when nothing was ever appended. Called with e.mu held.
//
// writeCheckpoint does the rest, outside the lock:
//
//  1. Wait until the previous cut is written, so generations land in order.
//  2. Write the captured graph and the journal's records as
//     snapshot-<gen+1>.gts atomically (.tmp + rename + directory sync).
//  3. Load the file just written, with every check Load has, and compare
//     its covered-txn watermark with the captured journal's length.
//  4. Only then garbage-collect the snapshots and segments the new
//     generation made redundant.
//
// Nothing is encoded or replayed: the journal entries carry the bytes the
// WAL logged, and the series already holds the graph (usually cached, since
// the serving layer materializes it after every ingest), so a checkpoint
// costs the file write and its verification, not the history. A failure
// after the cut leaves extra segments behind, and a snapshot that fails
// step 3 is removed with the previous generation and its segments kept;
// recovery replays them, so nothing is lost — the next checkpoint retries
// the compaction. A failed sync of the active segment stops the engine (see
// Engine), and a stopped engine checkpoints nothing.
func (e *Engine) startCheckpoint() (*cut, error) {
	start := time.Now()
	if e.failed != nil {
		return nil, e.failed
	}
	journal := e.series.Journal()
	if len(journal) == 0 {
		return nil, nil
	}
	g, err := e.series.Graph()
	if err != nil {
		return nil, err
	}
	if err := e.wal.sync(); err != nil {
		return nil, e.fail(err)
	}
	e.ctr.fsyncs.Add(1)
	newGen := e.gen + 1
	newPath := filepath.Join(e.dir, walName(newGen))
	nw, err := createWAL(e.fs, newPath, newGen)
	if err == nil {
		if err = syncDir(e.fs, e.dir); err != nil {
			nw.close()
		}
	}
	if err != nil {
		e.fs.Remove(newPath)
		return nil, err
	}
	e.wal.close()
	e.wal, e.gen, e.segRecords = nw, newGen, 0
	cp := &cut{gen: newGen, g: g, journal: journal, prev: e.lastCut, done: make(chan struct{})}
	e.lastCut = cp.done
	cp.took = time.Since(start)
	return cp, nil
}

// writeCheckpoint writes, verifies and garbage-collects behind the
// snapshot cp captured (steps 1–4 of startCheckpoint).
func (e *Engine) writeCheckpoint(cp *cut) error {
	defer close(cp.done)
	if cp.prev != nil {
		<-cp.prev
	}
	start := time.Now()
	txn := len(cp.journal)
	records := make([][]byte, txn)
	for i, j := range cp.journal {
		records[i] = j.Record
	}
	path := filepath.Join(e.dir, snapName(cp.gen))
	if err := saveFile(e.fs, path, cp.g, records, txn); err != nil {
		return err
	}
	if hook := testHookSnapshotWritten; hook != nil {
		hook(path)
	}
	if err := e.verifySnapshot(path, txn); err != nil {
		e.log.Error("checkpoint wrote an unusable snapshot; keeping the previous generation and its segments",
			"file", path, "err", err)
		e.fs.Remove(path)
		return err
	}
	e.gcBefore(cp.gen)
	elapsed := cp.took + time.Since(start)
	e.ctr.checkpoints.Add(1)
	e.ctr.lastCheckpointUs.Store(elapsed.Microseconds())
	e.log.Info("checkpoint complete",
		"dir", e.dir, "generation", cp.gen, "points", txn,
		"elapsed", elapsed.Round(time.Millisecond).String())
	return nil
}

// testHookSnapshotWritten, when non-nil, runs between a checkpoint's
// snapshot write and its verification — tests use it to damage the file.
var testHookSnapshotWritten func(path string)

// verifySnapshot loads the snapshot at path the way recovery would and
// checks that it covers exactly txn transactions.
func (e *Engine) verifySnapshot(path string, txn int) error {
	snap, err := loadFile(e.fs, path)
	if err != nil {
		return fmt.Errorf("storage: verify %s: %w", filepath.Base(path), err)
	}
	if got := snap.CoveredTxn(); got != txn {
		return fmt.Errorf("%w: %s covers txn %d, checkpoint captured %d", ErrCorrupt, filepath.Base(path), got, txn)
	}
	return nil
}
