package storage

import (
	"fmt"
	"path/filepath"
	"time"
)

// checkpoint compacts the WAL into a new snapshot generation:
//
//  1. Under the append lock: capture the record log and the series' graph —
//     every append goes through that lock, so the graph is exactly the
//     state those records build — sync the active segment, create segment
//     gen+1 (so only the newest segment can ever carry a torn tail) and
//     swap it in.
//  2. Outside the lock: write the captured graph and records as
//     snapshot-<gen+1>.gts atomically (.tmp + rename + directory sync).
//  3. Load the file just written, with every check Load has, and compare
//     its covered-txn watermark with the captured record count.
//  4. Only then garbage-collect the snapshots and segments the new
//     generation made redundant.
//
// Nothing is replayed: the series already holds the graph (usually cached,
// since the serving layer materializes it after every ingest), so a
// checkpoint costs the file write and its verification, not the history.
// A failure after step 1 leaves extra segments behind, and a snapshot that
// fails step 3 is removed with the previous generation and its segments
// kept; recovery replays them, so nothing is lost — the next checkpoint
// retries the compaction. A failed sync of the active segment stops the
// engine (see Engine), and a stopped engine checkpoints nothing.
func (e *Engine) checkpoint() error {
	start := time.Now()

	// No closed-check here: Close waits for an in-flight checkpoint before
	// closing the WAL handle, so a checkpoint triggered just before
	// shutdown still completes its compaction.
	e.mu.Lock()
	if e.failed != nil {
		e.mu.Unlock()
		return e.failed
	}
	// The snapshot embeds the raw record log in transaction order (not the
	// series' valid order): recovery rebuilds the journal from it, and the
	// covered-txn watermark below equals its length. Payloads are immutable
	// and raw is append-only, so the capped slice stays valid unlocked.
	raw := e.raw[:len(e.raw):len(e.raw)]
	if len(raw) == 0 {
		e.mu.Unlock()
		return nil
	}
	g, err := e.series.Graph()
	if err != nil {
		e.mu.Unlock()
		return err
	}
	if err := e.wal.sync(); err != nil {
		err = e.fail(err)
		e.mu.Unlock()
		return err
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
		e.mu.Unlock()
		return err
	}
	old := e.wal
	e.wal = nw
	e.gen = newGen
	e.segRecords = 0
	e.mu.Unlock()
	old.close()

	path := filepath.Join(e.dir, snapName(newGen))
	if err := saveFile(e.fs, path, g, raw, len(raw)); err != nil {
		return err
	}
	if hook := testHookSnapshotWritten; hook != nil {
		hook(path)
	}
	if err := e.verifySnapshot(path, len(raw)); err != nil {
		e.log.Error("checkpoint wrote an unusable snapshot; keeping the previous generation and its segments",
			"file", path, "err", err)
		e.fs.Remove(path)
		return err
	}
	e.mu.Lock()
	e.snapGen, e.snapTxn = newGen, len(raw)
	e.mu.Unlock()

	e.gcBefore(newGen)
	e.ctr.checkpoints.Add(1)
	e.ctr.lastCheckpointUs.Store(time.Since(start).Microseconds())
	e.log.Info("checkpoint complete",
		"dir", e.dir, "generation", newGen, "points", len(raw),
		"elapsed", time.Since(start).Round(time.Millisecond).String())
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
