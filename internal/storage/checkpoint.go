package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/stream"
)

// checkpoint compacts the WAL into a new snapshot generation:
//
//  1. Under the append lock: sync the active segment, create segment
//     gen+1 (so only the newest segment can ever carry a torn tail),
//     swap it in, and capture the point set the snapshot must cover.
//  2. Outside the lock: materialize the captured points and write
//     snapshot-<gen+1>.gts atomically (.tmp + rename + directory sync).
//  3. Load the file just written, with every check Load has, and compare
//     its covered-txn watermark with the captured point count.
//  4. Only then garbage-collect the snapshots and segments the new
//     generation made redundant.
//
// A failure after step 1 leaves extra segments behind, and a snapshot that
// fails step 3 is removed with the previous generation and its segments
// kept; recovery replays them, so nothing is lost — the next checkpoint
// retries the compaction.
func (e *Engine) checkpoint() error {
	start := time.Now()

	// No closed-check here: Close waits for an in-flight checkpoint before
	// closing the WAL handle, so a checkpoint triggered just before
	// shutdown still completes its compaction.
	e.mu.Lock()
	// The snapshot embeds the raw record log in transaction order (not the
	// series' valid order): replaying it reproduces retroactive inserts
	// exactly, and the covered-txn watermark below equals its length.
	raw := append([][]byte(nil), e.raw...)
	if len(raw) == 0 {
		e.mu.Unlock()
		return nil
	}
	if err := e.wal.sync(); err != nil {
		e.mu.Unlock()
		return err
	}
	e.ctr.fsyncs.Add(1)
	newGen := e.gen + 1
	nw, err := createWAL(filepath.Join(e.dir, walName(newGen)), newGen)
	if err != nil {
		e.mu.Unlock()
		return err
	}
	if err := syncDir(e.dir); err != nil {
		nw.close()
		os.Remove(filepath.Join(e.dir, walName(newGen)))
		e.mu.Unlock()
		return err
	}
	old := e.wal
	e.wal = nw
	e.gen = newGen
	e.segRecords = 0
	e.mu.Unlock()
	old.close()

	// Re-materialize from the captured records on a scratch series — the
	// same replay recovery performs — rather than reading e.series, which
	// may already hold records belonging to the next generation.
	scratch := stream.New(e.attrs...)
	points := make([]seriesPoint, len(raw))
	for i, payload := range raw {
		if err := replayRecord(scratch, payload); err != nil {
			return fmt.Errorf("storage: checkpoint replay: %v", err)
		}
		points[i] = seriesPoint{payload: payload}
	}
	g, err := scratch.Graph()
	if err != nil {
		return fmt.Errorf("storage: checkpoint materialize: %v", err)
	}
	path := filepath.Join(e.dir, snapName(newGen))
	if err := saveFile(path, g, nil, points, len(points)); err != nil {
		return err
	}
	if hook := testHookSnapshotWritten; hook != nil {
		hook(path)
	}
	if err := verifySnapshot(path, len(points)); err != nil {
		e.log.Error("checkpoint wrote an unusable snapshot; keeping the previous generation and its segments",
			"file", path, "err", err)
		os.Remove(path)
		return err
	}
	e.mu.Lock()
	e.snapGen, e.snapTxn = newGen, len(points)
	e.mu.Unlock()

	e.gcBefore(newGen)
	e.ctr.checkpoints.Add(1)
	e.ctr.lastCheckpointUs.Store(time.Since(start).Microseconds())
	e.log.Info("checkpoint complete",
		"dir", e.dir, "generation", newGen, "points", len(points),
		"elapsed", time.Since(start).Round(time.Millisecond).String())
	return nil
}

// testHookSnapshotWritten, when non-nil, runs between a checkpoint's
// snapshot write and its verification — tests use it to damage the file.
var testHookSnapshotWritten func(path string)

// verifySnapshot loads the snapshot at path the way recovery would and
// checks that it covers exactly txn transactions.
func verifySnapshot(path string, txn int) error {
	snap, err := LoadFile(path)
	if err != nil {
		return fmt.Errorf("storage: verify %s: %w", filepath.Base(path), err)
	}
	if got := snap.CoveredTxn(); got != txn {
		return fmt.Errorf("%w: %s covers txn %d, checkpoint captured %d", ErrCorrupt, filepath.Base(path), got, txn)
	}
	return nil
}
