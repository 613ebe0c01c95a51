package storage

import (
	"fmt"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/stream"
)

// ReplayStats describes how a point-in-time reconstruction was performed.
type ReplayStats struct {
	// FromSnapshot is true when the reconstruction started from the
	// on-disk snapshot (covered-txn watermark SnapshotTxn) and replayed
	// only the delta; false means a full replay of the record log.
	FromSnapshot bool
	// SnapshotTxn is the covered-txn watermark of the snapshot used.
	SnapshotTxn int
	// Replayed is the number of records applied on top of the base.
	Replayed int
}

// ReplayTo reconstructs the graph as of transaction txn (1-based,
// inclusive): the state the engine served right after acknowledging its
// txn'th ingest record, whatever has been appended since.
//
// When the newest snapshot's covered-txn watermark lies at or below txn,
// the reconstruction is the snapshot's series restored with the delta
// batches folded in (stream.Restore); otherwise (watermark ahead of txn, or
// the snapshot file gone to a concurrent checkpoint's GC) it falls back to
// a full replay of the first txn records. Both paths produce byte-identical
// graphs — the equivalence the storage oracle tests pin down.
func (e *Engine) ReplayTo(txn int) (*core.Graph, ReplayStats, error) {
	e.mu.Lock()
	n := e.series.Txn()
	snapGen, snapTxn := e.snapGen, e.snapTxn
	e.mu.Unlock()
	if txn < 1 || txn > n {
		return nil, ReplayStats{}, fmt.Errorf("storage: txn %d out of range [1,%d]", txn, n)
	}

	if snapTxn > 0 && snapTxn <= txn {
		g, err := e.resumeFromSnapshot(snapGen, e.series.Journal()[:txn], snapTxn)
		if err == nil {
			return g, ReplayStats{FromSnapshot: true, SnapshotTxn: snapTxn, Replayed: txn - snapTxn}, nil
		}
		e.log.Warn("snapshot resume failed, replaying full log", "txn", txn, "err", err)
	}

	g, err := e.series.ReplayTo(txn)
	return g, ReplayStats{Replayed: txn}, err
}

// resumeFromSnapshot restores the series the generation-gen snapshot holds,
// which covers the first snapTxn batches of journal, with the rest folded in.
func (e *Engine) resumeFromSnapshot(gen uint64, journal []stream.JournalEntry, snapTxn int) (*core.Graph, error) {
	snap, err := loadFile(e.fs, filepath.Join(e.dir, snapName(gen)))
	if err != nil {
		return nil, err
	}
	if got := snap.CoveredTxn(); got != snapTxn {
		return nil, fmt.Errorf("%w: snapshot covers txn %d, engine watermark says %d", ErrCorrupt, got, snapTxn)
	}
	s, err := stream.Restore(snap.Graph, journal, snapTxn)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return s.Graph()
}
