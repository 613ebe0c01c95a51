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
// When the newest snapshot's covered-txn watermark lies at or below txn
// and the delta contains no retroactive record, the reconstruction is
// snapshot + partial replay of raw[snapTxn:txn]; otherwise (watermark
// ahead of txn, a retroactive delta record, or the snapshot file gone to
// a concurrent checkpoint's GC) it falls back to a full replay of the
// first txn records. Both paths produce byte-identical graphs — the
// equivalence the storage oracle tests pin down.
func (e *Engine) ReplayTo(txn int) (*core.Graph, ReplayStats, error) {
	e.mu.Lock()
	n := len(e.raw)
	if txn < 1 || txn > n {
		e.mu.Unlock()
		return nil, ReplayStats{}, fmt.Errorf("storage: txn %d out of range [1,%d]", txn, n)
	}
	raw := e.raw[:txn:txn] // record payloads are immutable and raw is append-only
	snapGen, snapTxn := e.snapGen, e.snapTxn
	e.mu.Unlock()

	if snapTxn > 0 && snapTxn <= txn {
		resumable := true
		for _, p := range raw[snapTxn:] {
			if len(p) > 0 && p[0] == recIngestAt {
				resumable = false
				break
			}
		}
		if resumable {
			if g, st, err := e.resumeFromSnapshot(snapGen, snapTxn, raw); err == nil {
				return g, st, nil
			} else {
				e.log.Warn("snapshot resume failed, replaying full log", "txn", txn, "err", err)
			}
		}
	}

	// The series journal holds the same batches as raw[:txn], decoded.
	g, err := e.series.ReplayTo(txn)
	return g, ReplayStats{Replayed: txn}, err
}

// resumeFromSnapshot loads the generation-gen snapshot and replays the
// delta records raw[snapTxn:] on top of it.
func (e *Engine) resumeFromSnapshot(gen uint64, snapTxn int, raw [][]byte) (*core.Graph, ReplayStats, error) {
	snap, err := LoadFile(filepath.Join(e.dir, snapName(gen)))
	if err != nil {
		return nil, ReplayStats{}, err
	}
	if got := snap.CoveredTxn(); got != snapTxn {
		return nil, ReplayStats{}, fmt.Errorf("%w: snapshot covers txn %d, engine watermark says %d", ErrCorrupt, got, snapTxn)
	}
	r := stream.NewResumer(snap.Graph)
	for _, p := range raw[snapTxn:] {
		label, before, batch, derr := DecodeIngestRecord(p)
		if derr != nil {
			return nil, ReplayStats{}, derr
		}
		if before != "" {
			return nil, ReplayStats{}, fmt.Errorf("%w: retroactive record in resume delta", ErrCorrupt)
		}
		r.Append(label, batch)
	}
	return r.Graph(), ReplayStats{
		FromSnapshot: true,
		SnapshotTxn:  snapTxn,
		Replayed:     len(raw) - snapTxn,
	}, nil
}
