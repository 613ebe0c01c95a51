package storage

import (
	"fmt"

	"repro/internal/core"
)

// ReplayStats describes how a point-in-time reconstruction was performed.
type ReplayStats struct {
	// AnchorTxn is the txn of the in-memory anchor the reconstruction
	// resumed from (stream.Series.ReplayFrom), 0 for the first record.
	AnchorTxn int
	// Replayed is the number of records applied on top of the anchor.
	Replayed int
}

// ReplayTo reconstructs the graph as of transaction txn (1-based,
// inclusive): the state the engine served right after acknowledging its
// txn'th ingest record, whatever has been appended since. It is the series'
// replay, which resumes from the newest anchor at or below txn — the graph
// a recovered engine loaded from its snapshot is the first — so durable and
// in-memory stream mode reconstruct AS OF states on one path.
func (e *Engine) ReplayTo(txn int) (*core.Graph, ReplayStats, error) {
	if n := e.series.Txn(); txn < 1 || txn > n {
		return nil, ReplayStats{}, fmt.Errorf("storage: txn %d out of range [1,%d]", txn, n)
	}
	g, from, err := e.series.ReplayFrom(txn)
	return g, ReplayStats{AnchorTxn: from, Replayed: txn - from}, err
}
