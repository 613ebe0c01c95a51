package storage

import "fmt"

// This file is the storage half of WAL replication: it exports the
// length-prefixed framing so `internal/server` can stream a shard's history
// over HTTP (`/v1/wal/stream`) and a replica (or the router's mirror) can
// apply it (the record codec is EncodeIngestRecord/DecodeIngestRecord in
// wal.go), plus the engine-side tail API that serves those records without
// touching the segment files on every poll.
//
// The unit of replication is the ingest record: one encoded time point,
// exactly the payload the WAL frames on disk and checkpoints embed in
// snapshots. A shard's record log is therefore identified by a single
// monotone sequence number — the number of time points ever appended
// (series.Len()) — which survives restarts, unlike Engine.seq which counts
// records since Open.

// FormatVersion is the on-disk snapshot/WAL format version, exported for
// the serving tier's /v1/status report.
const FormatVersion = formatVersion

// TailRecords returns the raw ingest record payloads with global sequence
// number >= from, i.e. the records for time points from..Len-1. The engine
// retains every record in memory (they are compact varint encodings, a
// small fraction of the decoded in-memory graph) precisely so replication
// polls never contend with segment files or checkpoints. The returned
// slices are shared and must not be modified.
func (e *Engine) TailRecords(from int) ([][]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if from < 0 || from > len(e.raw) {
		return nil, fmt.Errorf("storage: tail from %d out of range [0,%d]", from, len(e.raw))
	}
	if from == len(e.raw) {
		return nil, nil
	}
	out := make([][]byte, len(e.raw)-from)
	copy(out, e.raw[from:])
	return out, nil
}
