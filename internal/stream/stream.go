// Package stream supports evolving graphs that arrive one time point at a
// time — the interactive setting the paper's conclusion envisions.
//
// A Series ingests batches (the nodes and edges alive at the new time
// point, with attribute values), each in one form once accepted: its record
// (EncodeRecord), the bytes the series checks, applies and journals and a
// write-ahead log, a checkpoint and replication carry. Nothing decodes a
// record back into maps. A full core.Graph over everything ingested can be
// materialized at any time (and is cached between appends); the series
// feeds every append into a core.Accumulator, so that costs O(batch + V +
// E) rather than a replay of the history. A record is checked completely
// before any state changes, so a rejected batch leaves no trace and never
// reaches a write-ahead log.
package stream

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
)

// NodeRecord describes one node alive at the appended time point. The JSON
// tags are graphtempod's ingest wire form.
type NodeRecord struct {
	Label string `json:"label"`
	// Static holds static attribute values; values for a node seen before
	// must not contradict the earlier ones.
	Static map[string]string `json:"static,omitempty"`
	// Varying holds this time point's values of time-varying attributes.
	Varying map[string]string `json:"varying,omitempty"`
}

// EdgeRecord describes one directed interaction at the appended time
// point. Both endpoints must appear in the snapshot's node list.
type EdgeRecord struct {
	U string `json:"u"`
	V string `json:"v"`
}

// Snapshot is the content of one time point.
type Snapshot struct {
	Nodes []NodeRecord
	Edges []EdgeRecord
}

// JournalEntry is one ingested batch in transaction order: the label it
// created, the label it was inserted before ("" for a tail append), and its
// record. Replaying entries 0..n rebuilds the series after transaction n.
type JournalEntry struct {
	Label  string
	Before string
	Record []byte
}

// Series accumulates an evolving graph. It is safe for concurrent use:
// appends take the write lock, reads and materialization the read lock, so
// a serving layer can ingest while answering queries.
type Series struct {
	mu    sync.RWMutex
	attrs []core.AttrSpec

	// labels and records in valid order; journal in transaction order,
	// which differs once a retroactive batch lands.
	labels  []string
	records [][]byte
	journal []JournalEntry

	acc    *core.Accumulator
	cached *core.Graph // latest snapshot; nil when stale
}

// New returns an empty series with the given attribute schema.
func New(attrs ...core.AttrSpec) *Series {
	return &Series{
		attrs: append([]core.AttrSpec(nil), attrs...),
		acc:   core.NewAccumulator(attrs...),
	}
}

// Len returns the number of time points ingested.
func (s *Series) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.labels)
}

// Labels returns the ingested time point labels in order.
func (s *Series) Labels() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.labels...)
}

// Append ingests the next time point at the valid-time tail: AppendAt with
// no position.
func (s *Series) Append(label string, snap Snapshot) error {
	_, err := s.AppendAt(label, snap, "")
	return err
}

// AppendAt ingests one time point: AppendRecord of the batch's record. An
// empty `before` appends at the valid-time tail; an existing label inserts
// the point immediately before it (a retroactive batch). Either way the
// batch takes the tail of transaction time. The returned index is the new
// point's valid-time position: everything from it on must be re-aggregated.
func (s *Series) AppendAt(label string, snap Snapshot, before string) (int, error) {
	return s.AppendRecord(EncodeRecord(label, before, snap))
}

// AppendRecord, the only mutator, checks rec (an error changes nothing),
// applies it and journals it; the caller must not modify rec afterwards.
func (s *Series) AppendRecord(rec []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	label, before, at, err := s.check(rec)
	if err != nil {
		return 0, err
	}
	return at, s.insert(JournalEntry{Label: label, Before: before, Record: rec}, at)
}

// CheckRecord returns the error AppendRecord would return for rec, changing
// nothing: a write-ahead log checks a record before logging it.
func (s *Series) CheckRecord(rec []byte) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, _, _, err := s.check(rec)
	return err
}

// position resolves an insertion label to its valid-time index; "" is the
// tail. Called with the lock held.
func (s *Series) position(before string) (int, error) {
	if before == "" {
		return len(s.labels), nil
	}
	if at := slices.Index(s.labels, before); at >= 0 {
		return at, nil
	}
	return 0, fmt.Errorf("stream: retroactive ingest: no time point labeled %q", before)
}

// insert folds a checked batch into valid position at. A tail insert
// feeds the accumulator one more point; anything earlier re-applies every
// record in the new valid order, because columns are keyed by
// first-appearance order over valid time. Called with the write lock held;
// fails only on a record that was never checked.
func (s *Series) insert(e JournalEntry, at int) error {
	tail := at == len(s.labels)
	s.place(e, at)
	s.cached = nil
	if tail {
		return applyRecord(s.acc, s.attrs, e.Label, e.Record)
	}
	s.acc = core.NewAccumulator(s.attrs...)
	for i, l := range s.labels {
		if err := applyRecord(s.acc, s.attrs, l, s.records[i]); err != nil {
			return err
		}
	}
	return nil
}

// place records a batch at valid position at and at the tail of the
// journal, leaving the accumulator to the caller.
func (s *Series) place(e JournalEntry, at int) {
	s.labels = slices.Insert(s.labels, at, e.Label)
	s.records = slices.Insert(s.records, at, e.Record)
	s.journal = append(s.journal, e)
}

// Restore rebuilds the series that ingested journal, given g, the graph
// that series materialized after its first covered entries (covered ≥ 1).
// Those entries are only placed, the accumulator resumed from g's columns;
// the rest are folded in as ReplayTo folds every entry. Nothing is checked
// again (records read from a file go through RecordEntry). g's timeline
// must be the covered entries' valid order.
func Restore(g *core.Graph, journal []JournalEntry, covered int) (*Series, error) {
	if len(journal) < covered {
		return nil, fmt.Errorf("stream: journal of %d entries, graph covers %d", len(journal), covered)
	}
	s := New(g.Attrs()...)
	for i, e := range journal {
		at, err := s.position(e.Before)
		if err != nil {
			return nil, fmt.Errorf("stream: journal corrupt: entry %q: %w", e.Label, err)
		}
		if i >= covered {
			if err := s.insert(e, at); err != nil {
				return nil, fmt.Errorf("stream: journal corrupt: entry %q: %w", e.Label, err)
			}
			continue
		}
		s.place(e, at)
		if i == covered-1 {
			if !slices.Equal(s.labels, g.Timeline().Labels()) {
				return nil, fmt.Errorf("stream: graph timeline does not match the journal's first %d points", covered)
			}
			s.acc = core.ResumeAccumulator(g)
		}
	}
	return s, nil
}

// Txn returns the transaction high-water mark: the number of batches ever
// ingested. It equals Len() — every batch, tail or retroactive, creates
// exactly one time point — but is the semantically correct axis for AS OF.
func (s *Series) Txn() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.journal)
}

// Journal returns the transaction journal: a view, not a copy (it only
// grows at its end), that callers must treat as read-only.
func (s *Series) Journal() []JournalEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.journal[:len(s.journal):len(s.journal)]
}

// ReplayTo reconstructs the graph as of transaction txn (1-based,
// inclusive) by replaying the journal prefix's records into a scratch
// series. The
// result is byte-identical to what Graph() returned when the journal had
// exactly txn entries: replay is deterministic and follows the same code
// paths ingestion took.
func (s *Series) ReplayTo(txn int) (*core.Graph, error) {
	s.mu.RLock()
	n := len(s.journal)
	if txn < 1 || txn > n {
		s.mu.RUnlock()
		return nil, fmt.Errorf("stream: txn %d out of range [1,%d]", txn, n)
	}
	entries := s.journal[:txn]
	s.mu.RUnlock()

	scratch := New(s.attrs...)
	for _, e := range entries {
		at, err := scratch.position(e.Before)
		if err == nil {
			err = scratch.insert(e, at)
		}
		if err != nil {
			return nil, fmt.Errorf("stream: journal corrupt: entry %q: %w", e.Label, err)
		}
	}
	return scratch.acc.Snapshot(), nil
}

// Attrs returns the series' attribute schema.
func (s *Series) Attrs() []core.AttrSpec {
	return append([]core.AttrSpec(nil), s.attrs...)
}

// Graph materializes (and caches) the full temporal attributed graph over
// every ingested time point. With the accumulator maintained at every
// Append, this is an O(nodes + edges) snapshot of shared state, not a
// replay of history. Static attribute conflicts are rejected by Append, so
// the only error here is an empty series.
func (s *Series) Graph() (*core.Graph, error) {
	s.mu.RLock()
	if g := s.cached; g != nil {
		s.mu.RUnlock()
		return g, nil
	}
	s.mu.RUnlock()
	// Snapshot under the write lock; re-check in case another goroutine
	// snapshotted while we waited.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cached != nil {
		return s.cached, nil
	}
	if len(s.labels) == 0 {
		return nil, fmt.Errorf("stream: no time points ingested")
	}
	s.cached = s.acc.Snapshot()
	return s.cached, nil
}
