// Package stream supports evolving graphs that arrive one time point at a
// time — the interactive setting the paper's conclusion envisions.
//
// A Series ingests snapshots (the nodes and edges alive at the new time
// point, with attribute values). A full core.Graph over everything ingested
// so far can be materialized at any time (and is cached between appends);
// per-point aggregates and their T-distributive window sums (§4.3) are
// materialize.Catalog's job, over that graph. The series feeds every append
// into a core.Accumulator, so materializing after an append costs
// O(batch + V + E) — a snapshot of shared columns — rather than a replay of
// the whole history. Validation is two-phase: a batch is checked completely (including
// static-attribute conflicts with earlier points) before any state changes,
// so a rejected batch leaves no trace and never reaches a write-ahead log.
package stream

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/dict"
)

// NodeRecord describes one node alive at the appended time point.
type NodeRecord struct {
	Label string
	// Static holds static attribute values; values for a node seen before
	// must not contradict the earlier ones.
	Static map[string]string
	// Varying holds this time point's values of time-varying attributes.
	Varying map[string]string
}

// EdgeRecord describes one directed interaction at the appended time
// point. Both endpoints must appear in the snapshot's node list.
type EdgeRecord struct {
	U, V string
}

// Snapshot is the content of one time point.
type Snapshot struct {
	Nodes []NodeRecord
	Edges []EdgeRecord
}

// JournalEntry is one ingested batch in transaction order: the valid-time
// label it created, the batch content, and — for retroactive ingests — the
// pre-existing label it was inserted before ("" for a tail append). The
// journal is the series' transaction-time axis: replaying entries 0..n in
// order reconstructs the exact series state after transaction n.
type JournalEntry struct {
	Label  string
	Before string
	Snap   Snapshot
}

// Series accumulates an evolving graph. It is safe for concurrent use:
// appends take the write lock, reads and materialization the read lock, so
// a serving layer can ingest while answering queries.
type Series struct {
	mu     sync.RWMutex
	attrs  []core.AttrSpec
	labels []string
	snaps  []Snapshot

	// journal records every ingested batch in transaction (arrival) order,
	// which differs from valid order once a retroactive batch lands.
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

// validate checks a batch against the schema and the accumulated state
// without mutating anything. Called with the write lock held.
func (s *Series) validate(label string, snap Snapshot) error {
	for _, l := range s.labels {
		if l == label {
			return fmt.Errorf("stream: duplicate time point label %q", label)
		}
	}
	present := make(map[string]bool, len(snap.Nodes))
	for _, n := range snap.Nodes {
		if n.Label == "" {
			return fmt.Errorf("stream: node with empty label at %s", label)
		}
		if present[n.Label] {
			return fmt.Errorf("stream: node %q appears twice at %s", n.Label, label)
		}
		present[n.Label] = true
		for ai, spec := range s.attrs {
			if spec.Kind != core.Static {
				continue
			}
			v, ok := n.Static[spec.Name]
			if !ok {
				continue
			}
			id, seen := s.acc.NodeID(n.Label)
			if !seen {
				continue
			}
			prev := s.acc.StaticValue(core.AttrID(ai), id)
			if prev != dict.None && prev != s.acc.StaticCode(core.AttrID(ai), v) {
				return fmt.Errorf("stream: node %s static attribute %s changed from %q to %q",
					n.Label, spec.Name, s.acc.ValueString(core.AttrID(ai), prev), v)
			}
		}
	}
	for _, e := range snap.Edges {
		if !present[e.U] || !present[e.V] {
			return fmt.Errorf("stream: edge (%s,%s) references a node not in the %s snapshot", e.U, e.V, label)
		}
	}
	return nil
}

// applyAcc feeds one batch into an accumulator — the single definition of
// how a snapshot becomes graph columns, shared by tail inserts, the
// valid-order replay a mid-timeline insert performs, and Resumer.
func applyAcc(acc *core.Accumulator, attrs []core.AttrSpec, label string, snap Snapshot) {
	acc.AddPoint(label)
	for _, n := range snap.Nodes {
		id := acc.EnsureNode(n.Label)
		acc.SetNodeTime(id)
		for ai, spec := range attrs {
			if spec.Kind == core.Static {
				if v, ok := n.Static[spec.Name]; ok {
					acc.SetStatic(core.AttrID(ai), id, v)
				}
			} else if v, ok := n.Varying[spec.Name]; ok && v != "" {
				acc.SetVarying(core.AttrID(ai), id, v)
			}
		}
	}
	for _, e := range snap.Edges {
		u, _ := acc.NodeID(e.U)
		v, _ := acc.NodeID(e.V)
		acc.SetEdgeTime(acc.EnsureEdge(u, v))
	}
}

// AppendAt ingests one time point — the series' only mutator. The label
// must be new; edges must reference snapshot nodes; nodes must carry values
// for every attribute of the schema (static values may be omitted after the
// node's first appearance, and must not contradict the value recorded at
// another point). An empty `before` appends at the valid-time tail; naming an
// existing label inserts the point immediately before it (a retroactive,
// late-arriving batch). Either way the batch takes the tail of transaction
// time. The returned index is the new point's valid-time position:
// everything at or after it must be re-aggregated by the serving layers.
// The whole batch is validated before any state changes: a returned error
// means the series is exactly as it was.
func (s *Series) AppendAt(label string, snap Snapshot, before string) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	at, err := s.position(before)
	if err != nil {
		return 0, err
	}
	if err := s.validate(label, snap); err != nil {
		return 0, err
	}
	s.insert(label, snap, before, at)
	return at, nil
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

// insert folds a validated batch into valid position at. A tail insert
// feeds the accumulator one more point; anything earlier rebuilds it by
// replaying the new valid order, because its columns are keyed by
// first-appearance order over valid time, which a mid-timeline insert can
// shift wholesale. Called with the write lock held; must not fail.
func (s *Series) insert(label string, snap Snapshot, before string, at int) {
	tail := at == len(s.labels)
	s.labels = slices.Insert(s.labels, at, label)
	s.snaps = slices.Insert(s.snaps, at, snap)
	s.journal = append(s.journal, JournalEntry{Label: label, Before: before, Snap: snap})
	s.cached = nil
	if tail {
		applyAcc(s.acc, s.attrs, label, snap)
		return
	}
	s.acc = core.NewAccumulator(s.attrs...)
	for i, l := range s.labels {
		applyAcc(s.acc, s.attrs, l, s.snaps[i])
	}
}

// Txn returns the transaction high-water mark: the number of batches ever
// ingested. It equals Len() — every batch, tail or retroactive, creates
// exactly one time point — but is the semantically correct axis for AS OF.
func (s *Series) Txn() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.journal)
}

// Journal returns a copy of the transaction journal. Snapshots share
// record slices with the series; callers must treat them as read-only.
func (s *Series) Journal() []JournalEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]JournalEntry(nil), s.journal...)
}

// ReplayTo reconstructs the graph as of transaction txn (1-based,
// inclusive) by replaying the journal prefix into a scratch series. The
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
	entries := append([]JournalEntry(nil), s.journal[:txn]...)
	attrs := append([]core.AttrSpec(nil), s.attrs...)
	s.mu.RUnlock()

	scratch := New(attrs...)
	for _, e := range entries {
		at, err := scratch.position(e.Before)
		if err != nil {
			return nil, fmt.Errorf("stream: journal corrupt: entry %q: %w", e.Label, err)
		}
		scratch.insert(e.Label, e.Snap, e.Before, at)
	}
	return scratch.acc.Snapshot(), nil
}

// Resumer replays tail batches on top of a previously snapshotted graph —
// the "snapshot + partial WAL replay" half of point-in-time
// reconstruction. It performs no validation: the batches come from a WAL
// that validated them at ingest. Retroactive batches cannot be resumed
// (they reshuffle the columns the snapshot froze); callers fall back to a
// full replay when the delta contains one.
type Resumer struct {
	acc   *core.Accumulator
	attrs []core.AttrSpec
}

// NewResumer returns a resumer whose state is exactly g's.
func NewResumer(g *core.Graph) *Resumer {
	return &Resumer{acc: core.ResumeAccumulator(g), attrs: g.Attrs()}
}

// Append applies one tail batch.
func (r *Resumer) Append(label string, snap Snapshot) {
	applyAcc(r.acc, r.attrs, label, snap)
}

// Graph snapshots the resumed state. Byte-identical to the graph a live
// series held after ingesting the same history, because the snapshot
// reader pins dictionary codes and entity IDs in their original order and
// Append assigns new ones exactly as live ingestion does.
func (r *Resumer) Graph() *core.Graph {
	return r.acc.Snapshot()
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
