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

	"repro/internal/bitset"
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

	// anchors, in txn order, are states ReplayFrom resumes from (keepAnchor).
	anchors []anchor
	spacing int
}

// anchor is the graph as of transaction txn.
type anchor struct {
	txn int
	g   *core.Graph
}

// maxAnchors bounds the anchors: once the journal outgrows maxAnchors ×
// spacing entries, the spacing doubles and the anchors off it are dropped,
// so n transactions keep at most maxAnchors states about n/maxAnchors
// apart, plus the one Restore resumed from until the next doubling.
const maxAnchors = 32

// New returns an empty series with the given attribute schema.
func New(attrs ...core.AttrSpec) *Series {
	return &Series{
		attrs:   append([]core.AttrSpec(nil), attrs...),
		acc:     core.NewAccumulator(attrs...),
		spacing: 1,
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

// AppendRecord checks rec (an error changes nothing), applies it and
// journals it; the caller must not modify rec afterwards.
func (s *Series) AppendRecord(rec []byte) (int, error) {
	return s.Apply(Verdict{rec: rec})
}

// Verdict is a record CheckRecord accepted, with its labels, its valid-time
// position and the series and Txn() it was checked against.
type Verdict struct {
	s             *Series
	rec           []byte
	label, before string
	at, txn       int
}

// CheckRecord returns the verdict and the error AppendRecord would return
// for rec, changing nothing: a write-ahead log checks a record before
// logging it, then applies the verdict.
func (s *Series) CheckRecord(rec []byte) (Verdict, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	label, before, at, err := s.check(rec)
	return Verdict{s, rec, label, before, at, len(s.journal)}, err
}

// Apply, the only mutator, appends a checked record. A verdict this series
// gave at its current Txn() still holds, since the journal only grows, and
// is applied as it is; any other is checked again (an error changes
// nothing).
func (s *Series) Apply(v Verdict) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v.s != s || v.txn != len(s.journal) {
		var err error
		if v.label, v.before, v.at, err = s.check(v.rec); err != nil {
			return 0, err
		}
	}
	return v.at, s.insert(JournalEntry{Label: v.label, Before: v.before, Record: v.rec}, v.at)
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
// journal, leaving the accumulator to the caller, and doubles the anchor
// spacing when the journal outgrows it.
func (s *Series) place(e JournalEntry, at int) {
	s.labels = slices.Insert(s.labels, at, e.Label)
	s.records = slices.Insert(s.records, at, e.Record)
	s.journal = append(s.journal, e)
	for len(s.journal) > maxAnchors*s.spacing {
		s.spacing *= 2
		s.anchors = slices.DeleteFunc(s.anchors, func(a anchor) bool { return a.txn%s.spacing != 0 })
	}
}

// keepAnchor makes a snapshot of acc the anchor at txn if txn is on the
// spacing and has none yet. Called with the write lock held.
func (s *Series) keepAnchor(txn int, acc *core.Accumulator) {
	i, found := slices.BinarySearchFunc(s.anchors, txn, func(a anchor, t int) int { return a.txn - t })
	if !found && txn%s.spacing == 0 {
		s.anchors = slices.Insert(s.anchors, i, anchor{txn, acc.Snapshot()})
	}
}

// Restore rebuilds the series that ingested journal, given g, the graph
// that series materialized after its first covered entries (covered ≥ 1),
// and keeps g as its first anchor. Those entries are only placed, the
// accumulator resumed from g's columns; the rest are folded in as ingest
// folded them. Nothing is checked again (records read from a file go
// through RecordEntry). g's timeline must be the covered entries' valid
// order.
func Restore(g *core.Graph, journal []JournalEntry, covered int) (*Series, error) {
	if len(journal) < covered {
		return nil, fmt.Errorf("stream: journal of %d entries, graph covers %d", len(journal), covered)
	}
	s := New(g.Attrs()...)
	if err := s.resume(g, journal, covered, func(int) {}); err != nil {
		return nil, err
	}
	s.anchors = []anchor{{covered, g}}
	return s, nil
}

// resume is Restore on a series nobody else holds yet, with g nil when
// covered is 0; step sees the txn of each entry folded in.
func (s *Series) resume(g *core.Graph, journal []JournalEntry, covered int, step func(txn int)) error {
	for i, e := range journal {
		at, err := s.position(e.Before)
		if err == nil && i >= covered {
			err = s.insert(e, at)
		}
		if err != nil {
			return fmt.Errorf("stream: journal corrupt: entry %q: %w", e.Label, err)
		}
		if i >= covered {
			step(i + 1)
			continue
		}
		s.place(e, at)
		if i == covered-1 {
			if !slices.Equal(s.labels, g.Timeline().Labels()) {
				return fmt.Errorf("stream: graph timeline does not match the journal's first %d points", covered)
			}
			s.acc = core.ResumeAccumulator(g)
		}
	}
	return nil
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

// ReplayTo is ReplayFrom without the anchor.
func (s *Series) ReplayTo(txn int) (*core.Graph, error) {
	g, _, err := s.ReplayFrom(txn)
	return g, err
}

// ReplayFrom reconstructs the graph as of transaction txn (1-based,
// inclusive) from the newest anchor at or below it, resumed as Restore
// resumes, with the journal's records after it folded in; with no such
// anchor, from the first record. It returns the anchor's txn (0 for none),
// and keeps the states on the spacing it passes as anchors. The result is
// byte-identical to what Graph() returned when the journal had exactly txn
// entries: an anchor is the state at its txn, a transaction prefix never
// changes, and the fold follows the code paths ingestion took.
func (s *Series) ReplayFrom(txn int) (*core.Graph, int, error) {
	s.mu.RLock()
	n := len(s.journal)
	if txn < 1 || txn > n {
		s.mu.RUnlock()
		return nil, 0, fmt.Errorf("stream: txn %d out of range [1,%d]", txn, n)
	}
	entries, base, spacing := s.journal[:txn], anchor{}, s.spacing
	for _, a := range s.anchors {
		if a.txn <= txn {
			base = a
		}
	}
	s.mu.RUnlock()

	scratch := New(s.attrs...)
	err := scratch.resume(base.g, entries, base.txn, func(t int) {
		if t%spacing == 0 {
			s.mu.Lock()
			s.keepAnchor(t, scratch.acc)
			s.mu.Unlock()
		}
	})
	if err != nil {
		return nil, 0, err
	}
	return scratch.acc.Snapshot(), base.txn, nil
}

// AnchorStats describes the anchors ReplayFrom resumes from.
type AnchorStats struct {
	Count, Spacing int
	// Bytes estimates what each anchor holds that the one before it does
	// not share: its timestamp pointer arrays and the bitsets changed since
	// (an accumulator copies a bitset when a newer point extends it).
	Bytes int64
}

// Anchors returns the series' anchor statistics.
func (s *Series) Anchors() AnchorStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := AnchorStats{Count: len(s.anchors), Spacing: s.spacing}
	var prev *core.Graph
	for _, a := range s.anchors {
		for _, side := range []struct {
			n   func(*core.Graph) int
			tau func(*core.Graph, int) *bitset.Set
		}{
			{(*core.Graph).NumNodes, func(g *core.Graph, i int) *bitset.Set { return g.NodeTau(core.NodeID(i)) }},
			{(*core.Graph).NumEdges, func(g *core.Graph, i int) *bitset.Set { return g.EdgeTau(core.EdgeID(i)) }},
		} {
			st.Bytes += 8 * int64(side.n(a.g))
			for i := range side.n(a.g) {
				if b := side.tau(a.g, i); prev == nil || i >= side.n(prev) || side.tau(prev, i) != b {
					st.Bytes += 32 + 8*int64((b.Len()+63)/64)
				}
			}
		}
		prev = a.g
	}
	return st
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
