package stream

import (
	"fmt"
	"slices"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dict"
)

// The map path, kept as the reference for the record path: a record
// decoded into maps (DecodeIngestRecord), checked against the accumulated
// state by validate and applied by applyAcc. Oracle is a series that takes
// batches that way; the property tests drive it and a Series through the
// same histories and require the same verdicts and the same graphs.

// DecodeIngestRecord parses a record into its labels and maps. before is ""
// for a tail append and the insertion label for a retroactive record.
func DecodeIngestRecord(payload []byte) (label, before string, snap Snapshot, err error) {
	d, label, before := openRecord(payload)
	nn := d.Count(1)
	for i := 0; i < nn && d.Err == nil; i++ {
		snap.Nodes = append(snap.Nodes, NodeRecord{
			Label:   d.Str(),
			Static:  readAttrMap(d),
			Varying: readAttrMap(d),
		})
	}
	ne := d.Count(1)
	for i := 0; i < ne && d.Err == nil; i++ {
		snap.Edges = append(snap.Edges, EdgeRecord{U: d.Str(), V: d.Str()})
	}
	if d.Err != nil {
		return "", "", Snapshot{}, d.Err
	}
	if d.Remaining() != 0 {
		return "", "", Snapshot{}, fmt.Errorf("%w: %d trailing bytes", errMalformed, d.Remaining())
	}
	return label, before, snap, nil
}

func readAttrMap(d *codec.Dec) map[string]string {
	n := d.Count(2)
	if n == 0 {
		return nil
	}
	m := make(map[string]string, n)
	for i := 0; i < n && d.Err == nil; i++ {
		k := d.Str()
		m[k] = d.Str()
	}
	return m
}

// validate checks a batch against the schema and the accumulated state
// without mutating anything.
func validate(acc *core.Accumulator, attrs []core.AttrSpec, labels []string, label string, snap Snapshot) error {
	for _, l := range labels {
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
		for ai, spec := range attrs {
			if spec.Kind != core.Static {
				continue
			}
			v, ok := n.Static[spec.Name]
			if !ok {
				continue
			}
			id, seen := acc.NodeID(n.Label)
			if !seen {
				continue
			}
			prev := acc.StaticValue(core.AttrID(ai), id)
			if prev != dict.None && prev != acc.StaticCode(core.AttrID(ai), v) {
				return fmt.Errorf("stream: node %s static attribute %s changed from %q to %q",
					n.Label, spec.Name, acc.ValueString(core.AttrID(ai), prev), v)
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

// applyAcc feeds one decoded batch into an accumulator.
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

// Oracle is the map-path series: valid order keeps the decoded batches, and
// a mid-timeline insert re-applies them.
type Oracle struct {
	attrs   []core.AttrSpec
	labels  []string
	snaps   []Snapshot
	journal []oracleEntry
	acc     *core.Accumulator
}

type oracleEntry struct {
	label, before string
	snap          Snapshot
}

func NewOracle(attrs ...core.AttrSpec) *Oracle {
	return &Oracle{attrs: attrs, acc: core.NewAccumulator(attrs...)}
}

// AppendAt is Series.AppendAt on the map path.
func (o *Oracle) AppendAt(label string, snap Snapshot, before string) (int, error) {
	at := len(o.labels)
	if before != "" {
		if at = slices.Index(o.labels, before); at < 0 {
			return 0, fmt.Errorf("stream: retroactive ingest: no time point labeled %q", before)
		}
	}
	if err := validate(o.acc, o.attrs, o.labels, label, snap); err != nil {
		return 0, err
	}
	tail := at == len(o.labels)
	o.labels = slices.Insert(o.labels, at, label)
	o.snaps = slices.Insert(o.snaps, at, snap)
	o.journal = append(o.journal, oracleEntry{label, before, snap})
	if tail {
		applyAcc(o.acc, o.attrs, label, snap)
		return at, nil
	}
	o.acc = core.NewAccumulator(o.attrs...)
	for i, l := range o.labels {
		applyAcc(o.acc, o.attrs, l, o.snaps[i])
	}
	return at, nil
}

func (o *Oracle) Len() int { return len(o.labels) }

// Graph is the graph of every batch appended (the oracle must not be empty).
func (o *Oracle) Graph() *core.Graph { return o.acc.Snapshot() }

// ReplayTo is the graph after the first txn batches, appended again into a
// fresh oracle.
func (o *Oracle) ReplayTo(txn int) *core.Graph {
	r := NewOracle(o.attrs...)
	for _, e := range o.journal[:txn] {
		if _, err := r.AppendAt(e.label, e.snap, e.before); err != nil {
			panic(err)
		}
	}
	return r.Graph()
}

// ScratchReplay is the graph as of transaction txn replayed from the first
// record of s's journal into a fresh series, by the positions and inserts
// ingest took: the reference every anchored ReplayTo must equal.
func ScratchReplay(s *Series, txn int) (*core.Graph, error) {
	scratch := New(s.attrs...)
	for _, e := range s.Journal()[:txn] {
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

// MaxAnchors is the anchor bound, for the tests that check it holds.
const MaxAnchors = maxAnchors
