package stream

import (
	"errors"
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dict"
)

// Record types (the first byte): a tail append, or a retroactive insert
// before an existing label. Either is one transaction and one time point.
const (
	recIngest   byte = 1
	recIngestAt byte = 2
)

// errMalformed marks bytes that do not parse as an ingest record.
var errMalformed = errors.New("stream: malformed ingest record")

// EncodeRecord serializes one ingest batch as its record, the one form an
// accepted batch has: type, label, for recIngestAt the label it goes
// before, the node count, per node its label and static and varying maps
// (pair count, then key and value), the edge count and endpoint labels.
func EncodeRecord(label, before string, snap Snapshot) []byte {
	e := &codec.Enc{B: make([]byte, 0, 64+32*len(snap.Nodes)+8*len(snap.Edges))}
	if before == "" {
		e.Byte(recIngest)
	} else {
		e.Byte(recIngestAt)
	}
	e.Str(label)
	if before != "" {
		e.Str(before)
	}
	e.Uvarint(uint64(len(snap.Nodes)))
	for _, n := range snap.Nodes {
		e.Str(n.Label)
		writeAttrMap(e, n.Static)
		writeAttrMap(e, n.Varying)
	}
	e.Uvarint(uint64(len(snap.Edges)))
	for _, ed := range snap.Edges {
		e.Str(ed.U)
		e.Str(ed.V)
	}
	return e.B
}

// writeAttrMap writes a map's pairs in ascending key order, so a record's
// bytes are a function of its batch. The keys are insertion-sorted in a
// stack array; only a map of more than eight spills to the heap.
func writeAttrMap(e *codec.Enc, m map[string]string) {
	e.Uvarint(uint64(len(m)))
	var buf [8]string
	keys := buf[:0]
	for k := range m {
		keys = append(keys, k)
		i := len(keys) - 1
		for ; i > 0 && keys[i-1] > k; i-- {
			keys[i] = keys[i-1]
		}
		keys[i] = k
	}
	for _, k := range keys {
		e.Str(k)
		e.Str(m[k])
	}
}

// openRecord reads a record's type, label and insertion label ("" for a
// tail append), leaving d at the start of the body; a failure is in d.Err.
func openRecord(rec []byte) (d *codec.Dec, label, before string) {
	d = &codec.Dec{B: rec, Corrupt: errMalformed}
	switch t := d.Byte(); t {
	case recIngest:
		label = d.Str()
	case recIngestAt:
		label, before = d.Str(), d.Str()
	default:
		d.Fail("unknown record type %d", t)
	}
	return d, label, before
}

// walkBody hands each node of a record body, then each edge, to the
// callbacks, and requires that no byte follows. A node's vals hold per
// schema attribute the value of its static (or, for a time-varying one,
// varying) map, nil when absent; other keys are skipped and a repeated key
// keeps its last value, as decoding the maps would. Nothing is copied.
func walkBody(d *codec.Dec, attrs []core.AttrSpec, onNode func(label []byte, vals [][]byte), onEdge func(u, v []byte)) error {
	vals := make([][]byte, len(attrs))
	nodes := d.Count(3)
	for i := 0; i < nodes && d.Err == nil; i++ {
		label := d.Bytes()
		clear(vals)
		for _, kind := range [2]core.AttrKind{core.Static, core.TimeVarying} {
			pairs := d.Count(2)
			for j := 0; j < pairs && d.Err == nil; j++ {
				k, v := d.Bytes(), d.Bytes()
				for ai, spec := range attrs {
					if spec.Kind == kind && spec.Name == string(k) {
						vals[ai] = v // a subslice of rec: non-nil even when empty
						break
					}
				}
			}
		}
		if d.Err == nil {
			onNode(label, vals)
		}
	}
	edges := d.Count(2)
	for i := 0; i < edges && d.Err == nil; i++ {
		if u, v := d.Bytes(), d.Bytes(); d.Err == nil {
			onEdge(u, v)
		}
	}
	if d.Err == nil && d.Remaining() != 0 {
		d.Fail("%d trailing bytes", d.Remaining())
	}
	return d.Err
}

// RecordEntry returns rec's journal entry once all of rec parses.
func RecordEntry(rec []byte) (JournalEntry, error) {
	d, label, before := openRecord(rec)
	if err := walkBody(d, nil, func([]byte, [][]byte) {}, func(u, v []byte) {}); err != nil {
		return JournalEntry{}, err
	}
	return JournalEntry{Label: label, Before: before, Record: rec}, nil
}

// check (lock held; it changes nothing) returns rec's labels and position
// or the error appending it would return: malformed bytes, else the first
// of an unknown insertion label, an empty or duplicate point label, per
// node an empty or repeated label or a static value contradicting another
// point's (first in schema order), an edge to a node the batch lacks.
func (s *Series) check(rec []byte) (label, before string, at int, err error) {
	d, label, before := openRecord(rec) // a failure surfaces from walkBody
	at, verdict := s.position(before)
	switch {
	case verdict != nil:
	case label == "":
		verdict = fmt.Errorf("stream: empty time point label")
	case slices.Contains(s.labels, label):
		verdict = fmt.Errorf("stream: duplicate time point label %q", label)
	}
	// present's keys alias rec, which outlives the map and does not change.
	peek := *d
	present := make(map[string]struct{}, peek.Count(3))
	onNode := func(node []byte, vals [][]byte) {
		switch _, dup := present[string(node)]; {
		case verdict != nil:
			return
		case len(node) == 0:
			verdict = fmt.Errorf("stream: node with empty label at %s", label)
		case dup:
			verdict = fmt.Errorf("stream: node %q appears twice at %s", node, label)
		}
		present[unsafe.String(unsafe.SliceData(node), len(node))] = struct{}{}
		id, seen := s.acc.NodeID(string(node))
		for ai, spec := range s.attrs {
			a, v := core.AttrID(ai), vals[ai]
			if verdict != nil || !seen || spec.Kind != core.Static || v == nil {
				continue
			}
			if prev := s.acc.StaticValue(a, id); prev != dict.None && prev != s.acc.StaticCode(a, string(v)) {
				verdict = fmt.Errorf("stream: node %s static attribute %s changed from %q to %q",
					node, spec.Name, s.acc.ValueString(a, prev), v)
			}
		}
	}
	onEdge := func(u, v []byte) {
		_, hasU := present[string(u)]
		_, hasV := present[string(v)]
		if verdict == nil && (!hasU || !hasV) {
			verdict = fmt.Errorf("stream: edge (%s,%s) references a node not in the %s snapshot", u, v, label)
		}
	}
	if err := walkBody(d, s.attrs, onNode, onEdge); err != nil {
		return "", "", 0, err
	}
	return label, before, at, verdict
}

// applyRecord feeds checked record rec into acc as point label: how a
// batch becomes graph columns, for every insert, refold and replay.
func applyRecord(acc *core.Accumulator, attrs []core.AttrSpec, label string, rec []byte) error {
	d, _, _ := openRecord(rec)
	acc.AddPoint(label)
	onNode := func(node []byte, vals [][]byte) {
		id, ok := acc.NodeID(string(node))
		if !ok {
			id = acc.EnsureNode(string(node))
		}
		acc.SetNodeTime(id)
		for ai, v := range vals {
			if attrs[ai].Kind == core.Static && v != nil {
				acc.SetStatic(core.AttrID(ai), id, string(v))
			} else if len(v) > 0 {
				acc.SetVarying(core.AttrID(ai), id, string(v))
			}
		}
	}
	onEdge := func(u, v []byte) {
		uid, _ := acc.NodeID(string(u))
		vid, _ := acc.NodeID(string(v))
		acc.SetEdgeTime(acc.EnsureEdge(uid, vid))
	}
	return walkBody(d, attrs, onNode, onEdge)
}
