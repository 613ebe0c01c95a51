package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"

	"repro/internal/stream"
)

// walHeaderSize is magic (8) + version (2) + generation (8).
const walHeaderSize = 18

// WAL record types (first payload byte). recIngest appends a time point at
// the valid-time tail; recIngestAt inserts one before an existing label
// (retroactive ingest). Both advance the transaction sequence by exactly
// one, so txn == records ever appended == time points.
const (
	recIngest   byte = 1
	recIngestAt byte = 2
)

// walWriter appends framed records to one WAL segment.
type walWriter struct {
	f   file
	buf []byte // reused framing buffer: one contiguous write per record
}

// createWAL creates a fresh segment with a synced header, so a segment
// observed by recovery always has a parsable preamble.
func createWAL(fs fsys, path string, gen uint64) (*walWriter, error) {
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	var hdr [walHeaderSize]byte
	copy(hdr[:8], walMagic)
	binary.LittleEndian.PutUint16(hdr[8:10], formatVersion)
	binary.LittleEndian.PutUint64(hdr[10:18], gen)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return &walWriter{f: f}, nil
}

// openWALForAppend reopens an existing segment truncated to goodLen, the
// end of its last complete record, where subsequent appends land.
func openWALForAppend(fs fsys, path string, goodLen int64) (*walWriter, error) {
	f, err := fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(goodLen); err != nil {
		f.Close()
		return nil, err
	}
	return &walWriter{f: f}, nil
}

// append frames and writes one record; durability is the caller's fsync
// policy.
func (w *walWriter) append(payload []byte) (int, error) {
	w.buf = appendRecord(w.buf[:0], payload)
	n, err := w.f.Write(w.buf)
	return n, err
}

func (w *walWriter) sync() error  { return w.f.Sync() }
func (w *walWriter) close() error { return w.f.Close() }

// replayWAL streams the records of one segment through fn, validating the
// header and every checksum. A torn tail — a record cut short or failing
// its checksum at the end of the file — stops replay and reports the
// offset of the last complete record and the segment's size (goodLen <
// size: torn); the caller truncates there before appending. Header-level
// failures surface as typed errors.
func replayWAL(fs fsys, path string, fn func(payload []byte) error) (records int, goodLen, size int64, err error) {
	data, err := fs.ReadFile(path)
	if err != nil {
		return 0, 0, 0, err
	}
	size = int64(len(data))
	if len(data) < walHeaderSize {
		return 0, 0, size, fmt.Errorf("%w: wal header of %s", ErrTruncated, path)
	}
	if string(data[:8]) != walMagic {
		return 0, 0, size, fmt.Errorf("%w: %s is not a wal segment", ErrBadMagic, path)
	}
	if v := binary.LittleEndian.Uint16(data[8:10]); v != formatVersion {
		return 0, 0, size, fmt.Errorf("%w: wal version %d, reader version %d", ErrVersion, v, formatVersion)
	}
	r := bytes.NewReader(data[walHeaderSize:])
	for goodLen = walHeaderSize; ; {
		// Any framing or checksum failure is treated as a torn tail: the
		// write that produced it never completed (records are appended with
		// a single contiguous write and the segment is synced before a
		// successor segment is created).
		payload, rerr := ReadFramedRecord(r)
		if rerr != nil {
			return records, goodLen, size, nil
		}
		if err := fn(payload); err != nil {
			return records, goodLen, size, err
		}
		records++
		goodLen += 8 + int64(len(payload))
	}
}

// EncodeIngestRecord serializes one ingest batch as a WAL record payload —
// also the replication wire format, and the bytes checkpoint snapshots embed
// (secSeries), so recovery replays identical records whichever file they come
// from. A tail append (before == "") is a recIngest record: tag, label, batch
// body; a retroactive insert is a recIngestAt record, which carries the label
// it is inserted before between the two.
func EncodeIngestRecord(label, before string, snap stream.Snapshot) []byte {
	e := &enc{b: make([]byte, 0, 64+32*len(snap.Nodes)+8*len(snap.Edges))}
	if before == "" {
		e.byte(recIngest)
	} else {
		e.byte(recIngestAt)
	}
	e.str(label)
	if before != "" {
		e.str(before)
	}
	encodeSnapshotBody(e, snap)
	return e.b
}

func encodeSnapshotBody(e *enc, snap stream.Snapshot) {
	e.uvarint(uint64(len(snap.Nodes)))
	for _, n := range snap.Nodes {
		e.str(n.Label)
		writeAttrMap(e, n.Static)
		writeAttrMap(e, n.Varying)
	}
	e.uvarint(uint64(len(snap.Edges)))
	for _, ed := range snap.Edges {
		e.str(ed.U)
		e.str(ed.V)
	}
}

// DecodeIngestRecord parses an ingest record payload of either type. before
// is "" for a tail append and the insertion label for a retroactive record.
func DecodeIngestRecord(payload []byte) (label, before string, snap stream.Snapshot, err error) {
	d := &dec{b: payload}
	t := d.byteVal()
	if d.err == nil && t != recIngest && t != recIngestAt {
		return "", "", snap, fmt.Errorf("%w: unknown wal record type %d", ErrCorrupt, t)
	}
	label = d.str()
	if t == recIngestAt {
		before = d.str()
	}
	nn := d.count(1)
	for i := 0; i < nn && d.err == nil; i++ {
		snap.Nodes = append(snap.Nodes, stream.NodeRecord{
			Label:   d.str(),
			Static:  readAttrMap(d),
			Varying: readAttrMap(d),
		})
	}
	ne := d.count(1)
	for i := 0; i < ne && d.err == nil; i++ {
		snap.Edges = append(snap.Edges, stream.EdgeRecord{U: d.str(), V: d.str()})
	}
	if d.err != nil {
		return "", "", stream.Snapshot{}, fmt.Errorf("ingest record: %w", d.err)
	}
	if d.remaining() != 0 {
		return "", "", stream.Snapshot{}, fmt.Errorf("%w: ingest record has %d trailing bytes", ErrCorrupt, d.remaining())
	}
	return label, before, snap, nil
}

// writeAttrMap serializes an attribute map with its pairs in ascending key
// order, so a record's bytes are a function of its batch wherever they
// appear: in the WAL, in checkpoints and on /v1/wal/stream. The keys are
// insertion-sorted in a stack array (a map has a few keys, one per
// attribute of a kind); only a map of more than eight spills to the heap.
func writeAttrMap(e *enc, m map[string]string) {
	e.uvarint(uint64(len(m)))
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
		e.str(k)
		e.str(m[k])
	}
}

func readAttrMap(d *dec) map[string]string {
	n := d.count(2)
	if n == 0 {
		return nil
	}
	m := make(map[string]string, n)
	for i := 0; i < n && d.err == nil; i++ {
		k := d.str()
		m[k] = d.str()
	}
	return m
}
