package storage

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"unsafe"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/timeline"
)

// Mapped is a snapshot served directly out of a file mapping: the graph's
// existence words, edge endpoints and attribute code columns alias the
// mapped bytes instead of being decoded and copied. Close unmaps the file;
// the graph (and anything derived from it) must not be used afterwards,
// so long-lived servers keep the Mapped open for the process lifetime.
type Mapped struct {
	*Snapshot

	// Source records which path produced the snapshot: "mmap" (zero-copy
	// file mapping), "heap" (zero-copy over a read-into-memory buffer, on
	// platforms without mmap) or "decode" (full v1 decode fallback).
	Source string

	data  []byte
	unmap func([]byte) error
}

// Close releases the mapping (or buffer). Safe to call more than once.
func (m *Mapped) Close() error {
	data, unmap := m.data, m.unmap
	m.data, m.unmap = nil, nil
	if data != nil && unmap != nil {
		return unmap(data)
	}
	return nil
}

// OpenMapped opens a snapshot file for zero-copy serving. Version-2 files
// are memory-mapped and their columns aliased in place, making boot time
// independent of graph size (O(sections + V+E pointers), no column decode);
// on platforms without mmap the file is read into one buffer and aliased
// the same way. Version-1 files fall back to the regular decode path.
//
// The mapped path validates structure — framed meta sections keep their
// checksums, blob regions are bounds- and shape-checked, existence words
// are checked against the timeline length — but does not checksum the blob
// bytes (that would page the whole file in, defeating the point); use Load
// when full verification matters more than boot latency. Little-endian
// hosts serve the mapping directly; the decode fallback keeps big-endian
// hosts correct.
func OpenMapped(path string) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var hdr [10]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: snapshot header", ErrTruncated)
	}
	if string(hdr[:8]) != snapMagic {
		return nil, fmt.Errorf("%w: want %q", ErrBadMagic, snapMagic)
	}
	v := binary.LittleEndian.Uint16(hdr[8:10])
	if v != formatVersion || !hostLittleEndian() {
		// v1 files (and big-endian hosts) cannot be served in place.
		snap, err := LoadFile(path)
		if err != nil {
			return nil, err
		}
		return &Mapped{Snapshot: snap, Source: "decode"}, nil
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, unmap, source, err := mapOrRead(f, fi.Size())
	if err != nil {
		return nil, err
	}
	m := &Mapped{Source: source, data: data, unmap: unmap}
	p, err := parseV2(data, false)
	if err == nil {
		m.Snapshot, err = snapshotFromParsed(p)
	}
	if err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}

// mapOrRead maps the file when the platform supports it and falls back to
// reading it into an anonymous buffer otherwise.
func mapOrRead(f *os.File, size int64) ([]byte, func([]byte) error, string, error) {
	if data, unmap, err := mmapFile(f, size); err == nil {
		return data, unmap, "mmap", nil
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, nil, "", err
	}
	data := make([]byte, size)
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, nil, "", err
	}
	return data, nil, "heap", nil
}

// snapshotFromParsed assembles a graph over the parsed blob regions
// without copying the columns. Cheap semantic checks that the builder
// would otherwise provide are done here (distinct labels, tau words
// trimmed to the timeline); FromColumns adds the structural ones.
func snapshotFromParsed(p *parsedV2) (*Snapshot, error) {
	tl, err := timeline.New(p.labels...)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	T := tl.Len()
	wpt := p.wordsPerTau
	nNodes, nEdges := len(p.nodes), p.nEdges

	dicts := make([]*dict.Dict, len(p.attrs))
	for i, values := range p.dicts {
		seen := make(map[string]bool, len(values))
		for _, v := range values {
			if seen[v] {
				return nil, fmt.Errorf("%w: duplicate dictionary value %q", ErrCorrupt, v)
			}
			seen[v] = true
		}
		dicts[i] = dict.FromValues(values)
	}
	nodeSeen := make(map[string]bool, nNodes)
	for _, label := range p.nodes {
		if nodeSeen[label] {
			return nil, fmt.Errorf("%w: duplicate node label %q", ErrCorrupt, label)
		}
		nodeSeen[label] = true
	}

	nodeWords := aliasSlice[uint64](p.nodeTauB)
	edgeWords := aliasSlice[uint64](p.edgeTauB)
	nodeTau, err := tauSets(nodeWords, nNodes, wpt, T)
	if err != nil {
		return nil, err
	}
	edgeTau, err := tauSets(edgeWords, nEdges, wpt, T)
	if err != nil {
		return nil, err
	}

	cols := core.Columns{
		Timeline:   tl,
		Attrs:      p.attrs,
		Dicts:      dicts,
		NodeLabels: p.nodes,
		NodeTau:    nodeTau,
		Edges:      aliasSlice[core.Endpoints](p.edgesB),
		EdgeTau:    edgeTau,
		Static:     make([][]dict.Code, len(p.attrs)),
		Varying:    make([][]dict.Code, len(p.attrs)),
	}
	si, vi := 0, 0
	for ai, a := range p.attrs {
		var col []dict.Code
		switch a.Kind {
		case core.Static:
			col = aliasSlice[dict.Code](p.staticB[si])
			cols.Static[ai] = col
			si++
		case core.TimeVarying:
			col = aliasSlice[dict.Code](p.varyingB[vi])
			cols.Varying[ai] = col
			vi++
		}
		// One linear scan keeps out-of-domain codes from panicking inside
		// dictionary lookups later; it reads, never decodes.
		domain := dict.Code(len(p.dicts[ai]))
		for _, c := range col {
			if c < dict.None || c >= domain {
				return nil, fmt.Errorf("%w: attr %d code %d beyond dictionary of %d values", ErrCorrupt, ai, c, domain)
			}
		}
	}
	g, err := core.FromColumns(cols)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}

	snap := &Snapshot{Graph: g, points: p.points, coveredTxn: p.coveredTxn}
	for _, sp := range p.storeSpecs {
		st, err := rebuildStore(g, sp)
		if err != nil {
			return nil, err
		}
		snap.Stores = append(snap.Stores, st)
	}
	return snap, nil
}

// tauSets wraps per-entity windows of a flat word column as bitsets,
// rejecting set bits at or beyond the timeline length (the writer trims
// them; anything else indicates corruption and would skew counts).
func tauSets(words []uint64, n, wpt, T int) ([]*bitset.Set, error) {
	var tailMask uint64
	if T%64 != 0 {
		tailMask = ^uint64(0) << (T % 64)
	}
	out := make([]*bitset.Set, n)
	for i := range out {
		w := words[i*wpt : (i+1)*wpt : (i+1)*wpt]
		if tailMask != 0 && wpt > 0 && w[wpt-1]&tailMask != 0 {
			return nil, fmt.Errorf("%w: existence bits beyond timeline of %d points", ErrCorrupt, T)
		}
		out[i] = bitset.FromWords(T, w)
	}
	return out, nil
}

// aliasSlice reinterprets a little-endian blob as a typed slice without
// copying. parseV2 guarantees 8-aligned offsets and mapOrRead's buffers are
// at least word-aligned, so the element alignment requirement holds for
// every T used here (uint64, int32 pairs, int32 codes).
func aliasSlice[T any](b []byte) []T {
	var zero T
	sz := int(unsafe.Sizeof(zero))
	if len(b) < sz {
		return nil
	}
	if uintptr(unsafe.Pointer(&b[0]))%uintptr(unsafe.Alignof(zero)) != 0 {
		// Misaligned base (cannot happen for mmap; heap buffers are
		// 8-aligned in practice) — fall back to a copy.
		cp := make([]byte, len(b))
		copy(cp, b)
		b = cp
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/sz)
}

// hostLittleEndian reports whether the in-place column layout matches the
// host byte order.
func hostLittleEndian() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

// MappedGraph opens path with OpenMapped and returns only the graph, the
// zero-copy counterpart of LoadGraph. The returned closer owns the
// mapping.
func MappedGraph(path string) (*core.Graph, *Mapped, error) {
	m, err := OpenMapped(path)
	if err != nil {
		return nil, nil, err
	}
	return m.Graph, m, nil
}
