package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"unsafe"

	"repro/internal/agg"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/materialize"
	"repro/internal/timeline"
)

// Snapshot is the decoded content of one snapshot file.
type Snapshot struct {
	// Graph is the reconstructed temporal attributed graph.
	Graph *core.Graph
	// Stores are the materialized per-point aggregate vectors saved with
	// the graph, rebuilt against Graph's schema; empty when none were
	// saved.
	Stores []*materialize.Store

	// records are the raw ingest records of a stream-mode checkpoint, in
	// transaction order: Engine recovery's journal.
	records [][]byte
	// coveredTxn is the transaction-time watermark the snapshot covers; 0
	// for files written before the bi-temporal format extension.
	coveredTxn int
}

// CoveredTxn returns the highest transaction sequence number the snapshot
// covers. Files written before the watermark existed carry none; for them
// the embedded record count is the watermark, because every record is one
// transaction.
func (s *Snapshot) CoveredTxn() int {
	if s.coveredTxn > 0 {
		return s.coveredTxn
	}
	return len(s.records)
}

// Load reads a snapshot from r into one private buffer and decodes it with
// every check on: framed sections and blob regions are CRC-verified, and the
// assembled graph passes core's full model validation. It never panics on
// malformed input: every failure wraps one of ErrBadMagic, ErrVersion,
// ErrTruncated, ErrChecksum or ErrCorrupt. The graph's columns alias the
// buffer, which lives as long as the graph does.
func Load(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return decode(data)
}

// LoadFile reads a snapshot from path.
func LoadFile(path string) (*Snapshot, error) { return loadFile(osFS{}, path) }

func loadFile(fs fsys, path string) (*Snapshot, error) {
	data, err := fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decode(data)
}

// LoadGraph is LoadFile returning only the graph — the common case for
// tools and benchmarks that exported a dataset with gtgen -format=binary.
func LoadGraph(path string) (*core.Graph, error) {
	snap, err := LoadFile(path)
	if err != nil {
		return nil, err
	}
	return snap.Graph, nil
}

// decode is the one snapshot decoder: parse the file held in data with
// every blob checksum verified, assemble the graph over its blob regions,
// check it against the full model (Graph.Validate), rebuild the stores. data
// must be private to the caller: the graph's columns alias it (see
// hostOrder).
func decode(data []byte) (*Snapshot, error) {
	p, err := parseV2(data, true)
	if err != nil {
		return nil, err
	}
	snap, err := snapshotFromParsed(p)
	if err != nil {
		return nil, err
	}
	if err := snap.Graph.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return snap, nil
}

// parsedV2 is a structurally validated view of one snapshot: decoded meta
// sections plus sub-slices of the input buffer for the blob regions.
type parsedV2 struct {
	labels []string
	attrs  []core.AttrSpec
	dicts  [][]string // value by code, per attribute
	nodes  []string

	storeSpecs []storeSpec
	records    [][]byte
	coveredTxn int

	wordsPerTau int
	nEdges      int
	nodeTauB    []byte // nNodes × wordsPerTau LE uint64 words
	edgeTauB    []byte // nEdges × wordsPerTau LE uint64 words
	edgesB      []byte // nEdges × (int32 u, int32 v) LE
	// attrB[a] is attribute a's column blob, of kind attrKind[a]: nNodes
	// int32 codes (blobStatic), or T×nNodes of them (blobVaryingRows, or
	// the node-major blobVarying older writers emitted).
	attrB    [][]byte
	attrKind []uint32
}

type storeSpec struct {
	attrs  []core.AttrID
	points []storePoint
}

type storePoint struct {
	nodes []storeEntry
	edges []storeEdge
}

type storeEntry struct {
	values []string
	weight int64
}

type storeEdge struct {
	from, to []string
	weight   int64
}

// parseV2 walks a complete snapshot held in data. The header must carry the
// magic and formatVersion; framed meta records are checksum-verified as
// always; blob regions are bounds- and alignment-checked against the
// directory, and additionally CRC-verified when verifyBlobs is set (recovery
// clears it only to read the watermark of a snapshot that failed them).
func parseV2(data []byte, verifyBlobs bool) (*parsedV2, error) {
	if len(data) < 10 {
		return nil, fmt.Errorf("%w: snapshot header", ErrTruncated)
	}
	if string(data[:8]) != snapMagic {
		return nil, fmt.Errorf("%w: want %q", ErrBadMagic, snapMagic)
	}
	if v := binary.LittleEndian.Uint16(data[8:10]); v != formatVersion {
		return nil, fmt.Errorf("%w: file version %d, reader accepts version %d", ErrVersion, v, formatVersion)
	}
	p := &parsedV2{}
	off := 10
	seen := make(map[byte]bool)
	var dir []blobEntry
	var fileSize uint64
	for {
		payload, n, err := readRecordBytes(data, off)
		if err != nil {
			return nil, err
		}
		off = n
		if len(payload) == 0 {
			return nil, fmt.Errorf("%w: empty section record", ErrCorrupt)
		}
		id := payload[0]
		if id == secEnd {
			break
		}
		if seen[id] {
			return nil, fmt.Errorf("%w: duplicate section %d", ErrCorrupt, id)
		}
		seen[id] = true
		d := &dec{b: payload[1:]}
		switch id {
		case secTimeline:
			p.labels = d.strs()
		case secSchema:
			na := d.count(2)
			for i := 0; i < na && d.err == nil; i++ {
				name := d.str()
				kind := d.byteVal()
				if kind > byte(core.TimeVarying) {
					d.fail("bad attribute kind %d", kind)
				}
				p.attrs = append(p.attrs, core.AttrSpec{Name: name, Kind: core.AttrKind(kind)})
				p.dicts = append(p.dicts, d.strs())
			}
		case secNodes:
			p.nodes = d.strs()
		case secTauRuns:
			d.off = len(d.b) // reserved section: checksummed above, payload ignored
		case secStores:
			// The writer emits sections in id order, so the store section's
			// attribute ids and point count are checked against a timeline
			// and schema already read (absent ones reject every store).
			ns := d.count(1)
			for i := 0; i < ns && d.err == nil; i++ {
				p.storeSpecs = append(p.storeSpecs, d.readStore(len(p.attrs), len(p.labels)))
			}
		case secSeries:
			ns := d.count(1)
			for i := 0; i < ns && d.err == nil; i++ {
				m := d.count(1)
				if d.err == nil && m > d.remaining() {
					d.fail("series record length %d exceeds remaining %d", m, d.remaining())
				}
				if d.err == nil {
					// Records alias data, as the graph's columns do.
					p.records = append(p.records, d.b[d.off:d.off+m:d.off+m])
					d.off += m
				}
			}
		case secTxnMeta:
			p.coveredTxn = int(d.uvarint())
		case secBlobDir:
			cnt := int(d.u32())
			fileSize = d.u64()
			if d.err == nil && cnt*blobDirEntryLen != d.remaining() {
				d.fail("blob directory count %d does not match payload", cnt)
			}
			for i := 0; i < cnt && d.err == nil; i++ {
				dir = append(dir, blobEntry{
					kind: d.u32(), param: d.u32(),
					off: d.u64(), length: d.u64(), crc: d.u32(),
				})
			}
		default:
			return nil, fmt.Errorf("%w: unknown section %d", ErrCorrupt, id)
		}
		if d.err != nil {
			return nil, fmt.Errorf("section %d: %w", id, d.err)
		}
		if d.remaining() != 0 {
			return nil, fmt.Errorf("%w: section %d has %d trailing bytes", ErrCorrupt, id, d.remaining())
		}
	}
	for _, id := range []byte{secTimeline, secSchema, secNodes, secBlobDir} {
		if !seen[id] {
			return nil, fmt.Errorf("%w: missing section %d", ErrCorrupt, id)
		}
	}
	if fileSize != uint64(len(data)) {
		return nil, fmt.Errorf("%w: directory declares %d bytes, file has %d", ErrCorrupt, fileSize, len(data))
	}

	// Validate and slice the blob regions.
	blob := func(be blobEntry) ([]byte, error) {
		if be.off%8 != 0 || be.off < uint64(off) || be.off+be.length > uint64(len(data)) ||
			be.off+be.length < be.off {
			return nil, fmt.Errorf("%w: blob kind %d region [%d,+%d) out of bounds", ErrCorrupt, be.kind, be.off, be.length)
		}
		b := data[be.off : be.off+be.length]
		if verifyBlobs && crc32.Checksum(b, castagnoli) != be.crc {
			return nil, fmt.Errorf("%w: blob kind %d param %d", ErrChecksum, be.kind, be.param)
		}
		return b, nil
	}
	T := len(p.labels)
	nNodes := len(p.nodes)
	wpt := (T + 63) / 64
	p.wordsPerTau = wpt
	p.nEdges = -1
	p.attrB = make([][]byte, len(p.attrs))
	p.attrKind = make([]uint32, len(p.attrs))
	for _, be := range dir {
		b, err := blob(be)
		if err != nil {
			return nil, err
		}
		switch be.kind {
		case blobNodeTau:
			if p.nodeTauB != nil || int(be.param) != wpt || len(b) != nNodes*wpt*8 {
				return nil, fmt.Errorf("%w: node tau blob shape", ErrCorrupt)
			}
			p.nodeTauB = b
		case blobEdgeTau:
			if p.edgeTauB != nil || int(be.param) != wpt {
				return nil, fmt.Errorf("%w: edge tau blob shape", ErrCorrupt)
			}
			p.edgeTauB = b
		case blobEdges:
			if p.edgesB != nil || len(b)%8 != 0 {
				return nil, fmt.Errorf("%w: edges blob shape", ErrCorrupt)
			}
			p.edgesB = b
			p.nEdges = len(b) / 8
		case blobStatic, blobVaryingRows, blobVarying:
			ai, want := int(be.param), nNodes*4
			if be.kind != blobStatic {
				want *= T
			}
			switch {
			case ai >= len(p.attrs) || (be.kind == blobStatic) != (p.attrs[ai].Kind == core.Static):
				return nil, fmt.Errorf("%w: blob kind %d names attr %d, which is not of that kind", ErrCorrupt, be.kind, ai)
			case p.attrB[ai] != nil:
				return nil, fmt.Errorf("%w: attr %d has more than one column blob", ErrCorrupt, ai)
			case len(b) != want:
				return nil, fmt.Errorf("%w: column blob for attr %d has %d bytes, want %d", ErrCorrupt, ai, len(b), want)
			}
			p.attrB[ai], p.attrKind[ai] = b, be.kind
		default:
			return nil, fmt.Errorf("%w: unknown blob kind %d", ErrCorrupt, be.kind)
		}
	}
	if p.nodeTauB == nil || p.edgeTauB == nil || p.edgesB == nil {
		return nil, fmt.Errorf("%w: missing mandatory blob", ErrCorrupt)
	}
	if wpt > 0 && len(p.edgeTauB) != p.nEdges*wpt*8 {
		return nil, fmt.Errorf("%w: edge tau blob does not cover %d edges", ErrCorrupt, p.nEdges)
	}
	for ai, b := range p.attrB {
		if b == nil {
			return nil, fmt.Errorf("%w: missing column blob for attr %d", ErrCorrupt, ai)
		}
	}
	return p, nil
}

// readRecordBytes reads one framed record in place, returning the payload
// (aliasing data) and the offset past the record.
func readRecordBytes(data []byte, off int) ([]byte, int, error) {
	if off+8 > len(data) {
		return nil, 0, fmt.Errorf("%w: partial record header", ErrTruncated)
	}
	n := binary.LittleEndian.Uint32(data[off : off+4])
	if n > maxRecordBytes {
		return nil, 0, fmt.Errorf("%w: record length %d exceeds limit", ErrCorrupt, n)
	}
	if off+8+int(n) > len(data) {
		return nil, 0, fmt.Errorf("%w: record payload short (want %d bytes)", ErrTruncated, n)
	}
	payload := data[off+8 : off+8+int(n)]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[off+4:off+8]) {
		return nil, 0, ErrChecksum
	}
	return payload, off + 8 + int(n), nil
}

// readStore decodes one materialized store: its attribute ids (each below
// nAttrs), then T points of aggregate node and edge entries.
func (d *dec) readStore(nAttrs, T int) storeSpec {
	var sp storeSpec
	na := d.count(1)
	for i := 0; i < na && d.err == nil; i++ {
		a := d.uvarint()
		if a >= uint64(nAttrs) {
			d.fail("store attribute id %d beyond schema of %d", a, nAttrs)
			return sp
		}
		sp.attrs = append(sp.attrs, core.AttrID(a))
	}
	for t := 0; t < T && d.err == nil; t++ {
		var pt storePoint
		nn := d.count(1)
		for i := 0; i < nn && d.err == nil; i++ {
			pt.nodes = append(pt.nodes, storeEntry{values: d.strsN(len(sp.attrs)), weight: d.varint()})
		}
		ne := d.count(1)
		for i := 0; i < ne && d.err == nil; i++ {
			pt.edges = append(pt.edges, storeEdge{
				from:   d.strsN(len(sp.attrs)),
				to:     d.strsN(len(sp.attrs)),
				weight: d.varint(),
			})
		}
		sp.points = append(sp.points, pt)
	}
	return sp
}

// snapshotFromParsed assembles a graph over the parsed blob regions without
// copying the columns: each becomes a host-order typed slice over the
// snapshot's own bytes (a time-varying blob, one slice per time point) and
// core.FromColumns checks every one of them for what reading the graph
// relies on. The one copy is a node-major blobVarying from an older writer,
// transposed here into the rows every graph stores.
func snapshotFromParsed(p *parsedV2) (*Snapshot, error) {
	tl, err := timeline.New(p.labels...)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	T := tl.Len()
	wpt := p.wordsPerTau

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
	cols := core.Columns{
		Timeline:   tl,
		Attrs:      p.attrs,
		Dicts:      dicts,
		NodeLabels: p.nodes,
		NodeTau:    tauSets(hostOrder[uint64](p.nodeTauB, 8), len(p.nodes), wpt, T),
		Edges:      hostOrder[core.Endpoints](p.edgesB, 4),
		EdgeTau:    tauSets(hostOrder[uint64](p.edgeTauB, 8), p.nEdges, wpt, T),
		Static:     make([][]dict.Code, len(p.attrs)),
		Varying:    make([][][]dict.Code, len(p.attrs)),
	}
	V := len(p.nodes)
	for ai, b := range p.attrB {
		codes := hostOrder[dict.Code](b, 4)
		if p.attrKind[ai] == blobStatic {
			cols.Static[ai] = codes
			continue
		}
		if p.attrKind[ai] == blobVarying {
			codes = timeMajor(codes, V, T)
		}
		cols.Varying[ai] = make([][]dict.Code, T)
		for t := range T {
			cols.Varying[ai][t] = codes[t*V : (t+1)*V : (t+1)*V]
		}
	}
	g, err := core.FromColumns(cols)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}

	snap := &Snapshot{Graph: g, records: p.records, coveredTxn: p.coveredTxn}
	for _, sp := range p.storeSpecs {
		st, err := rebuildStore(g, sp)
		if err != nil {
			return nil, err
		}
		snap.Stores = append(snap.Stores, st)
	}
	return snap, nil
}

// timeMajor transposes a legacy node-major column (codes[n*T+t]) into a
// copy laid out as blobVaryingRows is (codes[t*V+n]).
func timeMajor(codes []dict.Code, V, T int) []dict.Code {
	out := make([]dict.Code, T*V)
	for n := 0; n < V; n++ {
		for t, c := range codes[n*T : (n+1)*T] {
			out[t*V+n] = c
		}
	}
	return out
}

// tauSets wraps per-entity windows of a flat word column as bitsets.
func tauSets(words []uint64, n, wpt, T int) []*bitset.Set {
	out := make([]*bitset.Set, n)
	for i := range out {
		out[i] = bitset.FromWords(T, words[i*wpt:(i+1)*wpt:(i+1)*wpt])
	}
	return out
}

// hostOrder turns a blob of little-endian fields, each width bytes wide,
// into a host-order typed slice over the same memory. On a little-endian
// host that is an alias; on a big-endian one the fields are byte-swapped in
// place first, which is why decode requires a private buffer. parseV2
// guarantees 8-aligned blob offsets and file buffers are at least
// word-aligned, so the element alignment holds for every T used here
// (uint64, int32 pairs, int32 codes); a misaligned base falls back to a
// copy.
func hostOrder[T any](b []byte, width int) []T {
	var zero T
	sz := int(unsafe.Sizeof(zero))
	if len(b) < sz {
		return nil
	}
	if uintptr(unsafe.Pointer(&b[0]))%uintptr(unsafe.Alignof(zero)) != 0 {
		b = append([]byte(nil), b...)
	}
	if !hostLittleEndian() {
		swapFields(b, width)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/sz)
}

// swapFields reverses the bytes of every width-byte field of b in place.
func swapFields(b []byte, width int) {
	for i := 0; i+width <= len(b); i += width {
		for lo, hi := i, i+width-1; lo < hi; lo, hi = lo+1, hi-1 {
			b[lo], b[hi] = b[hi], b[lo]
		}
	}
}

// hostLittleEndian reports whether the blobs' byte order is the host's.
func hostLittleEndian() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

// rebuildStore re-encodes a decoded store spec against the reconstructed
// graph's dictionaries.
func rebuildStore(g *core.Graph, sp storeSpec) (*materialize.Store, error) {
	s, err := agg.NewSchema(g, sp.attrs...)
	if err != nil {
		return nil, fmt.Errorf("%w: store schema: %v", ErrCorrupt, err)
	}
	perPoint := make([]*agg.Graph, len(sp.points))
	for t, pt := range sp.points {
		ag := &agg.Graph{
			Schema: s,
			Kind:   agg.All,
			Nodes:  make(map[agg.Tuple]int64, len(pt.nodes)),
			Edges:  make(map[agg.EdgeKey]int64, len(pt.edges)),
		}
		for _, n := range pt.nodes {
			tu, ok := s.Encode(n.values...)
			if !ok {
				return nil, fmt.Errorf("%w: store tuple %v not in attribute domain", ErrCorrupt, n.values)
			}
			ag.Nodes[tu] = n.weight
		}
		for _, e := range pt.edges {
			from, ok1 := s.Encode(e.from...)
			to, ok2 := s.Encode(e.to...)
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("%w: store edge tuple %v→%v not in attribute domain", ErrCorrupt, e.from, e.to)
			}
			ag.Edges[agg.EdgeKey{From: from, To: to}] = e.weight
		}
		perPoint[t] = ag
	}
	st, err := materialize.NewStoreFromPoints(s, perPoint)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return st, nil
}

// errorsIsAny reports whether err wraps any of the given targets; used by
// recovery to decide whether a snapshot file is unusable (fall back to an
// earlier generation) versus an IO failure that should abort.
func errorsIsAny(err error, targets ...error) bool {
	for _, t := range targets {
		if errors.Is(err, t) {
			return true
		}
	}
	return false
}
