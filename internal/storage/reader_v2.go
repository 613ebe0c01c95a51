package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/core"
)

// parsedV2 is a structurally validated view of one version-2 snapshot:
// decoded meta sections plus sub-slices of the input buffer for the blob
// regions. Blob slices alias the caller's buffer — for the mapped path
// that buffer is the file mapping itself and nothing is copied.
type parsedV2 struct {
	labels []string
	attrs  []core.AttrSpec
	dicts  [][]string // value by code, per attribute
	nodes  []string

	storeSpecs []storeSpec
	points     []seriesPoint
	coveredTxn int

	wordsPerTau int
	nEdges      int
	nodeTauB    []byte   // nNodes × wordsPerTau LE uint64 words
	edgeTauB    []byte   // nEdges × wordsPerTau LE uint64 words
	edgesB      []byte   // nEdges × (int32 u, int32 v) LE
	staticB     [][]byte // per static attr, in attr order: nNodes int32 codes
	varyingB    [][]byte // per varying attr, in attr order: nNodes×T int32 codes
}

// parseV2 walks a complete version-2 snapshot held in data (header
// included). Framed meta records are checksum-verified as always; blob
// regions are bounds- and alignment-checked against the directory, and
// additionally CRC-verified when verifyBlobs is set (the decode path —
// the mapped path skips the checksums to avoid paging the whole file in).
func parseV2(data []byte, verifyBlobs bool) (*parsedV2, error) {
	p := &parsedV2{}
	ld := &snapLoader{} // reused for its store-spec decoding
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
			ld.labels = p.labels
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
			ld.attrs = p.attrs
		case secNodes:
			p.nodes = d.strs()
		case secTauRuns:
			d.off = len(d.b) // reserved section: checksummed above, payload ignored
		case secStores:
			ns := d.count(1)
			for i := 0; i < ns && d.err == nil; i++ {
				p.storeSpecs = append(p.storeSpecs, ld.readStore(d))
			}
		case secSeries:
			ns := d.count(1)
			for i := 0; i < ns && d.err == nil; i++ {
				m := d.count(1)
				if d.err == nil && m > d.remaining() {
					d.fail("series record length %d exceeds remaining %d", m, d.remaining())
				}
				if d.err == nil {
					p.points = append(p.points, seriesPoint{payload: append([]byte(nil), d.b[d.off:d.off+m]...)})
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
	var staticParams, varyingParams []uint32
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
		case blobStatic:
			p.staticB = append(p.staticB, b)
			staticParams = append(staticParams, be.param)
			if len(b) != nNodes*4 {
				return nil, fmt.Errorf("%w: static blob for attr %d has %d bytes", ErrCorrupt, be.param, len(b))
			}
		case blobVarying:
			p.varyingB = append(p.varyingB, b)
			varyingParams = append(varyingParams, be.param)
			if len(b) != nNodes*T*4 {
				return nil, fmt.Errorf("%w: varying blob for attr %d has %d bytes", ErrCorrupt, be.param, len(b))
			}
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
	// Attribute column blobs must appear once per attribute of the matching
	// kind, in attribute order — the order the assembly paths consume.
	si, vi := 0, 0
	for ai, a := range p.attrs {
		switch a.Kind {
		case core.Static:
			if si >= len(staticParams) || staticParams[si] != uint32(ai) {
				return nil, fmt.Errorf("%w: missing static blob for attr %d", ErrCorrupt, ai)
			}
			si++
		case core.TimeVarying:
			if vi >= len(varyingParams) || varyingParams[vi] != uint32(ai) {
				return nil, fmt.Errorf("%w: missing varying blob for attr %d", ErrCorrupt, ai)
			}
			vi++
		}
	}
	if si != len(staticParams) || vi != len(varyingParams) {
		return nil, fmt.Errorf("%w: stray attribute column blob", ErrCorrupt)
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

// loadV2 is the portable decode path: the parsed columns are copied into
// the v1 loader's representation and assembled through the core builder,
// whose semantic validation (duplicate labels, edges outside endpoint
// lifetimes, in-domain codes) backstops any corruption the structural
// checks missed.
func loadV2(data []byte) (*Snapshot, error) {
	p, err := parseV2(data, true)
	if err != nil {
		return nil, err
	}
	ld := &snapLoader{
		labels:     p.labels,
		attrs:      p.attrs,
		dicts:      p.dicts,
		nodes:      p.nodes,
		storeSpecs: p.storeSpecs,
		points:     p.points,
		coveredTxn: p.coveredTxn,
		seen:       map[byte]bool{},
	}
	for _, id := range []byte{secTimeline, secSchema, secNodes, secNodeTau, secEdges, secEdgeTau, secStatic, secVarying} {
		ld.seen[id] = true
	}
	wpt := p.wordsPerTau
	nNodes := len(p.nodes)
	ld.nodeTaus = decodeTauWords(p.nodeTauB, nNodes, wpt)
	ld.edgeTaus = decodeTauWords(p.edgeTauB, p.nEdges, wpt)
	for i := 0; i < p.nEdges; i++ {
		u := binary.LittleEndian.Uint32(p.edgesB[i*8:])
		v := binary.LittleEndian.Uint32(p.edgesB[i*8+4:])
		if uint64(u) >= uint64(nNodes) || uint64(v) >= uint64(nNodes) {
			return nil, fmt.Errorf("%w: edge (%d,%d) references node beyond %d", ErrCorrupt, u, v, nNodes)
		}
		ld.edges = append(ld.edges, [2]uint64{uint64(u), uint64(v)})
	}
	si, vi := 0, 0
	for ai, a := range p.attrs {
		domain := len(p.dicts[ai])
		switch a.Kind {
		case core.Static:
			col, err := decodeCodeColumn(p.staticB[si], domain, ai)
			if err != nil {
				return nil, err
			}
			ld.static = append(ld.static, col)
			si++
		case core.TimeVarying:
			col, err := decodeCodeColumn(p.varyingB[vi], domain, ai)
			if err != nil {
				return nil, err
			}
			ld.varying = append(ld.varying, col)
			vi++
		}
	}
	return ld.finish()
}

func decodeTauWords(b []byte, n, w int) [][]uint64 {
	out := make([][]uint64, n)
	for i := range out {
		words := make([]uint64, w)
		base := i * w * 8
		for j := range words {
			words[j] = binary.LittleEndian.Uint64(b[base+j*8:])
		}
		out[i] = words
	}
	return out
}

// decodeCodeColumn converts an int32 code blob (-1 = missing) to the
// loader's code+1 representation, validating domain membership.
func decodeCodeColumn(b []byte, domain, attr int) ([]uint64, error) {
	col := make([]uint64, len(b)/4)
	for i := range col {
		c := int32(binary.LittleEndian.Uint32(b[i*4:]))
		if c < -1 || int(c) >= domain {
			return nil, fmt.Errorf("%w: attr %d code %d beyond dictionary of %d values", ErrCorrupt, attr, c, domain)
		}
		col[i] = uint64(c + 1)
	}
	return col, nil
}
