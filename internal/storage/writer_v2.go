package storage

import (
	"encoding/binary"
	"hash/crc32"
	"io"

	"repro/internal/bitset"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dict"
)

// Snapshot layout. A header and framed meta sections, then the fixed-width
// numeric columns in a blob area at the end of the file:
//
//	header (magic + formatVersion)
//	framed: secTimeline, secSchema, secNodes         (varint meta)
//	framed: secSeries, secTxnMeta                    (optional)
//	framed: secBlobDir                               (fixed-width directory)
//	framed: secEnd
//	zero padding to 8-byte alignment
//	blob area: 8-aligned little-endian regions, one per directory entry
//
// Every blob holds little-endian fields: uint64 existence words at a fixed
// stride per entity, int32 edge endpoint pairs, or int32 attribute codes
// (-1 = missing; a time-varying attribute time-major, one row of codes per
// time point). The reader hands them to core.FromColumns as typed slices
// over the file's own bytes (see hostOrder). Each directory entry carries a
// CRC32C of its blob, verified on every load.
const (
	secBlobDir byte = 11 // blob directory: count, file size, fixed-width entries
	// Reserved sections, never written now: the reader accepts them and
	// ignores the payload. secStores held materialized per-point aggregate
	// vectors (gtgen -materialize) that nothing read back; secTauRuns a
	// second, run-length copy of the run-dominated tau vectors (the tau
	// blobs are authoritative).
	secStores  byte = 9
	secTauRuns byte = 12
)

// Blob kinds. Attribute column blobs repeat per attribute with the
// attribute id in the entry's param field; the tau kinds put the word
// stride there.
const (
	blobNodeTau uint32 = 1 // NumNodes × param uint64 words
	blobEdgeTau uint32 = 2 // NumEdges × param uint64 words
	blobEdges   uint32 = 3 // NumEdges × (int32 u, int32 v)
	blobStatic  uint32 = 4 // NumNodes int32 codes, param = attr id
	// blobVarying is read-only: older writers stored a time-varying
	// attribute node-major (NumNodes×T codes, node n's at [n*T, n*T+T)).
	// The reader transposes it into rows; nothing writes it any more.
	blobVarying     uint32 = 5
	blobVaryingRows uint32 = 6 // T rows × NumNodes int32 codes, param = attr id
)

// blobEntry is one fixed-width directory entry: 28 bytes on disk.
type blobEntry struct {
	kind   uint32
	param  uint32
	off    uint64
	length uint64
	crc    uint32
}

const blobDirEntryLen = 28

func align8(n int) int { return (n + 7) &^ 7 }

func writeSnapshotV2(w io.Writer, g *core.Graph, records [][]byte, coveredTxn int) error {
	tl := g.Timeline()
	T := tl.Len()
	nNodes, nEdges := g.NumNodes(), g.NumEdges()
	attrs := g.Attrs()
	wordsPerTau := (T + 63) / 64

	// The file is gathered piece by piece and written at the end, so blob
	// offsets are known first and no piece is copied into another: a
	// frame's length and CRC32C are summed over its payload's pieces.
	var out [][]byte
	size := 0
	put := func(pieces ...[]byte) {
		for _, p := range pieces {
			out, size = append(out, p), size+len(p)
		}
	}
	frame := func(payload ...[]byte) {
		n, crc := 0, uint32(0)
		for _, p := range payload {
			n, crc = n+len(p), crc32.Update(crc, castagnoli, p)
		}
		put(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, uint32(n)), crc))
		put(payload...)
	}
	put(binary.LittleEndian.AppendUint16([]byte(snapMagic), formatVersion))
	sec := func(id byte, fill func(*codec.Enc)) {
		e := &codec.Enc{B: []byte{id}}
		fill(e)
		frame(e.B)
	}
	sec(secTimeline, func(e *codec.Enc) { e.Strs(tl.Labels()) })
	sec(secSchema, func(e *codec.Enc) {
		e.Uvarint(uint64(len(attrs)))
		for i, a := range attrs {
			e.Str(a.Name)
			e.Byte(byte(a.Kind))
			e.Strs(g.Dict(core.AttrID(i)).Values())
		}
	})
	sec(secNodes, func(e *codec.Enc) {
		e.Uvarint(uint64(nNodes))
		for n := 0; n < nNodes; n++ {
			e.Str(g.NodeLabel(core.NodeID(n)))
		}
	})
	if len(records) > 0 {
		// The records go out from the journal's own bytes, each behind its
		// length prefix; the prefixes share one buffer, sized up front so
		// that appending never moves the ones already sliced.
		pre := make([]byte, 0, 1+binary.MaxVarintLen64*(1+len(records)))
		pre = binary.AppendUvarint(append(pre, secSeries), uint64(len(records)))
		pieces := [][]byte{pre}
		for _, r := range records {
			at := len(pre)
			pre = binary.AppendUvarint(pre, uint64(len(r)))
			pieces = append(pieces, pre[at:], r)
		}
		frame(pieces...)
	}
	if coveredTxn > 0 {
		sec(secTxnMeta, func(e *codec.Enc) { e.Uvarint(uint64(coveredTxn)) })
	}

	// Blobs, in a fixed order the reader re-derives from the meta sections.
	var entries []blobEntry
	var blobs [][]byte
	addBlob := func(kind, param uint32, b []byte) {
		entries = append(entries, blobEntry{
			kind: kind, param: param, length: uint64(len(b)),
			crc: crc32.Checksum(b, castagnoli),
		})
		blobs = append(blobs, b)
	}
	addBlob(blobNodeTau, uint32(wordsPerTau),
		tauBlob(wordsPerTau, nNodes, func(i int) *bitset.Set { return g.NodeTau(core.NodeID(i)) }))
	addBlob(blobEdgeTau, uint32(wordsPerTau),
		tauBlob(wordsPerTau, nEdges, func(i int) *bitset.Set { return g.EdgeTau(core.EdgeID(i)) }))
	eb := make([]byte, nEdges*8)
	for i := 0; i < nEdges; i++ {
		ep := g.Edge(core.EdgeID(i))
		binary.LittleEndian.PutUint32(eb[i*8:], uint32(ep.U))
		binary.LittleEndian.PutUint32(eb[i*8+4:], uint32(ep.V))
	}
	addBlob(blobEdges, 0, eb)
	for ai, a := range attrs {
		switch a.Kind {
		case core.Static:
			col := make([]byte, nNodes*4)
			for n := 0; n < nNodes; n++ {
				binary.LittleEndian.PutUint32(col[n*4:], uint32(g.StaticValue(core.AttrID(ai), core.NodeID(n))))
			}
			addBlob(blobStatic, uint32(ai), col)
		case core.TimeVarying:
			// Rows shorter than the node count (an accumulator froze them
			// before later nodes joined) are padded with dict.None.
			col := make([]byte, T*nNodes*4)
			for t, row := range g.VaryingRows(core.AttrID(ai)) {
				for n := 0; n < nNodes; n++ {
					c := dict.None
					if n < len(row) {
						c = row[n]
					}
					binary.LittleEndian.PutUint32(col[(t*nNodes+n)*4:], uint32(c))
				}
			}
			addBlob(blobVaryingRows, uint32(ai), col)
		}
	}

	// Lay the blob area out after the framed part: header + meta + blob
	// directory record + end record, rounded up to alignment.
	dirPayloadLen := 1 + 4 + 8 + len(entries)*blobDirEntryLen
	framedLen := size + (8 + dirPayloadLen) + (8 + 1)
	blobStart := align8(framedLen)
	off := blobStart
	for i := range entries {
		entries[i].off = uint64(off)
		off = align8(off + len(blobs[i]))
	}
	fileSize := off

	dir := make([]byte, 0, dirPayloadLen)
	dir = append(dir, secBlobDir)
	dir = binary.LittleEndian.AppendUint32(dir, uint32(len(entries)))
	dir = binary.LittleEndian.AppendUint64(dir, uint64(fileSize))
	for _, be := range entries {
		dir = binary.LittleEndian.AppendUint32(dir, be.kind)
		dir = binary.LittleEndian.AppendUint32(dir, be.param)
		dir = binary.LittleEndian.AppendUint64(dir, be.off)
		dir = binary.LittleEndian.AppendUint64(dir, be.length)
		dir = binary.LittleEndian.AppendUint32(dir, be.crc)
	}
	frame(dir)
	frame([]byte{secEnd})
	var zeros [8]byte
	put(zeros[:blobStart-framedLen])
	for _, b := range blobs {
		put(b, zeros[:align8(len(b))-len(b)])
	}
	for _, p := range out {
		if _, err := w.Write(p); err != nil {
			return err
		}
	}
	return nil
}

// tauBlob flattens n existence bitsets into w little-endian words each.
func tauBlob(w, n int, tau func(int) *bitset.Set) []byte {
	b := make([]byte, n*w*8)
	for i := 0; i < n; i++ {
		base := i * w * 8
		tau(i).ForEachWord(func(wi int, word uint64) {
			binary.LittleEndian.PutUint64(b[base+wi*8:], word)
		})
	}
	return b
}
