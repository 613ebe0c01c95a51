package storage

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/materialize"
	"repro/internal/timeline"
)

// writeSnapshotV1 emits the legacy all-framed layout, exactly as files
// produced by older builds, so the reader's version-1 upgrade path is tested
// against a real writer. It lives in a test file: no binary can write v1.
func writeSnapshotV1(w io.Writer, g *core.Graph, stores []*materialize.Store, points []seriesPoint, coveredTxn int) error {
	for _, st := range stores {
		if st.Schema().Graph() != g {
			return fmt.Errorf("storage: store schema built on a different graph")
		}
	}
	var hdr [10]byte
	copy(hdr[:8], snapMagic)
	binary.LittleEndian.PutUint16(hdr[8:10], formatVersionV1)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	sec := func(id byte, fill func(*enc)) error {
		e := &enc{b: []byte{id}}
		fill(e)
		return writeRecord(w, e.b)
	}

	tl := g.Timeline()
	T := tl.Len()
	if err := sec(secTimeline, func(e *enc) {
		e.strs(tl.Labels())
	}); err != nil {
		return err
	}

	attrs := g.Attrs()
	if err := sec(secSchema, func(e *enc) {
		e.uvarint(uint64(len(attrs)))
		for i, a := range attrs {
			e.str(a.Name)
			e.byte(byte(a.Kind))
			e.strs(g.Dict(core.AttrID(i)).Values())
		}
	}); err != nil {
		return err
	}

	nNodes := g.NumNodes()
	if err := sec(secNodes, func(e *enc) {
		e.uvarint(uint64(nNodes))
		for n := 0; n < nNodes; n++ {
			e.str(g.NodeLabel(core.NodeID(n)))
		}
	}); err != nil {
		return err
	}

	wordsPerTau := (T + 63) / 64
	if err := sec(secNodeTau, func(e *enc) {
		writeTaus(e, wordsPerTau, nNodes, func(i int) *bitset.Set { return g.NodeTau(core.NodeID(i)) })
	}); err != nil {
		return err
	}

	nEdges := g.NumEdges()
	if err := sec(secEdges, func(e *enc) {
		e.uvarint(uint64(nEdges))
		for i := 0; i < nEdges; i++ {
			ep := g.Edge(core.EdgeID(i))
			e.uvarint(uint64(ep.U))
			e.uvarint(uint64(ep.V))
		}
	}); err != nil {
		return err
	}

	if err := sec(secEdgeTau, func(e *enc) {
		writeTaus(e, wordsPerTau, nEdges, func(i int) *bitset.Set { return g.EdgeTau(core.EdgeID(i)) })
	}); err != nil {
		return err
	}

	if err := sec(secStatic, func(e *enc) {
		for ai, a := range attrs {
			if a.Kind != core.Static {
				continue
			}
			for n := 0; n < nNodes; n++ {
				e.uvarint(codePlusOne(g.StaticValue(core.AttrID(ai), core.NodeID(n))))
			}
		}
	}); err != nil {
		return err
	}

	if err := sec(secVarying, func(e *enc) {
		for ai, a := range attrs {
			if a.Kind != core.TimeVarying {
				continue
			}
			for n := 0; n < nNodes; n++ {
				for t := 0; t < T; t++ {
					e.uvarint(codePlusOne(g.VaryingValue(core.AttrID(ai), core.NodeID(n), timeline.Time(t))))
				}
			}
		}
	}); err != nil {
		return err
	}

	if len(stores) > 0 {
		if err := sec(secStores, func(e *enc) {
			e.uvarint(uint64(len(stores)))
			for _, st := range stores {
				writeStore(e, g, st)
			}
		}); err != nil {
			return err
		}
	}

	if len(points) > 0 {
		if err := sec(secSeries, func(e *enc) {
			e.uvarint(uint64(len(points)))
			for _, p := range points {
				e.uvarint(uint64(len(p.payload)))
				e.b = append(e.b, p.payload...)
			}
		}); err != nil {
			return err
		}
	}

	if coveredTxn > 0 {
		if err := sec(secTxnMeta, func(e *enc) {
			e.uvarint(uint64(coveredTxn))
		}); err != nil {
			return err
		}
	}

	return sec(secEnd, func(*enc) {})
}

// writeTaus flattens n existence bitsets into w words each. ForEachWord
// only visits non-zero words, so the buffer is pre-zeroed per set.
func writeTaus(e *enc, w, n int, tau func(int) *bitset.Set) {
	e.uvarint(uint64(w))
	buf := make([]uint64, w)
	for i := 0; i < n; i++ {
		for j := range buf {
			buf[j] = 0
		}
		tau(i).ForEachWord(func(wi int, word uint64) { buf[wi] = word })
		for _, word := range buf {
			e.b = binary.LittleEndian.AppendUint64(e.b, word)
		}
	}
}

// codePlusOne shifts a dictionary code so None (-1) encodes as 0.
func codePlusOne(c dict.Code) uint64 { return uint64(int64(c) + 1) }
