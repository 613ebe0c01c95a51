package core

import (
	"repro/internal/bitset"
	"repro/internal/dict"
)

// ResumeAccumulator returns an accumulator whose state is exactly graph
// g's, so time points recorded after g was snapshotted can be replayed on
// top of it instead of from scratch — the core of point-in-time
// reconstruction as "snapshot + partial WAL replay".
//
// The resumed accumulator follows the same sharing discipline as a live
// one: g's timestamp bitsets, static columns and time-varying rows are
// adopted as stored, copy-on-write (the generation fence forces a clone
// before the first mutation of any shared structure), dictionaries are
// cloned, and node/edge identity is rebuilt in g's exact ID order so
// subsequent appends assign the same IDs and value codes live ingestion
// did.
//
// g's point index is chained to, not copied and not forced: the columns g
// was handed at ingest are adopted, the ones it builds lazily stay lazy and
// shared, so a resumed graph that is never scanned pays no transpose and one
// that is pays it once for every generation resumed from g. The
// multi-appearance sets are counted from g's timestamps. g's points are
// closed: the first write must follow an AddPoint.
func ResumeAccumulator(g *Graph) *Accumulator {
	a := &Accumulator{
		attrs:        append([]AttrSpec(nil), g.attrs...),
		dicts:        make([]*dict.Dict, len(g.attrs)),
		index:        &sharedIndex{nodes: make(map[string]NodeID, len(g.nodeLabels)), edges: make(map[Endpoints]EdgeID, len(g.edges))},
		labels:       append([]string(nil), g.tl.Labels()...),
		nodeLabels:   append([]string(nil), g.nodeLabels...),
		nodeTau:      append([]*bitset.Set(nil), g.nodeTau...),
		nodeTauGen:   make([]uint64, len(g.nodeTau)),
		edges:        append([]Endpoints(nil), g.edges...),
		edgeTau:      append([]*bitset.Set(nil), g.edgeTau...),
		edgeTauGen:   make([]uint64, len(g.edgeTau)),
		static:       make([][]dict.Code, len(g.attrs)),
		staticFrozen: make([]int, len(g.attrs)),
		varying:      make([][][]dict.Code, len(g.attrs)),
		curVarying:   make([]map[NodeID]dict.Code, len(g.attrs)),
		dictSnap:     make([]*dict.Dict, len(g.attrs)),
		dictSnapLen:  make([]int, len(g.attrs)),
		// All tau generations are 0 and the epoch starts at 1, so the first
		// touch of any adopted bitset clones it instead of mutating g's.
		gen:    1,
		head:   g.points.head,
		nodeAt: pointColumns{cols: g.points.nodeAt, multi: multiOf(g.nodeTau)},
		edgeAt: pointColumns{cols: g.points.edgeAt, multi: multiOf(g.edgeTau)},
	}
	for i, l := range a.nodeLabels {
		a.index.nodes[l] = NodeID(i)
	}
	for i, ep := range a.edges {
		a.index.edges[ep] = EdgeID(i)
	}
	for i, d := range g.dicts {
		// The clone is the mutable working dictionary; g's own (immutable
		// from here on) doubles as the first snapshot's share.
		a.dicts[i] = d.Clone()
		a.dictSnap[i] = d
		a.dictSnapLen[i] = d.Len()
	}
	for ai := range a.attrs {
		if a.attrs[ai].Kind == Static {
			col := g.static[ai]
			a.static[ai] = col[:len(col):len(col)]
			a.staticFrozen[ai] = len(col)
			continue
		}
		rows := g.varying[ai]
		a.varying[ai] = rows[:len(rows):len(rows)]
	}
	return a
}
