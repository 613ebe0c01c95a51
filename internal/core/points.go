package core

import (
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/timeline"
)

// PointIndex is the time-major reading of the paper's V and E arrays (§4,
// Table 2): for each base time point, the bitset of node ids and of edge
// ids existing at that point — the columns of the arrays whose rows are
// τu and τe. It is immutable and safe for concurrent use.
type PointIndex struct {
	nodeAt []*bitset.Set
	edgeAt []*bitset.Set
}

// PointIndex returns the graph's per-time-point existence index, built on
// first use (one pass over all timestamps) and shared by every reader of
// this graph: the incremental views of package ops, the exploration
// indexes, TOP's consecutive-pair views and NodesAt/EdgesAt.
func (g *Graph) PointIndex() *PointIndex {
	g.pointOnce.Do(func() {
		g.points = &PointIndex{
			nodeAt: transpose(g.nodeTau, g.tl.Len()),
			edgeAt: transpose(g.edgeTau, g.tl.Len()),
		}
	})
	return g.points
}

// transpose turns per-entity timestamp sets into per-point entity sets. The
// T columns share one backing array.
func transpose(taus []*bitset.Set, T int) []*bitset.Set {
	perCol := (len(taus) + 63) / 64
	words := make([]uint64, T*perCol)
	for i, tau := range taus {
		wi, bit := i/64, uint64(1)<<uint(i%64)
		for k := 0; k < tau.NumWords(); k++ {
			for w := tau.Word(k); w != 0; w &= w - 1 {
				words[(k*64+bits.TrailingZeros64(w))*perCol+wi] |= bit
			}
		}
	}
	cols := make([]*bitset.Set, T)
	for t := range cols {
		cols[t] = bitset.FromWords(len(taus), words[t*perCol:(t+1)*perCol:(t+1)*perCol])
	}
	return cols
}

// NodesAt returns the bitset of nodes existing at t. Callers must not
// modify it.
func (ix *PointIndex) NodesAt(t timeline.Time) *bitset.Set { return ix.nodeAt[t] }

// EdgesAt returns the bitset of edges existing at t. Callers must not
// modify it.
func (ix *PointIndex) EdgesAt(t timeline.Time) *bitset.Set { return ix.edgeAt[t] }
