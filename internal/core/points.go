package core

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/dict"
	"repro/internal/timeline"
)

// PointIndex is the time-major reading of the paper's V and E arrays (§4,
// Table 2): for each base time point, the bitset of node ids and of edge
// ids existing at that point — the columns of the arrays whose rows are
// τu and τe. It is the access path of every scan: the temporal operators
// of package ops combine its columns, the aggregation kernel of package agg
// streams them, the exploration indexes count over them. It is immutable
// and safe for concurrent use.
//
// A column is frozen at the entity count of its point, so it may be shorter
// than today's id space; it reads as zero-padded ("absent for every later
// id"), the rule τ follows along the time axis.
type PointIndex struct {
	// head holds the columns of the first head.T points when they were not
	// appended at ingest: all of a built or loaded graph's, or those of the
	// loaded graph an accumulator resumed from. They are transposed from τ
	// on first use — once, shared by every later generation that chains to
	// them. nil when every column was appended.
	head *lazyColumns
	// nodeAt/edgeAt are the columns of points head.T, head.T+1, … that an
	// Accumulator appended as each point finished.
	nodeAt, edgeAt []*bitset.Set
}

// PointIndex returns the graph's per-time-point existence index, shared by
// every reader of this graph.
func (g *Graph) PointIndex() *PointIndex { return &g.points }

// NodesAt returns the bitset of nodes existing at t. Callers must not
// modify it.
func (ix *PointIndex) NodesAt(t timeline.Time) *bitset.Set {
	if int(t) < ix.head.points() {
		return ix.head.columns().nodeAt[t]
	}
	return ix.nodeAt[int(t)-ix.head.points()]
}

// EdgesAt returns the bitset of edges existing at t. Callers must not
// modify it.
func (ix *PointIndex) EdgesAt(t timeline.Time) *bitset.Set {
	if int(t) < ix.head.points() {
		return ix.head.columns().edgeAt[t]
	}
	return ix.edgeAt[int(t)-ix.head.points()]
}

// bytes is the resident size of the columns built so far.
func (ix *PointIndex) bytes() int64 {
	var b int64
	if ix.head != nil {
		b = ix.head.bytes.Load()
	}
	for _, cols := range [2][]*bitset.Set{ix.nodeAt, ix.edgeAt} {
		for _, c := range cols {
			b += int64(c.NumWords()) * 8
		}
	}
	return b
}

// lazyColumns are point-index columns derived from τ when first asked for:
// a graph that did not come out of an Accumulator has no appended columns,
// and one that is only asked static questions never needs any.
type lazyColumns struct {
	T    int
	once sync.Once
	// nodeTau/edgeTau are the rows to transpose; released once built.
	nodeTau, edgeTau []*bitset.Set
	nodeAt, edgeAt   []*bitset.Set
	bytes            atomic.Int64
}

// points is the number of leading time points h covers; none when nil.
func (h *lazyColumns) points() int {
	if h == nil {
		return 0
	}
	return h.T
}

// columns returns h with its columns built.
func (h *lazyColumns) columns() *lazyColumns {
	h.once.Do(func() {
		h.nodeAt = transpose(h.nodeTau, h.T)
		h.edgeAt = transpose(h.edgeTau, h.T)
		h.bytes.Store(int64(h.T) * int64((len(h.nodeTau)+63)/64+(len(h.edgeTau)+63)/64) * 8)
		h.nodeTau, h.edgeTau = nil, nil
	})
	return h
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

// pointColumns is one side (nodes or edges) of the index an Accumulator
// grows: one frozen column per finished point, and the words of the current
// point's column while it is being written.
type pointColumns struct {
	cols []*bitset.Set
	cur  []uint64
}

// mark records that entity id exists at the current point, the t'th this
// accumulator appends columns for.
func (c *pointColumns) mark(t, id int) {
	if t < 0 {
		panic("core: a resumed accumulator records existence only after AddPoint")
	}
	if len(c.cols) > t {
		// A Snapshot froze this point and the caller keeps writing to it:
		// reopen the column. The frozen one stays with the snapshot (the
		// capacity clip makes the next append copy the slice).
		last := c.cols[t]
		c.cols = c.cols[:t:t]
		c.cur = c.cur[:0]
		for wi := 0; wi < last.NumWords(); wi++ {
			c.cur = append(c.cur, last.Word(wi))
		}
	}
	for id/64 >= len(c.cur) {
		c.cur = append(c.cur, 0)
	}
	c.cur[id/64] |= 1 << uint(id%64)
}

// freeze finishes point t at an id space of n entities: the column is copied
// out at exactly that length and the scratch words are reused.
func (c *pointColumns) freeze(t, n int) {
	if len(c.cols) > t {
		return // already frozen (repeated Snapshot)
	}
	words := make([]uint64, (n+63)/64)
	copy(words, c.cur)
	clear(c.cur)
	c.cols = append(c.cols, bitset.FromWords(n, words))
}

// derivedRows is the lazily built time-major copy of one node-major
// time-varying column.
type derivedRows struct {
	once sync.Once
	rows [][]dict.Code
}

// VaryingRows returns the time-major reading of time-varying attribute a —
// the node × time array A_i of §4 by time column, the order Alg. 2 unpivots
// it in: rows[t][n] is node n's code at t. A row may be shorter than
// NumNodes (an accumulator freezes it at its point's node count); nodes
// beyond its end read as dict.None. Accumulator snapshots store the rows;
// a node-major graph (Builder, loaded or mmap'd snapshot) derives them on
// first use, once per attribute. Callers must not modify them.
// It panics if a is static.
func (g *Graph) VaryingRows(a AttrID) [][]dict.Code {
	if g.attrs[a].Kind != TimeVarying {
		panic("core: attribute \"" + g.attrs[a].Name + "\" is not time-varying")
	}
	if g.varyingT != nil {
		return g.varyingT[a]
	}
	d := &g.derived[a]
	d.once.Do(func() {
		T, V := g.tl.Len(), len(g.nodeLabels)
		col, codes := g.varying[a], make([]dict.Code, T*V)
		for n := 0; n < V; n++ {
			for t, c := range col[n*T : (n+1)*T] {
				codes[t*V+n] = c
			}
		}
		rows := make([][]dict.Code, T)
		for t := range rows {
			rows[t] = codes[t*V : (t+1)*V : (t+1)*V]
		}
		g.derivedBytes.Add(int64(T) * int64(V) * 4)
		d.rows = rows
	})
	return d.rows
}

// StaticColumn returns the per-node value column of static attribute a.
// Callers must not modify it. It panics if a is time-varying.
func (g *Graph) StaticColumn(a AttrID) []dict.Code {
	if g.attrs[a].Kind != Static {
		panic("core: attribute \"" + g.attrs[a].Name + "\" is not static")
	}
	return g.static[a]
}

// IndexBytes reports the resident size of the graph's derived scan
// structures as built so far: the point index's columns, and the time-major
// rows derived from node-major time-varying columns (0 on accumulator
// snapshots, which store rows).
func (g *Graph) IndexBytes() (points, varyingRows int64) {
	return g.points.bytes(), g.derivedBytes.Load()
}
