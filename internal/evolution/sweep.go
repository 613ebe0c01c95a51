package evolution

import (
	"context"
	"math"
	"math/bits"
	"slices"

	"repro/internal/agg"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/timeline"
)

// This file implements the dense sweep kernel behind Aggregate, Timeline
// and TileSweep (EVENTS): one pass over the entities that classifies every
// (entity, tuple) between every pair of consecutive windows.
//
// Entities are read sweepChunk ids at a time from the graph's point index:
// read transposes each active point's existence column words, in order,
// into the chunk's timestamps, and every appearance reads its tuple from
// the schema's code row of its point (agg's Schema.Codes), so no τ is
// walked and no tuple is decoded per appearance.
//
// Per entity, the appearances are bucketed into per-(tuple, window) counts
// held in flat cells stamped with the entity's epoch, so nothing is cleared
// between entities and nothing is hashed or allocated; the cells an entity
// touched are then folded once per (entity, tuple, step) by addClass into
// Weights accumulators. Scratch is pooled per schema and every code-indexed
// array is an agg.Accum, zeroed through its touched codes like
// agg.denseScratch, so a call costs O(entities + appearances + groups) and
// never O(domain²).

// sweepChunk is the number of entity ids read at once and swept between
// cancellation probes (see agg's ctxChunk).
const sweepChunk = 4096

// windows assigns time points to the windows a sweep classifies between:
// windows j and j+1 form step j. Tiles are disjoint; Aggregate's two
// arbitrary windows may overlap, so a point lies in at most two.
type windows struct {
	n      int         // number of windows (steps = n-1)
	active *bitset.Set // the points lying in some window
	first  []int32     // first[t] is a window holding t, -1 for none
	second []int32     // a second window holding t; nil when windows are disjoint
	// old and new are the pair's masks; nil for tiles.
	old, new *bitset.Set
}

// pairWindows is Aggregate's shape: window 0 is told, window 1 is tnew.
func pairWindows(T int, told, tnew timeline.Interval) windows {
	w := windows{n: 2, old: told.Mask(), new: tnew.Mask(), first: make([]int32, 2*T)}
	w.first, w.second = w.first[:T], w.first[T:]
	for t := 0; t < T; t++ {
		w.first[t], w.second[t] = -1, -1
	}
	w.active = bitset.New(T)
	w.old.ForEach(func(t int) { w.first[t] = 0; w.active.Add(t) })
	w.new.ForEach(func(t int) { w.second[t] = 1; w.active.Add(t) })
	return w
}

// tileWindows tiles a T-point timeline into width-w windows; the last one
// may be short.
func tileWindows(tl *timeline.Timeline, width int) windows {
	T := tl.Len()
	w := windows{n: (T + width - 1) / width, active: tl.All().Mask(), first: make([]int32, T)}
	for t := range w.first {
		w.first[t] = int32(t / width)
	}
	return w
}

// cell names one (slot, window) count an entity touched.
type cell struct{ slot, win int32 }

// bucket collects one entity's appearances as per-(tuple, window) counts.
// The entity's distinct tuple codes get slots 0, 1, … in order of first
// appearance (slots, valid where a stamp's high word holds the entity's
// epoch); the count of slot k in window j is cnt[k*nw+j], valid where
// cntGen holds the epoch; cells lists the valid counts.
type bucket struct {
	nw  int
	gen uint32

	slots agg.Accum[uint64] // tuple code → gen<<32 | the entity's slot
	codes []int64           // slot → tuple code

	cnt    []int32
	cntGen []uint32
	cells  []cell
}

// begin starts the next entity.
func (b *bucket) begin() {
	if b.gen == math.MaxUint32 { // stamp wrap guard; effectively never taken
		b.slots.Reset()
		clear(b.cntGen)
		b.gen = 0
	}
	b.gen++
	b.codes = b.codes[:0]
	b.cells = b.cells[:0]
}

// only gives the entity its one tuple code (all-static schemas): slot 0.
func (b *bucket) only(code int64) { b.codes = append(b.codes, code) }

// slot returns the entity's slot for code, assigning the next one on first
// sight.
func (b *bucket) slot(code int64) int32 {
	st := b.slots.Ref(code)
	if uint32(*st>>32) == b.gen {
		return int32(uint32(*st))
	}
	k := int32(len(b.codes))
	b.codes = append(b.codes, code)
	*st = uint64(b.gen)<<32 | uint64(k)
	if need := (int(k) + 1) * b.nw; need > len(b.cnt) {
		b.cnt = append(b.cnt, make([]int32, need-len(b.cnt))...)
		b.cntGen = append(b.cntGen, make([]uint32, need-len(b.cntGen))...)
	}
	return k
}

// bump counts one appearance of the slot's tuple in window win.
func (b *bucket) bump(slot, win int32) {
	i := int(slot)*b.nw + int(win)
	if b.cntGen[i] == b.gen {
		b.cnt[i]++
		return
	}
	b.cntGen[i], b.cnt[i] = b.gen, 1
	b.cells = append(b.cells, cell{slot, win})
}

// fold classifies the entity's tuples between every pair of consecutive
// windows it touched — each (tuple, step) exactly once: a touched window j
// owns step j (it is the old side; the new side's count is the next cell,
// 0 when untouched) and owns step j-1 only when window j-1 is untouched
// (pure growth).
func (b *bucket) fold(a *acc, kind agg.Kind) {
	for _, c := range b.cells {
		i := int(c.slot)*b.nw + int(c.win)
		code, cur := b.codes[c.slot], int64(b.cnt[i])
		if int(c.win) < b.nw-1 {
			var next int64
			if b.cntGen[i+1] == b.gen {
				next = int64(b.cnt[i+1])
			}
			a.add(int(c.win), code, cur, next, kind)
		}
		if c.win > 0 && b.cntGen[i-1] != b.gen {
			a.add(int(c.win)-1, code, 0, cur, kind)
		}
	}
}

// acc is one Weights accumulator: the fold of (step, code) lands at code
// step*stride + code*mul — tuple code for Aggregate's nodes, from·d+to for
// its edges, step·d+tuple for TileSweep, step alone (mul 0) for Timeline's
// class totals.
type acc struct {
	agg.Accum[Weights]
	stride, mul int64
}

// shape lays the accumulator out for steps×codes entries (codes 1 when the
// tuple is not kept); it is empty between calls.
func (a *acc) shape(steps, codes int64) {
	a.stride, a.mul = codes, 1
	if codes == 1 {
		a.mul = 0
	}
	a.Shape(steps * codes)
}

func (a *acc) add(step int, code, c0, c1 int64, kind agg.Kind) {
	addClass(a.Ref(int64(step)*a.stride+code*a.mul), c0, c1, kind)
}

// scratch is one pooled set of sweep state for a schema: the bucket, the
// accumulators, and per call the active points, the existence column of the
// side being swept at each (cols), the code rows by point (rows; nil off the
// active points and under an all-static schema) and what read gathers.
type scratch struct {
	bucket
	nodes, edges acc
	pts          []timeline.Time
	cols         []*bitset.Set
	rows         [][]int64
	tau, present []uint64
}

// sweep is one configured pass: what to classify (windows), under which
// schema, kind and filter, and whether edges take part.
type sweep struct {
	g      *core.Graph
	s      *agg.Schema
	kind   agg.Kind
	filter Filter
	win    windows
	edges  bool
	// keepTuples keeps the accumulators per tuple (Aggregate, TileSweep);
	// without it only per-step class totals are kept (Timeline).
	keepTuples bool
}

// run sweeps the graph into a scratch drawn from the schema's pool. The
// caller reads the accumulators and hands the scratch back with release —
// also when run reports a canceled context, in which case they are partial.
func (sw *sweep) run(ctx context.Context) (*scratch, error) {
	d := sw.s.Domain()
	sc, _ := sw.s.SweepPool().Get().(*scratch)
	if sc == nil {
		sc = &scratch{}
	}
	sc.nw = sw.win.n
	slots := int64(0) // codes that need a slot lookup: none when every entity has one tuple
	if !sw.s.AllStatic() {
		slots = d
		if sw.edges {
			slots = d * d
		}
	}
	sc.slots.Shape(slots)
	if sc.nw > len(sc.cnt) { // slot 0 always has its row
		sc.cnt, sc.cntGen = make([]int32, sc.nw), make([]uint32, sc.nw)
	}
	codes, edgeCodes := int64(1), int64(1)
	if sw.keepTuples {
		codes, edgeCodes = d, d*d
	}
	steps := int64(sw.win.n - 1)
	sc.nodes.shape(steps, codes)
	if sw.edges {
		sc.edges.shape(steps, edgeCodes)
	}

	T := sw.g.Timeline().Len()
	tw := (T + 63) / 64
	sc.pts, sc.rows = sc.pts[:0], slices.Grow(sc.rows[:0], T)[:T]
	clear(sc.rows)
	sw.win.active.ForEach(func(t int) {
		sc.pts = append(sc.pts, timeline.Time(t))
		if !sw.s.AllStatic() {
			sc.rows[t] = sw.s.Codes(timeline.Time(t))
		}
	})
	sc.tau = slices.Grow(sc.tau[:0], sweepChunk*tw)[:sweepChunk*tw]
	ix := sw.g.PointIndex()
	if err := sw.sweepSide(ctx, sc, ix.NodesAt, sw.g.NumNodes(), false); err != nil || !sw.edges {
		return sc, err
	}
	return sc, sw.sweepSide(ctx, sc, ix.EdgesAt, sw.g.NumEdges(), true)
}

// release empties the accumulators and pools the scratch.
func (sw *sweep) release(sc *scratch) {
	sc.slots.Reset()
	sc.nodes.Reset()
	sc.edges.Reset()
	sw.s.SweepPool().Put(sc)
}

// sweepSide sweeps the n nodes, or edges, whose existence columns at point
// t are at(t), sweepChunk ids at a time between ctx probes. An edge's
// appearance needs both endpoints to pass the filter and to have a tuple;
// its code is from·d+to.
func (sw *sweep) sweepSide(ctx context.Context, sc *scratch, at func(timeline.Time) *bitset.Set, n int, edges bool) error {
	s, win, filter := sw.s, &sw.win, sw.filter
	d, tw := s.Domain(), len(sc.tau)/sweepChunk
	var static []int64
	if s.AllStatic() {
		static = s.Codes(0)
	}
	a := &sc.nodes
	if edges {
		a = &sc.edges
	}
	sc.cols = sc.cols[:0]
	for _, t := range sc.pts {
		sc.cols = append(sc.cols, at(t))
	}
	for lo := 0; lo < n; lo += sweepChunk {
		if err := ctx.Err(); err != nil {
			return err
		}
		sc.read(lo/64, min(lo+sweepChunk, n))
		for j, present := range sc.present {
			for ; present != 0; present &= present - 1 {
				b := j*64 + bits.TrailingZeros64(present)
				u, v := core.NodeID(lo+b), core.NodeID(-1)
				if edges {
					ep := sw.g.Edge(core.EdgeID(lo + b))
					u, v = ep.U, ep.V
				}
				tau := sc.tau[b*tw : (b+1)*tw : (b+1)*tw]
				sc.begin()
				if static != nil {
					code := tupleCode(static, u, v, d)
					if code < 0 {
						continue
					}
					if filter == nil && win.old != nil {
						// One tuple, no filter, two windows: popcounts suffice.
						a.add(0, code, countAnd(tau, win.old), countAnd(tau, win.new), sw.kind)
						continue
					}
					sc.only(code)
				}
				for i, w := range tau {
					for ; w != 0; w &= w - 1 {
						t := i<<6 | bits.TrailingZeros64(w)
						tt := timeline.Time(t)
						if filter != nil && (!filter(u, tt) || v >= 0 && !filter(v, tt)) {
							continue
						}
						var slot int32
						if static == nil {
							code := tupleCode(sc.rows[t], u, v, d)
							if code < 0 {
								continue
							}
							slot = sc.slot(code)
						}
						if j := win.first[t]; j >= 0 {
							sc.bump(slot, j)
						}
						if win.second != nil && win.second[t] >= 0 {
							sc.bump(slot, win.second[t])
						}
					}
				}
				sc.fold(a, sw.kind)
			}
		}
	}
	return nil
}

// read transposes ids [w0·64, hi) of the active points' columns, reading
// each column's words in order, into the entities' timestamps:
// tau[b·tw:(b+1)·tw] is entity w0·64+b's τ restricted to the active points,
// and present gets, per word, the entities that appear at one of them.
func (sc *scratch) read(w0, hi int) {
	nw, tw := (hi+63)/64-w0, len(sc.tau)/sweepChunk
	clear(sc.tau)
	sc.present = slices.Grow(sc.present[:0], nw)[:nw]
	clear(sc.present)
	for i, col := range sc.cols {
		t := int(sc.pts[i])
		off, bit := t>>6, uint64(1)<<(t&63)
		for j := range min(nw, col.NumWords()-w0) {
			x := col.Word(w0 + j)
			sc.present[j] |= x
			for ; x != 0; x &= x - 1 {
				sc.tau[(j*64+bits.TrailingZeros64(x))*tw+off] |= bit
			}
		}
	}
}

// tupleCode is node u's tuple in row, or with v ≥ 0 the edge code u·d+v; -1
// when a tuple is missing.
func tupleCode(row []int64, u, v core.NodeID, d int64) int64 {
	cu := row[u]
	if v < 0 || cu < 0 {
		return cu
	}
	if cv := row[v]; cv >= 0 {
		return cu*d + cv
	}
	return -1
}

// countAnd is the popcount of tau ∧ m.
func countAnd(tau []uint64, m *bitset.Set) int64 {
	var c int
	for i := range min(len(tau), m.NumWords()) {
		c += bits.OnesCount64(tau[i] & m.Word(i))
	}
	return int64(c)
}
