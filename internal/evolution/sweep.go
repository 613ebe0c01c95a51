package evolution

import (
	"context"
	"math"
	"math/bits"

	"repro/internal/agg"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/timeline"
)

// This file implements the dense sweep kernel behind Aggregate, Timeline
// and TileSweep (EVENTS): one pass over the entities that classifies every
// (entity, tuple) between every pair of consecutive windows.
//
// Per entity, the appearances are bucketed into per-(tuple, window) counts
// held in flat cells stamped with the entity's epoch, so nothing is cleared
// between entities and nothing is hashed or allocated; the cells an entity
// touched are then folded once per (entity, tuple, step) by addClass into
// Weights accumulators. Scratch is pooled per schema and every code-indexed
// array is an agg.Accum, zeroed through its touched codes like
// agg.denseScratch, so a call costs O(entities + appearances + groups) and
// never O(domain²).

// sweepChunk is the number of entity ids swept between cancellation probes
// (see agg's ctxChunk).
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

// scratch is one pooled set of sweep state for a schema.
type scratch struct {
	bucket
	nodes, edges acc
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

	for lo, n := 0, sw.g.NumNodes(); lo < n; lo += sweepChunk {
		if err := ctx.Err(); err != nil {
			return sc, err
		}
		sw.sweepNodes(sc, lo, min(lo+sweepChunk, n))
	}
	if sw.edges {
		for lo, n := 0, sw.g.NumEdges(); lo < n; lo += sweepChunk {
			if err := ctx.Err(); err != nil {
				return sc, err
			}
			sw.sweepEdges(sc, lo, min(lo+sweepChunk, n))
		}
	}
	return sc, nil
}

// release empties the accumulators and pools the scratch.
func (sw *sweep) release(sc *scratch) {
	sc.slots.Reset()
	sc.nodes.Reset()
	sc.edges.Reset()
	sw.s.SweepPool().Put(sc)
}

func (sw *sweep) sweepNodes(sc *scratch, lo, hi int) {
	g, s, win, filter := sw.g, sw.s, &sw.win, sw.filter
	static := s.AllStatic()
	var codes []int64
	if static {
		codes = s.StaticTupleCodes()
	}
	for n := lo; n < hi; n++ {
		id := core.NodeID(n)
		tau := g.NodeTau(id)
		sc.begin()
		if static {
			code := codes[n]
			if code < 0 {
				continue
			}
			if filter == nil && win.old != nil {
				// One tuple, no filter, two windows: popcounts suffice.
				if c0, c1 := tau.CountAnd(win.old), tau.CountAnd(win.new); c0|c1 != 0 {
					sc.nodes.add(0, code, int64(c0), int64(c1), sw.kind)
				}
				continue
			}
			sc.only(code)
		}
		for wi, words := 0, min(tau.NumWords(), win.active.NumWords()); wi < words; wi++ {
			for w := tau.Word(wi) & win.active.Word(wi); w != 0; w &= w - 1 {
				t := wi<<6 | bits.TrailingZeros64(w)
				if filter != nil && !filter(id, timeline.Time(t)) {
					continue
				}
				var slot int32
				if !static {
					tu, ok := s.TupleAt(id, timeline.Time(t))
					if !ok {
						continue
					}
					slot = sc.slot(int64(tu))
				}
				if j := win.first[t]; j >= 0 {
					sc.bump(slot, j)
				}
				if win.second != nil && win.second[t] >= 0 {
					sc.bump(slot, win.second[t])
				}
			}
		}
		sc.fold(&sc.nodes, sw.kind)
	}
}

// sweepEdges is sweepNodes for edges: an appearance needs both endpoints to
// pass the filter and to have a tuple; its code is from·d+to.
func (sw *sweep) sweepEdges(sc *scratch, lo, hi int) {
	g, s, win, filter := sw.g, sw.s, &sw.win, sw.filter
	static := s.AllStatic()
	d := s.Domain()
	var codes []int64
	if static {
		codes = s.StaticTupleCodes()
	}
	for e := lo; e < hi; e++ {
		id := core.EdgeID(e)
		tau, ep := g.EdgeTau(id), g.Edge(id)
		sc.begin()
		if static {
			cu, cv := codes[ep.U], codes[ep.V]
			if cu < 0 || cv < 0 {
				continue
			}
			code := cu*d + cv
			if filter == nil && win.old != nil {
				if c0, c1 := tau.CountAnd(win.old), tau.CountAnd(win.new); c0|c1 != 0 {
					sc.edges.add(0, code, int64(c0), int64(c1), sw.kind)
				}
				continue
			}
			sc.only(code)
		}
		for wi, words := 0, min(tau.NumWords(), win.active.NumWords()); wi < words; wi++ {
			for w := tau.Word(wi) & win.active.Word(wi); w != 0; w &= w - 1 {
				t := wi<<6 | bits.TrailingZeros64(w)
				tt := timeline.Time(t)
				if filter != nil && (!filter(ep.U, tt) || !filter(ep.V, tt)) {
					continue
				}
				var slot int32
				if !static {
					fu, ok1 := s.TupleAt(ep.U, tt)
					tu, ok2 := s.TupleAt(ep.V, tt)
					if !ok1 || !ok2 {
						continue
					}
					slot = sc.slot(int64(fu)*d + int64(tu))
				}
				if j := win.first[t]; j >= 0 {
					sc.bump(slot, j)
				}
				if win.second != nil && win.second[t] >= 0 {
					sc.bump(slot, win.second[t])
				}
			}
		}
		sc.fold(&sc.edges, sw.kind)
	}
}
