package agg

import (
	"math/bits"
	"sync"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/ops"
	"repro/internal/timeline"
)

// This file implements the aggregation kernels behind Aggregate,
// AggregateParallel and AggregateFiltered, for every schema.
//
// Tuples are dictionary-encoded mixed-radix codes, so the accumulators are
// indexed by code — node weights by tuple, edge weights by from·Domain+to —
// with unhashed updates and nothing allocated per entity (Accum). The
// scratch is pooled per schema, making repeated calls allocation-free apart
// from the exactly-sized result maps.
//
// Static schemas take one tuple per node (denseStatic). Time-varying schemas
// — and filtered aggregation under any schema — are read the way
// Algorithm 2 unpivots the node × time attribute arrays, by time column
// (denseVarying): for each point of the view's interval the kernel streams
// the words of the point's existence column ∧ the view's selection and
// decodes tuples from that point's attribute rows, which stay
// cache-resident through the whole pass, instead of walking each entity's τ
// into a |V|·T table.
//
// Exploration (internal/explore) is the workload this exists for: every
// candidate interval pair costs one aggregation, and Figs. 13–14 evaluate
// hundreds of pairs per traversal.

// flatSlots bounds the code spaces an Accum keeps in a flat array: 1024²
// slots, the edge space of a 1024-value tuple domain. Above it the space is
// both too large to allocate and sparsely occupied — the 4-attribute
// MovieLens schema (domain 9,828) has ~10⁸ edge slots and ~10⁶ occurring
// pairs — so it accumulates into a map keyed by the same codes.
const flatSlots = 1 << 20

// Accum is a kernel accumulator: one value per code of a code space
// [0, n). Its storage follows from n alone (flatSlots): a flat array indexed
// by the code, or a map from the code to a position in vals. Either way Ref
// is O(1) and Reset O(codes touched), never O(n), so a pooled Accum serves
// every call of a schema. The zero value of V means "untouched": callers
// leave every value they Ref non-zero.
type Accum[V comparable] struct {
	flat  []V             // flat storage; empty under map storage
	index map[int64]int32 // map storage: code → position in vals
	vals  []V
	codes []int64 // the codes touched since Reset, in first-touch order
}

// Shape readies an empty Accum for the code space [0, n).
func (a *Accum[V]) Shape(n int64) {
	if n > flatSlots {
		if a.index == nil {
			a.index = make(map[int64]int32)
		}
		a.flat = a.flat[:0]
		return
	}
	a.index, a.vals = nil, nil
	if int64(cap(a.flat)) < n {
		a.flat = make([]V, n)
	}
	a.flat = a.flat[:n]
}

// Ref returns the value of code. The pointer is valid until the next Ref.
// The length test is the storage test: a flat code space's codes all lie
// below its length, and under map storage the flat array is empty. The
// kernels call Ref per appearance, so it must stay within the inliner's
// budget (go build -gcflags=-m shows it inlined into count).
func (a *Accum[V]) Ref(code int64) *V {
	var zero V
	if code < int64(len(a.flat)) {
		p := &a.flat[code]
		if *p == zero {
			a.codes = append(a.codes, code)
		}
		return p
	}
	i, ok := a.index[code]
	if !ok {
		i = int32(len(a.vals))
		a.index[code] = i
		a.vals = append(a.vals, zero)
		a.codes = append(a.codes, code)
	}
	return &a.vals[i]
}

// Len returns the number of codes touched since Reset.
func (a *Accum[V]) Len() int { return len(a.codes) }

// Entry returns the i-th touched code, in first-touch order, and its value.
func (a *Accum[V]) Entry(i int) (int64, V) {
	c := a.codes[i]
	if a.index == nil {
		return c, a.flat[c]
	}
	return c, a.vals[i]
}

// Reset zeroes every touched value.
func (a *Accum[V]) Reset() {
	if a.index == nil {
		var zero V
		for _, c := range a.codes {
			a.flat[c] = zero
		}
	} else {
		// A fresh map, not clear(): clearing costs the map's capacity, which
		// the largest answer the schema ever had set.
		a.index = make(map[int64]int32)
		a.vals = a.vals[:0]
	}
	a.codes = a.codes[:0]
}

// denseScratch is one pooled kernel state for a schema: the node and edge
// weights, DIST's stamps (the last entity, by gen, counted into a node or
// edge group) and the time-major scan's per-call buffers.
type denseScratch struct {
	nodes, edges       Accum[int64]
	nodeSeen, edgeSeen Accum[int64]
	gen                int64

	// Time-major kernel state (denseVarying), rebuilt per call: words are
	// the indices of the selection's non-zero words within the scanned id
	// range and sel those words (range-clipped); seen/multi are DIST's
	// word-parallel "appears at ≥ 1 / ≥ 2 points of the interval" masks over
	// the same words. rows and cur back the column plan (varyingScan).
	words       []int32
	sel         []uint64
	seen, multi []uint64
	rows        [][][]dict.Code
	cur         [][]dict.Code
}

// SweepPool is the schema's pool for the scratch of the evolution sweep
// kernel (internal/evolution/sweep.go), whose accumulators are sized by
// this schema's domain and so live and die with it, like denseScratch.
func (s *Schema) SweepPool() *sync.Pool { return &s.sweep }

// getScratch returns a scratch with empty accumulators shaped for the
// schema.
func (s *Schema) getScratch() *denseScratch {
	sc, _ := s.dense.Get().(*denseScratch)
	if sc == nil {
		sc = &denseScratch{}
		sc.nodes.Shape(s.domain)
		sc.nodeSeen.Shape(s.domain)
		sc.edges.Shape(s.domain * s.domain)
		sc.edgeSeen.Shape(s.domain * s.domain)
	}
	return sc
}

// putScratch empties the accumulators and returns the scratch to the pool.
func (s *Schema) putScratch(sc *denseScratch) {
	sc.nodes.Reset()
	sc.nodeSeen.Reset()
	sc.edges.Reset()
	sc.edgeSeen.Reset()
	s.dense.Put(sc)
}

// StaticTupleCodes lazily builds the per-node tuple codes of an all-static
// schema (-1 where any attribute value is missing). Built once per schema;
// safe for concurrent readers, who must not modify it.
func (s *Schema) StaticTupleCodes() []int64 {
	s.staticOnce.Do(func() {
		codes := make([]int64, s.g.NumNodes())
		for n := range codes {
			if tu, ok := s.StaticTuple(core.NodeID(n)); ok {
				codes[n] = int64(tu)
			} else {
				codes[n] = -1
			}
		}
		s.staticCodes = codes
	})
	return s.staticCodes
}

// StaticMatch returns what aggregation under an all-static schema counts:
// the nodes that have a tuple and the edges whose endpoints both have one.
// Both are nil when every node has a tuple. Built once per schema, like
// StaticTupleCodes; callers must not modify them.
func (s *Schema) StaticMatch() (nodes, edges *bitset.Set) {
	s.matchOnce.Do(func() {
		g := s.g
		has := bitset.New(g.NumNodes())
		for n := 0; n < g.NumNodes(); n++ {
			if _, ok := s.StaticTuple(core.NodeID(n)); ok {
				has.Add(n)
			}
		}
		if has.Count() < g.NumNodes() {
			s.matchNodes, s.matchEdges = has, g.EdgesBetween(has, has)
		}
	})
	return s.matchNodes, s.matchEdges
}

// denseStatic is the §4.2 static fast path: one tuple per node, weights 1
// (DIST) or the restricted-timestamp popcount (ALL).
func denseStatic(v *ops.View, s *Schema, kind Kind, sc *denseScratch, nLo, nHi, eLo, eHi int) {
	codes := s.StaticTupleCodes()
	d := s.domain
	v.ForEachNodeIn(nLo, nHi, func(n core.NodeID) {
		c := codes[n]
		if c < 0 {
			return
		}
		w := int64(1)
		if kind == All {
			w = int64(v.NodeTimesCount(n))
			if w == 0 {
				return
			}
		}
		*sc.nodes.Ref(c) += w
	})
	g := s.g
	v.ForEachEdgeIn(eLo, eHi, func(e core.EdgeID) {
		ep := g.Edge(e)
		cu, cv := codes[ep.U], codes[ep.V]
		if cu < 0 || cv < 0 {
			return
		}
		w := int64(1)
		if kind == All {
			w = int64(v.EdgeTimesCount(e))
			if w == 0 {
				return
			}
		}
		*sc.edges.Ref(cu*d + cv) += w
	})
}

// denseVarying is the time-major kernel for time-varying (and mixed)
// schemas, and for filtered aggregation under any schema, over the view's
// entities with ids in [nLo,nHi) / [eLo,eHi). For each point t of the
// view's interval it streams the words of NodesAt(t) ∧ view.nodes and
// EdgesAt(t) ∧ view.edges and decodes each appearance's tuple from the
// columns bound to t: row t of every varying attribute plus the static
// columns, resolved once per call — no Graph.Value dispatch per appearance.
// A non-nil filter drops the appearances it rejects (an edge's needs both
// endpoints to pass).
//
// ALL counts every appearance that way. DIST must count an (entity, tuple)
// pair once: a word-parallel pass over the same columns first splits the
// selection into entities that appear at exactly one point of the interval
// — nothing to deduplicate, so they are streamed like ALL — and the
// multi-appearance remainder, which alone is walked entity by entity with
// epoch stamps.
//
// Only the selection's non-zero words are visited per point, so the work
// is (non-zero words) · |interval| word operations plus the selected
// appearances: a long projection that keeps few entities stays cheap.
// canceled is probed every ctxChunk ids' worth of words; the kernel
// returns false when it stopped early.
func denseVarying(v *ops.View, s *Schema, kind Kind, filter Filter, sc *denseScratch, nLo, nHi, eLo, eHi int, canceled func() bool) bool {
	g := s.g
	sc.rows, sc.cur = sc.rows[:0], sc.cur[:0]
	for _, a := range s.attrs {
		if g.Attr(a).Kind == core.Static {
			sc.rows, sc.cur = append(sc.rows, nil), append(sc.cur, g.StaticColumn(a))
		} else {
			sc.rows, sc.cur = append(sc.rows, g.VaryingRows(a)), append(sc.cur, nil)
		}
	}
	k := varyingScan{s: s, sc: sc, rows: sc.rows, cur: sc.cur, strides: s.strides,
		times: v.Times().Mask(), dist: kind == Distinct, filter: filter, canceled: canceled}
	if k.times == nil || k.times.IsEmpty() {
		return true
	}
	k.tLo, k.tHi = k.times.Next(0)/64, k.times.NumWords()
	ix := g.PointIndex()
	return k.side(v.Nodes(), ix.NodesAt, nLo, nHi, false) && k.side(v.Edges(), ix.EdgesAt, eLo, eHi, true)
}

// varyingScan is one denseVarying call.
type varyingScan struct {
	s  *Schema
	sc *denseScratch
	// The column plan, per schema attribute: the time-major rows of a
	// varying one (nil for a static one), the column bound to the point
	// being read — row t after bind(t), or the static column — and the
	// attribute's stride in the tuple code.
	rows     [][][]dict.Code
	cur      [][]dict.Code
	strides  []int64
	t        timeline.Time // the bound point
	times    *bitset.Set   // the view's interval, non-empty
	tLo, tHi int           // the words of times that can hold a point
	dist     bool
	filter   Filter
	canceled func() bool
}

// probeWords is the number of selection words between cancellation probes.
const probeWords = ctxChunk / 64

// side scans one side of the view — nodes, or edges — over ids [lo, hi).
func (k *varyingScan) side(sel *bitset.Set, at func(timeline.Time) *bitset.Set, lo, hi int, edges bool) bool {
	sc := k.sc
	sc.words, sc.sel = sc.words[:0], sc.sel[:0]
	for wi := lo / 64; wi*64 < hi; wi++ {
		if w := sel.WordIn(wi, lo, hi); w != 0 {
			sc.words, sc.sel = append(sc.words, int32(wi)), append(sc.sel, w)
		}
	}
	if len(sc.words) == 0 {
		return true
	}
	stream := sc.sel
	if k.dist {
		sc.seen, sc.multi = zeroed(sc.seen, len(sc.words)), zeroed(sc.multi, len(sc.words))
		for t := k.times.Next(0); t >= 0; t = k.times.Next(t + 1) {
			col := at(timeline.Time(t))
			nw := int32(col.NumWords())
			for j, wi := range sc.words {
				if wi >= nw {
					break
				}
				x := col.Word(int(wi)) & sc.sel[j]
				sc.multi[j] |= sc.seen[j] & x
				sc.seen[j] |= x
			}
		}
		for j := range sc.seen {
			sc.seen[j] &^= sc.multi[j]
		}
		stream = sc.seen // the single-appearance entities
	}
	for t := k.times.Next(0); t >= 0; t = k.times.Next(t + 1) {
		col := at(timeline.Time(t))
		nw := int32(col.NumWords())
		k.bind(t)
		for j, wi := range sc.words {
			if wi >= nw {
				break
			}
			if j%probeWords == 0 && k.canceled() {
				return false
			}
			if x := col.Word(int(wi)) & stream[j]; x != 0 {
				k.count(int(wi)*64, x, edges)
			}
		}
	}
	if !k.dist {
		return true
	}
	for j, m := range sc.multi {
		if j%probeWords == 0 && k.canceled() {
			return false
		}
		for base := int(sc.words[j]) * 64; m != 0; m &= m - 1 {
			k.dedupe(base+bits.TrailingZeros64(m), edges)
		}
	}
	return true
}

// zeroed returns buf resized to n zero words, reallocating only to grow.
func zeroed(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// bind points the varying attributes' columns at row t.
func (k *varyingScan) bind(t int) {
	k.t = timeline.Time(t)
	for i, rows := range k.rows {
		if rows != nil {
			k.cur[i] = rows[t]
		}
	}
}

// tuple decodes node n's tuple from the bound columns; -1 when any
// attribute has no value. n exists at the bound point — it is in that
// point's column, or an endpoint of an edge that is — so it is within every
// bound row, however early the row was frozen.
func (k *varyingScan) tuple(n core.NodeID) int64 {
	var code int64
	for i, col := range k.cur {
		c := col[n]
		if c < 0 {
			return -1
		}
		code += int64(c) * k.strides[i]
	}
	return code
}

// admits reports whether the filter keeps node n's appearance at the bound
// point.
func (k *varyingScan) admits(n core.NodeID) bool { return k.filter == nil || k.filter(n, k.t) }

// admitted clears from word x of the id space the entities whose appearance
// at the bound point the filter rejects (an edge's needs both endpoints
// kept), so that count's per-appearance loop reads no filter.
func (k *varyingScan) admitted(base int, x uint64, edges bool) uint64 {
	for y := x; y != 0; y &= y - 1 {
		b := bits.TrailingZeros64(y)
		if edges {
			if ep := k.s.g.Edge(core.EdgeID(base + b)); !k.admits(ep.U) || !k.admits(ep.V) {
				x &^= 1 << b
			}
		} else if !k.admits(core.NodeID(base + b)) {
			x &^= 1 << b
		}
	}
	return x
}

// count adds one appearance at the bound point for every entity in word x
// of the id space (bit b is id base+b) that the filter admits.
func (k *varyingScan) count(base int, x uint64, edges bool) {
	sc, g, d := k.sc, k.s.g, k.s.domain
	if k.filter != nil {
		x = k.admitted(base, x, edges)
	}
	for ; x != 0; x &= x - 1 {
		id := base + bits.TrailingZeros64(x)
		if !edges {
			if tu := k.tuple(core.NodeID(id)); tu >= 0 {
				*sc.nodes.Ref(tu)++
			}
			continue
		}
		ep := g.Edge(core.EdgeID(id))
		if fu, tu := k.tuple(ep.U), k.tuple(ep.V); fu >= 0 && tu >= 0 {
			*sc.edges.Ref(fu*d + tu)++
		}
	}
}

// dedupe is DIST for one entity that appears at several points of the
// interval: it walks the entity's restricted timestamp and counts each
// distinct tuple (pair) once, stamping what the entity has exhibited.
func (k *varyingScan) dedupe(id int, edges bool) {
	sc, g, d := k.sc, k.s.g, k.s.domain
	sc.gen++
	w, seen := &sc.nodes, &sc.nodeSeen
	var ep core.Endpoints
	var tau *bitset.Set
	if edges {
		w, seen = &sc.edges, &sc.edgeSeen
		ep, tau = g.Edge(core.EdgeID(id)), g.EdgeTau(core.EdgeID(id))
	} else {
		tau = g.NodeTau(core.NodeID(id))
	}
	for wi, hi := k.tLo, min(k.tHi, tau.NumWords()); wi < hi; wi++ {
		for bw := tau.Word(wi) & k.times.Word(wi); bw != 0; bw &= bw - 1 {
			k.bind(wi*64 + bits.TrailingZeros64(bw))
			var code int64
			if edges {
				fu, tu := k.tuple(ep.U), k.tuple(ep.V)
				if fu < 0 || tu < 0 || !k.admits(ep.U) || !k.admits(ep.V) {
					continue
				}
				code = fu*d + tu
			} else if code = k.tuple(core.NodeID(id)); code < 0 || !k.admits(core.NodeID(id)) {
				continue
			}
			if st := seen.Ref(code); *st != sc.gen {
				*st = sc.gen
				*w.Ref(code)++
			}
		}
	}
}
