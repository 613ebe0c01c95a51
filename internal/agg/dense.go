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
// AggregateParallelCtx and AggregateFiltered, for every schema.
//
// Tuples are dictionary-encoded mixed-radix codes, so the accumulators are
// indexed by code — node weights by tuple, edge weights by from·Domain+to —
// with unhashed updates and nothing allocated per entity (Accum). The
// scratch is pooled per schema, making repeated calls allocation-free apart
// from the exactly-sized result maps.
//
// Every kernel reads a node's tuple with one load from the schema's
// per-point code rows (Codes): row t holds every node's tuple code at t,
// decoded once per (graph, schema, point) — schemas are interned per graph
// — and shared by every later call. An all-static schema has one row, the
// same at every point.
//
// Static schemas take one tuple per node (denseStatic). Time-varying schemas
// — and filtered aggregation under any schema — are read the way
// Algorithm 2 unpivots the node × time attribute arrays, by time column
// (denseVarying): for each point of the view's interval the kernel streams
// the words of the point's existence column ∧ the view's selection against
// that point's row. The entities living at that point alone are added as
// one per-point aggregate when the view selects them all; DIST
// deduplicates the rest 64 at a time from the same columns (dedupe) — no
// path walks an entity's τ.
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
// weights, DIST's stamps (per code, which entities of the word being
// deduplicated — by gen — already counted it) and the time-major scan's
// per-call buffers.
type denseScratch struct {
	nodes, edges       Accum[int64]
	nodeSeen, edgeSeen Accum[wordStamp]
	gen                int64

	// Time-major kernel state (denseVarying), rebuilt per call: ts are the
	// points of the view's interval, rows their tuple codes and cols the
	// scanned side's existence column at each; words are the indices of the
	// selection's non-zero words within the scanned id range, sel those
	// words (range-clipped), and multi/single their entities in and out of
	// the point index's multi-appearance set; absorbed tells, per point,
	// whether the view takes the aggregate of its singles, adds is that
	// aggregate for the range that adds it.
	ts                 []timeline.Time
	rows               [][]int64
	cols               []*bitset.Set
	words              []int32
	sel, multi, single []uint64
	absorbed           []bool
	adds               [][][2]int64
}

// wordStamp marks, for one code, the entities of word gen's dedupe that
// already counted it.
type wordStamp struct {
	gen  int64
	mask uint64
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

// Codes returns the schema's tuple-code row of point t: row[n] is node n's
// tuple code at t, or −1 when an attribute has no value. A time-varying or
// mixed schema's row is decoded from the attribute columns of t over
// NodesAt(t) — −1 for the nodes absent at t — and sized to that column, so
// it covers every node existing at t. An all-static schema has one row over
// every node, returned for every t. Each row is built once, on first use,
// and shared by every caller, who must not modify it.
func (s *Schema) Codes(t timeline.Time) []int64 {
	if p := s.codes[t].Load(); p != nil {
		return *p
	}
	s.codesMu.Lock()
	defer s.codesMu.Unlock()
	if p := s.codes[t].Load(); p != nil {
		return *p
	}
	g := s.g
	cols := make([][]dict.Code, len(s.attrs))
	for i, a := range s.attrs {
		if g.Attr(a).Kind == core.Static {
			cols[i] = g.StaticColumn(a)
		} else {
			cols[i] = g.VaryingRows(a)[t]
		}
	}
	code := func(n int) int64 {
		var code int64
		for i, col := range cols {
			if n >= len(col) || col[n] < 0 {
				return -1
			}
			code += int64(col[n]) * s.strides[i]
		}
		return code
	}
	var row []int64
	if s.allStatic {
		row = make([]int64, g.NumNodes())
		for n := range row {
			row[n] = code(n)
		}
		for i := range s.codes {
			s.codes[i].Store(&row)
		}
	} else {
		exists := g.PointIndex().NodesAt(t)
		row = make([]int64, exists.Len())
		for n := range row {
			row[n] = -1
		}
		exists.ForEach(func(n int) { row[n] = code(n) })
		s.codes[t].Store(&row)
	}
	tableOf(g).bytes.Add(int64(len(row)) * 8)
	return row
}

// StaticMatch returns what aggregation under an all-static schema counts:
// the nodes that have a tuple and the edges whose endpoints both have one.
// Both are nil when every node has a tuple. Built once per schema, like its
// code row; callers must not modify them.
func (s *Schema) StaticMatch() (nodes, edges *bitset.Set) {
	s.matchOnce.Do(func() {
		g := s.g
		has := bitset.New(g.NumNodes())
		for n, c := range s.Codes(0) {
			if c >= 0 {
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
	codes := s.Codes(0)
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
// EdgesAt(t) ∧ view.edges and reads each appearance's tuple from row t of
// the schema's codes. A non-nil filter drops the appearances it rejects (an
// edge's needs both endpoints to pass).
//
// An entity that exists at t and at no other point of the graph — one of
// t's singles, outside the point index's multi-appearance set — counts
// once, under DIST and ALL alike, in every view that selects it. So when an
// unfiltered view selects every single of t, the range owning id 0 adds the
// schema's per-point aggregate of them (singles) and every range masks
// them out of its stream; otherwise they are streamed. ALL streams the
// multi-appearance entities too; DIST must count an (entity, tuple) pair
// once, so dedupe counts those word by word.
//
// Only the selection's non-zero words are visited per point, so the work
// is (non-zero words) · |interval| word operations plus the selected
// appearances: a long projection that keeps few entities stays cheap.
// canceled is probed every ctxChunk ids' worth of words; the kernel
// returns false when it stopped early.
func denseVarying(v *ops.View, s *Schema, kind Kind, filter Filter, sc *denseScratch, nLo, nHi, eLo, eHi int, canceled func() bool) bool {
	times := v.Times().Mask()
	if times == nil {
		return true
	}
	sc.ts, sc.rows = sc.ts[:0], sc.rows[:0]
	for t := times.Next(0); t >= 0; t = times.Next(t + 1) {
		sc.ts, sc.rows = append(sc.ts, timeline.Time(t)), append(sc.rows, s.Codes(timeline.Time(t)))
	}
	k := varyingScan{s: s, sc: sc, dist: kind == Distinct, filter: filter, canceled: canceled}
	ix := s.g.PointIndex()
	return k.side(v.Nodes(), ix.NodesAt, ix.MultiNodes(), nLo, nHi, false) &&
		k.side(v.Edges(), ix.EdgesAt, ix.MultiEdges(), eLo, eHi, true)
}

// varyingScan is one denseVarying call.
type varyingScan struct {
	s        *Schema
	sc       *denseScratch
	t        timeline.Time // the bound point
	row      []int64       // its tuple codes
	dist     bool
	filter   Filter
	canceled func() bool
}

// probeWords is the number of selection words between cancellation probes.
const probeWords = ctxChunk / 64

// side scans one side of the view — nodes, or edges — over ids [lo, hi);
// multi is that side's multi-appearance set.
func (k *varyingScan) side(sel *bitset.Set, at func(timeline.Time) *bitset.Set, multi *bitset.Set, lo, hi int, edges bool) bool {
	sc := k.sc
	sc.words, sc.sel, sc.multi, sc.single = sc.words[:0], sc.sel[:0], sc.multi[:0], sc.single[:0]
	for wi := lo / 64; wi*64 < hi; wi++ {
		if w := sel.WordIn(wi, lo, hi); w != 0 {
			m := multi.Word(wi)
			sc.words, sc.sel = append(sc.words, int32(wi)), append(sc.sel, w)
			sc.multi, sc.single = append(sc.multi, w&m), append(sc.single, w&^m)
		}
	}
	owner := lo == 0 && hi > 0
	if len(sc.ts) == 0 || len(sc.words) == 0 && !owner {
		return true
	}
	// Which points' singles the view absorbs, and for the range owning id 0
	// their aggregates, built while this side's accumulator is still empty.
	sc.cols, sc.absorbed, sc.adds = sc.cols[:0], sc.absorbed[:0], sc.adds[:0]
	for i, t := range sc.ts {
		col := at(t)
		absorbed := k.filter == nil && selectsSingles(sel, col, multi)
		var add [][2]int64
		if absorbed && owner {
			k.bind(i)
			add = k.singles(col, multi, edges)
		}
		sc.cols, sc.absorbed, sc.adds = append(sc.cols, col), append(sc.absorbed, absorbed), append(sc.adds, add)
	}
	w := &sc.nodes
	if edges {
		w = &sc.edges
	}
	for i, col := range sc.cols {
		k.bind(i)
		stream := sc.sel
		if sc.absorbed[i] {
			for _, g := range sc.adds[i] {
				*w.Ref(g[0]) += g[1]
			}
			if k.dist {
				continue
			}
			stream = sc.multi
		} else if k.dist {
			stream = sc.single
		}
		nw := int32(col.NumWords())
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
	return !k.dist || k.dedupe(edges)
}

// selectsSingles reports whether selection sel holds every single of the
// point column col: each of its entities outside the multi-appearance set.
// It reads the whole id space, so every range of a sharded scan decides
// alike.
func selectsSingles(sel, col, multi *bitset.Set) bool {
	for wi := range col.NumWords() {
		if col.Word(wi)&^multi.Word(wi)&^sel.Word(wi) != 0 {
			return false
		}
	}
	return true
}

// singles returns the schema's aggregate of the bound point's singles on
// one side: per code, how many entities of col outside multi have it. It is
// built once per (schema, point, side), on first use, under codesMu like
// the rows, by counting into the side's scratch accumulator, which must be
// empty and is left empty. Callers must not modify it.
func (k *varyingScan) singles(col, multi *bitset.Set, edges bool) [][2]int64 {
	s, side, w := k.s, 0, &k.sc.nodes
	if edges {
		side, w = 1, &k.sc.edges
	}
	slot := &s.singles[side][k.t]
	if p := slot.Load(); p != nil {
		return *p
	}
	s.codesMu.Lock()
	defer s.codesMu.Unlock()
	if p := slot.Load(); p != nil {
		return *p
	}
	for wi := range col.NumWords() {
		if x := col.Word(wi) &^ multi.Word(wi); x != 0 {
			k.count(wi*64, x, edges)
		}
	}
	out := make([][2]int64, w.Len())
	for i := range out {
		out[i][0], out[i][1] = w.Entry(i)
	}
	w.Reset()
	slot.Store(&out)
	tableOf(s.g).bytes.Add(int64(len(out)) * 16)
	return out
}

// bind makes the i-th point of the interval the one read.
func (k *varyingScan) bind(i int) { k.t, k.row = k.sc.ts[i], k.sc.rows[i] }

// code returns entity id's code at the bound point — a node's tuple, an
// edge's from·Domain+to — or -1 when a tuple is missing. The entity exists
// at the bound point, so its nodes lie within the point's row.
func (k *varyingScan) code(id int, edges bool) int64 {
	if !edges {
		return k.row[id]
	}
	ep := k.s.g.Edge(core.EdgeID(id))
	if fu, tu := k.row[ep.U], k.row[ep.V]; fu >= 0 && tu >= 0 {
		return fu*k.s.domain + tu
	}
	return -1
}

// admits reports whether the filter keeps node n's appearance at the bound
// point.
func (k *varyingScan) admits(n core.NodeID) bool { return k.filter == nil || k.filter(n, k.t) }

// admitted clears from word x of the id space the entities whose appearance
// at the bound point the filter rejects (an edge's needs both endpoints
// kept), so that the per-appearance loops read no filter.
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
	w := &k.sc.nodes
	if edges {
		w = &k.sc.edges
	}
	if k.filter != nil {
		x = k.admitted(base, x, edges)
	}
	for ; x != 0; x &= x - 1 {
		if c := k.code(base+bits.TrailingZeros64(x), edges); c >= 0 {
			*w.Ref(c)++
		}
	}
}

// dedupe is DIST for the selected entities that appear at several points
// of the graph (multi), 64 at a time: for each point it takes the word of
// that point's column, and per code it stamps the bits of the word's
// entities that already counted it, so each (entity, tuple) pair counts
// once. A word reads a column word per point, so canceled is probed about
// every ctxChunk ids' worth of column words.
func (k *varyingScan) dedupe(edges bool) bool {
	sc := k.sc
	w, seen := &sc.nodes, &sc.nodeSeen
	if edges {
		w, seen = &sc.edges, &sc.edgeSeen
	}
	every := max(1, probeWords/len(sc.cols))
	for j, m := range sc.multi {
		if j%every == 0 && k.canceled() {
			return false
		}
		if m == 0 {
			continue
		}
		sc.gen++
		wi := int(sc.words[j])
		for i, col := range sc.cols {
			if wi >= col.NumWords() {
				continue
			}
			x := col.Word(wi) & m
			if x == 0 {
				continue
			}
			k.bind(i)
			if k.filter != nil {
				x = k.admitted(wi*64, x, edges)
			}
			for ; x != 0; x &= x - 1 {
				b := bits.TrailingZeros64(x)
				c := k.code(wi*64+b, edges)
				if c < 0 {
					continue
				}
				st := seen.Ref(c)
				if st.gen != sc.gen {
					*st = wordStamp{gen: sc.gen}
				}
				if st.mask&(1<<b) == 0 {
					st.mask |= 1 << b
					*w.Ref(c)++
				}
			}
		}
	}
	return true
}
