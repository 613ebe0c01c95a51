package agg

import (
	"math/bits"
	"slices"
	"sync"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/ops"
	"repro/internal/timeline"
)

// This file implements the aggregation kernels behind Aggregate,
// AggregateParallelCtx and AggregateFiltered, for every schema. Tuples are
// mixed-radix codes, so the accumulators are indexed by code — node weights
// by tuple, edge weights by from·Domain+to — unhashed and pooled per schema
// (Accum). A schema decodes row t of its tuple codes (Codes) once per point;
// an all-static schema has one row and one tuple per node (denseStatic).
//
// Time-varying schemas, and filtered aggregation under any schema, are read
// by time column (denseVarying), the way Algorithm 2 unpivots the node ×
// time attribute arrays. A point's tuples never change, so the unpivot and
// group-by live in a scan record per (schema, point, side) (pointScan),
// built under codesMu after the scan loaded the point's row (Codes takes
// that lock): the span of the words holding the point's singles — entities
// existing at no other point — on first use; their aggregate when an
// unfiltered view selects them all; and on the first DIST scan, the
// column's multi-appearance entities (only those: single edges, 86 % of
// DBLP's edge appearances, would fill every group list) grouped per word by
// code. DIST stamps per code the bits a group already counted (dedupe); ALL
// adds popcount(group ∧ word), or streams per appearance while the point has
// no groups, so a graph read once (a stream generation) never builds them.
// A record costs 16 B per group and code of singles and 4 B per column word
// (DBLP ×1 (gender, publications): ~1.5 MB), counted in TupleRowBytes and
// dropped by ReleaseRows.
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
	// points of the view's interval, rows their tuple codes, cols and recs
	// the scanned side's columns and scan records there; words are the
	// selection's non-zero words in the scanned id range, multi/single their
	// entities in and out of the multi-appearance set, absorbed whether the
	// view takes a point's singles' aggregate; groups is a record's buffer.
	ts            []timeline.Time
	rows          [][]int64
	cols          []*bitset.Set
	recs          []*pointScan
	words         []int32
	multi, single []uint64
	absorbed      []bool
	groups        []group
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

// denseVarying is the time-major kernel over the view's entities with ids
// in [nLo,nHi) / [eLo,eHi): per point t of the view's interval, the words
// of NodesAt(t) ∧ view.nodes and EdgesAt(t) ∧ view.edges against t's scan
// records. A filter clears the appearances it rejects (an edge's needs both
// ends) per (point, word); over one point DIST counts as ALL. canceled is
// probed every ctxChunk ids' worth of words; false means it stopped early.
func denseVarying(v *ops.View, s *Schema, kind Kind, filter Filter, sc *denseScratch, nLo, nHi, eLo, eHi int, canceled func() bool) bool {
	times := v.Times().Mask()
	if times == nil {
		return true
	}
	sc.ts, sc.rows = sc.ts[:0], sc.rows[:0]
	for t := times.Next(0); t >= 0; t = times.Next(t + 1) {
		sc.ts, sc.rows = append(sc.ts, timeline.Time(t)), append(sc.rows, s.Codes(timeline.Time(t)))
	}
	k := varyingScan{s: s, sc: sc, dist: kind == Distinct && len(sc.ts) > 1, filter: filter, canceled: canceled}
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
	sc.words, sc.multi, sc.single = sc.words[:0], sc.multi[:0], sc.single[:0]
	for wi := lo / 64; wi*64 < hi; wi++ {
		if w := sel.WordIn(wi, lo, hi); w != 0 {
			m := multi.Word(wi)
			sc.words, sc.multi, sc.single = append(sc.words, int32(wi)), append(sc.multi, w&m), append(sc.single, w&^m)
		}
	}
	owner := lo == 0 && hi > 0
	if len(sc.ts) == 0 || len(sc.words) == 0 && !owner {
		return true
	}
	// Records are built while the side's accumulator is empty. Whether the
	// view takes a point's singles reads their span: every range agrees.
	sc.cols, sc.recs, sc.absorbed = sc.cols[:0], sc.recs[:0], sc.absorbed[:0]
	for i, t := range sc.ts {
		k.bind(i)
		col := at(t)
		rec := k.record(col, multi, edges, false)
		absorbed := k.filter == nil
		for wi := rec.lo; absorbed && wi <= rec.hi; wi++ {
			absorbed = col.Word(wi)&^multi.Word(wi)&^sel.Word(wi) == 0
		}
		if absorbed && owner {
			rec = k.record(col, multi, edges, true)
		}
		sc.cols, sc.recs, sc.absorbed = append(sc.cols, col), append(sc.recs, rec), append(sc.absorbed, absorbed)
	}
	w := &sc.nodes
	if edges {
		w = &sc.edges
	}
	for i, col := range sc.cols {
		absorbed, rec := sc.absorbed[i], sc.recs[i]
		if absorbed && owner {
			for _, g := range rec.singles {
				*w.Ref(g[0]) += g[1]
			}
		}
		if absorbed && k.dist {
			continue
		}
		k.bind(i)
		nw := int32(col.NumWords())
		for j, wi := range sc.words {
			if wi >= nw {
				break
			}
			if j%probeWords == 0 && k.canceled() {
				return false
			}
			base, x := int(wi)*64, col.Word(int(wi))
			if y := x & sc.single[j]; y != 0 && !absorbed {
				k.count(w, base, k.admitted(base, y, edges), edges)
			}
			if y := x & sc.multi[j]; y != 0 && !k.dist && rec.start == nil {
				k.count(w, base, k.admitted(base, y, edges), edges)
			} else if y != 0 && !k.dist {
				y = k.admitted(base, y, edges)
				for _, g := range rec.word(int(wi)) {
					if n := bits.OnesCount64(g.mask & y); n != 0 {
						*w.Ref(g.code) += int64(n)
					}
				}
			}
		}
	}
	return !k.dist || k.dedupe(edges)
}

// pointScan is a scan record: [lo, hi] holds the column's singles (lo > hi:
// none), singles is their aggregate (code, count) once built, and once
// grouped, word wi's groups are groups[start[wi]:start[wi+1]].
type pointScan struct {
	singles [][2]int64
	lo, hi  int
	start   []int32
	groups  []group
}

// group is the entities of one word (a mask) that share a code.
type group struct {
	code int64
	mask uint64
}

func (p *pointScan) word(wi int) []group { return p.groups[p.start[wi]:p.start[wi+1]] }

// bytes is the record's resident size, as TupleRowBytes counts it.
func (p *pointScan) bytes() int64 {
	return int64(len(p.singles))*16 + int64(len(p.start))*4 + int64(len(p.groups))*16
}

// record returns the bound point's record on one side (column col),
// building under codesMu what is missing: the span on first use, the
// singles' aggregate when singles is set (in the side's scratch
// accumulator, empty before and after), the groups on the first DIST scan
// (probing a word's groups linearly). Callers must not modify it.
func (k *varyingScan) record(col, multi *bitset.Set, edges, singles bool) *pointScan {
	s, side, w := k.s, 0, &k.sc.nodes
	if edges {
		side, w = 1, &k.sc.edges
	}
	slot := &s.scans[side][k.t]
	if p := slot.Load(); p != nil && (p.singles != nil || !singles) && (p.start != nil || !k.dist) {
		return p
	}
	s.codesMu.Lock()
	defer s.codesMu.Unlock()
	p, nw := slot.Load(), col.NumWords()
	if p != nil && (p.singles != nil || !singles) && (p.start != nil || !k.dist) {
		return p
	}
	q := &pointScan{lo: nw, hi: -1}
	if p == nil {
		p = &pointScan{}
		for wi := range nw {
			if col.Word(wi)&^multi.Word(wi) != 0 {
				q.lo, q.hi = min(q.lo, wi), wi
			}
		}
	} else {
		*q = *p
	}
	if singles && q.singles == nil {
		for wi := q.lo; wi <= q.hi; wi++ {
			k.count(w, wi*64, col.Word(wi)&^multi.Word(wi), edges)
		}
		q.singles = make([][2]int64, w.Len())
		for i := range q.singles {
			q.singles[i][0], q.singles[i][1] = w.Entry(i)
		}
		w.Reset()
	}
	if k.dist && q.start == nil {
		q.start = make([]int32, nw+1)
		gs := k.sc.groups[:0]
		for wi := range nw {
			q.start[wi] = int32(len(gs))
			for y := col.Word(wi) & multi.Word(wi); y != 0; y &= y - 1 {
				b := bits.TrailingZeros64(y)
				c := k.code(wi*64+b, edges)
				if i := slices.IndexFunc(gs[q.start[wi]:], func(g group) bool { return g.code == c }); i >= 0 {
					gs[int(q.start[wi])+i].mask |= 1 << b
				} else if c >= 0 {
					gs = append(gs, group{c, 1 << b})
				}
			}
		}
		q.start[nw] = int32(len(gs))
		q.groups, k.sc.groups = slices.Clone(gs), gs
	}
	slot.Store(q)
	tableOf(s.g).bytes.Add(q.bytes() - p.bytes())
	return q
}

// bind makes the i-th point of the interval the one read.
func (k *varyingScan) bind(i int) { k.t, k.row = k.sc.ts[i], k.sc.rows[i] }

// code returns entity id's code at the bound point, where it exists — a
// node's tuple, an edge's from·Domain+to — or -1 when a tuple is missing.
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

// admitted clears from word x of the id space the entities whose appearance
// at the bound point the filter rejects (an edge's needs both endpoints
// kept), so that the per-appearance and per-group loops read no filter.
func (k *varyingScan) admitted(base int, x uint64, edges bool) uint64 {
	for y := x; y != 0 && k.filter != nil; y &= y - 1 {
		b := bits.TrailingZeros64(y)
		u, v := core.NodeID(base+b), core.NodeID(base+b)
		if edges {
			ep := k.s.g.Edge(core.EdgeID(base + b))
			u, v = ep.U, ep.V
		}
		if !k.filter(u, k.t) || v != u && !k.filter(v, k.t) {
			x &^= 1 << b
		}
	}
	return x
}

// count adds to w one appearance at the bound point for every entity in
// word x of the id space (bit b is id base+b) that has a tuple there.
func (k *varyingScan) count(w *Accum[int64], base int, x uint64, edges bool) {
	for ; x != 0; x &= x - 1 {
		if c := k.code(base+bits.TrailingZeros64(x), edges); c >= 0 {
			*w.Ref(c)++
		}
	}
}

// dedupe is DIST for the selected multi-appearance entities, 64 at a time:
// per point it meets the column word with the record's groups of the word
// and, per code, stamps the bits already counted, so each (entity, tuple)
// pair counts once. canceled is probed about every ctxChunk ids' worth of
// column words.
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
			x = k.admitted(wi*64, x, edges)
			for _, g := range sc.recs[i].word(wi) {
				nb := g.mask & x
				if nb == 0 {
					continue
				}
				st := seen.Ref(g.code)
				if st.gen != sc.gen {
					*st = wordStamp{gen: sc.gen}
				}
				if nb &^= st.mask; nb != 0 {
					st.mask |= nb
					*w.Ref(g.code) += int64(bits.OnesCount64(nb))
				}
			}
		}
	}
	return true
}
