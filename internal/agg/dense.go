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

// This file implements the dense aggregation kernel: the hot-path engine
// behind Aggregate for schemas whose cartesian tuple domain is small.
//
// The map engine (agg.go) pays a hash insert per appearance plus a map
// allocation per entity for DIST deduplication, and materializes a
// restricted-timestamp bitset per entity on the per-time-point path. The
// tuple space of the paper's workloads is tiny and dictionary-encoded
// (gender = 2, gender×publications ≈ 40, the largest MovieLens pair
// combinations a few hundred), so the accumulators can instead be flat
// []int64 arrays indexed by the dense mixed-radix tuple code — node weights
// by tuple, edge weights by from*Domain+to — with O(1) unhashed updates and
// nothing allocated per entity. The arrays are pooled per schema, making
// repeated Aggregate calls allocation-free apart from the exactly-sized
// result maps.
//
// Static schemas take one tuple per node (denseStatic). Time-varying schemas
// are read the way Algorithm 2 unpivots the node × time attribute arrays —
// by time column (denseVarying): for each point of the view's interval the
// kernel streams the words of the point's existence column ∧ the view's
// selection and decodes tuples from that point's attribute rows, which stay
// cache-resident through the whole pass, instead of walking each entity's τ
// into a |V|·T table.
//
// Exploration (internal/explore) is the workload this exists for: every
// candidate interval pair costs one aggregation, and Figs. 13–14 evaluate
// hundreds of pairs per traversal.

// DenseDomainLimit bounds the tuple domains served by the dense kernel.
// Above it (e.g. the 4-attribute MovieLens combination, domain ≈ 10k, whose
// edge space would be ~10^8 slots) Aggregate falls back to the map engine.
// 1024 caps the pooled edge array at 1024² slots = 8 MiB.
const DenseDomainLimit = 1024

// denseEligible reports whether the dense kernel serves this schema.
func (s *Schema) denseEligible() bool {
	return !s.preferMap && s.domain > 0 && s.domain <= DenseDomainLimit
}

// PreferMapKernel pins the schema to the map kernels even when the tuple
// domain is small enough for the dense flat-array kernel. The query
// planner's feedback loop calls it when observed cardinalities show the
// domain is sparsely occupied (the d² edge slot space dwarfs the data), so
// the dense arrays' allocation and clearing cost cannot amortize. Must be
// set before the schema's first Aggregate use; both kernels produce
// identical results, so the switch only ever trades performance.
func (s *Schema) PreferMapKernel() { s.preferMap = true }

// KernelName reports which aggregation kernel Aggregate would select for
// this schema: "dense" (flat-array accumulators), "static" (map kernel over
// time-invariant tuples) or "varying" (general map kernel). It mirrors the
// dispatch in aggregateRangeCtx so the query planner can name the engine a
// plan will run on without executing it.
func (s *Schema) KernelName() string {
	switch {
	case s.denseEligible():
		return "dense"
	case s.allStatic:
		return "static"
	default:
		return "varying"
	}
}

// denseScratch is one pooled set of flat accumulators for a schema.
// nodeW/edgeW hold in-flight weights; nodeSeen/edgeSeen are the DIST
// deduplication stamps (an entry equal to the current gen was seen for the
// current entity); the touched lists record which slots are non-zero so
// clearing is O(distinct tuples), not O(domain²).
type denseScratch struct {
	nodeW []int64
	edgeW []int64

	nodeSeen []int32
	edgeSeen []int32
	gen      int32

	nodeTouched []int32
	edgeTouched []int32

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
// kernel (internal/evolution/sweep.go), whose flat accumulators are sized
// by this schema's domain and so live and die with it, like denseScratch.
func (s *Schema) SweepPool() *sync.Pool { return &s.sweep }

// getScratch returns a scratch with cleared weights sized for the schema.
func (s *Schema) getScratch() *denseScratch {
	d := int(s.domain)
	sc, _ := s.dense.Get().(*denseScratch)
	if sc == nil {
		sc = &denseScratch{
			nodeW:    make([]int64, d),
			edgeW:    make([]int64, d*d),
			nodeSeen: make([]int32, d),
			edgeSeen: make([]int32, d*d),
		}
	}
	if sc.gen > 1<<30 { // stamp wrap guard; effectively never taken
		clear(sc.nodeSeen)
		clear(sc.edgeSeen)
		sc.gen = 0
	}
	return sc
}

// putScratch zeroes the touched weights and returns the scratch to the pool.
func (s *Schema) putScratch(sc *denseScratch) {
	for _, c := range sc.nodeTouched {
		sc.nodeW[c] = 0
	}
	for _, c := range sc.edgeTouched {
		sc.edgeW[c] = 0
	}
	sc.nodeTouched = sc.nodeTouched[:0]
	sc.edgeTouched = sc.edgeTouched[:0]
	s.dense.Put(sc)
}

// addNode adds weight w to node tuple tu, addEdge to the edge slot code.
func (sc *denseScratch) addNode(tu int32, w int64) {
	if sc.nodeW[tu] == 0 {
		sc.nodeTouched = append(sc.nodeTouched, tu)
	}
	sc.nodeW[tu] += w
}

func (sc *denseScratch) addEdge(code int32, w int64) {
	if sc.edgeW[code] == 0 {
		sc.edgeTouched = append(sc.edgeTouched, code)
	}
	sc.edgeW[code] += w
}

// StaticTupleCodes lazily builds the per-node dense tuple codes of an
// all-static schema (-1 where any attribute value is missing). Built once
// per schema; safe for concurrent readers, who must not modify it. It
// requires Domain() ≤ DenseDomainLimit (the codes are int32).
func (s *Schema) StaticTupleCodes() []int32 {
	s.staticOnce.Do(func() {
		codes := make([]int32, s.g.NumNodes())
		for n := range codes {
			if tu, ok := s.StaticTuple(core.NodeID(n)); ok {
				codes[n] = int32(tu)
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

// denseStatic is the §4.2 static fast path on flat arrays: one tuple per
// node, weights 1 (DIST) or the restricted-timestamp popcount (ALL).
func denseStatic(v *ops.View, s *Schema, kind Kind, sc *denseScratch, nLo, nHi, eLo, eHi int) {
	codes := s.StaticTupleCodes()
	d := int32(s.domain)
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
		sc.addNode(c, w)
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
		sc.addEdge(cu*d+cv, w)
	})
}

// denseVarying is the time-major kernel for time-varying (and mixed)
// schemas over the view's entities with ids in [nLo,nHi) / [eLo,eHi). For
// each point t of the view's interval it streams the words of
// NodesAt(t) ∧ view.nodes and EdgesAt(t) ∧ view.edges and decodes each
// appearance's tuple from the columns bound to t: row t of every varying
// attribute plus the static columns, resolved once per call — no
// Graph.Value dispatch per appearance.
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
func denseVarying(v *ops.View, s *Schema, kind Kind, sc *denseScratch, nLo, nHi, eLo, eHi int, canceled func() bool) bool {
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
		times: v.Times().Mask(), dist: kind == Distinct, canceled: canceled}
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
	times    *bitset.Set // the view's interval, non-empty
	tLo, tHi int         // the words of times that can hold a point
	dist     bool
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

// count adds one appearance at the bound point for every entity in word x
// of the id space (bit b is id base+b).
func (k *varyingScan) count(base int, x uint64, edges bool) {
	sc, g, d := k.sc, k.s.g, k.s.domain
	for ; x != 0; x &= x - 1 {
		id := base + bits.TrailingZeros64(x)
		if !edges {
			if tu := k.tuple(core.NodeID(id)); tu >= 0 {
				sc.addNode(int32(tu), 1)
			}
			continue
		}
		ep := g.Edge(core.EdgeID(id))
		if fu, tu := k.tuple(ep.U), k.tuple(ep.V); fu >= 0 && tu >= 0 {
			sc.addEdge(int32(fu*d+tu), 1)
		}
	}
}

// dedupe is DIST for one entity that appears at several points of the
// interval: it walks the entity's restricted timestamp and counts each
// distinct tuple (pair) once, stamping what the entity has exhibited.
func (k *varyingScan) dedupe(id int, edges bool) {
	sc, g, d := k.sc, k.s.g, k.s.domain
	sc.gen++
	var ep core.Endpoints
	var tau *bitset.Set
	if edges {
		ep, tau = g.Edge(core.EdgeID(id)), g.EdgeTau(core.EdgeID(id))
	} else {
		tau = g.NodeTau(core.NodeID(id))
	}
	for wi, hi := k.tLo, min(k.tHi, tau.NumWords()); wi < hi; wi++ {
		for w := tau.Word(wi) & k.times.Word(wi); w != 0; w &= w - 1 {
			k.bind(wi*64 + bits.TrailingZeros64(w))
			if !edges {
				if tu := k.tuple(core.NodeID(id)); tu >= 0 && sc.nodeSeen[tu] != sc.gen {
					sc.nodeSeen[tu] = sc.gen
					sc.addNode(int32(tu), 1)
				}
				continue
			}
			fu, tu := k.tuple(ep.U), k.tuple(ep.V)
			if code := fu*d + tu; fu >= 0 && tu >= 0 && sc.edgeSeen[code] != sc.gen {
				sc.edgeSeen[code] = sc.gen
				sc.addEdge(int32(code), 1)
			}
		}
	}
}
