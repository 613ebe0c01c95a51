package agg

import (
	"sync"

	"repro/internal/core"
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
// by tuple, edge weights by from*Domain+to — with O(1) unhashed updates,
// epoch-stamped per-entity deduplication, and word-level timestamp
// iteration (bitset.ForEachAnd) that allocates nothing. The arrays are
// pooled per schema, making repeated Aggregate calls allocation-free apart
// from the exactly-sized result maps.
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

// aggregateDense runs the dense kernel over the view's entities with ids in
// [nLo,nHi) / [eLo,eHi) and stores exactly-sized result maps into ag. The
// id ranges let AggregateParallel shard the same kernel.
func aggregateDense(v *ops.View, s *Schema, kind Kind, ag *Graph, nLo, nHi, eLo, eHi int) {
	sc := s.getScratch()
	if s.allStatic {
		denseStatic(v, s, kind, sc, nLo, nHi, eLo, eHi)
	} else {
		denseVarying(v, s, kind, sc, nLo, nHi, eLo, eHi)
	}
	d := int64(s.domain)
	ag.Nodes = make(map[Tuple]int64, len(sc.nodeTouched))
	for _, c := range sc.nodeTouched {
		ag.Nodes[Tuple(c)] = sc.nodeW[c]
	}
	ag.Edges = make(map[EdgeKey]int64, len(sc.edgeTouched))
	for _, c := range sc.edgeTouched {
		code := int64(c)
		ag.Edges[EdgeKey{Tuple(code / d), Tuple(code % d)}] = sc.edgeW[c]
	}
	s.putScratch(sc)
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
		if sc.nodeW[c] == 0 {
			sc.nodeTouched = append(sc.nodeTouched, c)
		}
		sc.nodeW[c] += w
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
		code := cu*d + cv
		if sc.edgeW[code] == 0 {
			sc.edgeTouched = append(sc.edgeTouched, code)
		}
		sc.edgeW[code] += w
	})
}

// denseVarying handles time-varying schemas: tuples are collected per time
// point of each entity's restricted timestamp through the view's
// word-level iteration (no bitset materialization); DIST deduplicates per
// entity with generation stamps instead of per-entity maps.
func denseVarying(v *ops.View, s *Schema, kind Kind, sc *denseScratch, nLo, nHi, eLo, eHi int) {
	g := s.g
	dist := kind == Distinct
	v.ForEachNodeIn(nLo, nHi, func(n core.NodeID) {
		sc.gen++
		v.ForEachNodeTime(n, func(t int) {
			tu, ok := s.TupleAt(n, timeline.Time(t))
			if !ok {
				return
			}
			if dist {
				if sc.nodeSeen[tu] == sc.gen {
					return
				}
				sc.nodeSeen[tu] = sc.gen
			}
			if sc.nodeW[tu] == 0 {
				sc.nodeTouched = append(sc.nodeTouched, int32(tu))
			}
			sc.nodeW[tu]++
		})
	})
	d := int64(s.domain)
	v.ForEachEdgeIn(eLo, eHi, func(e core.EdgeID) {
		sc.gen++
		ep := g.Edge(e)
		v.ForEachEdgeTime(e, func(t int) {
			fu, ok1 := s.TupleAt(ep.U, timeline.Time(t))
			tu, ok2 := s.TupleAt(ep.V, timeline.Time(t))
			if !ok1 || !ok2 {
				return
			}
			code := int64(fu)*d + int64(tu)
			if dist {
				if sc.edgeSeen[code] == sc.gen {
					return
				}
				sc.edgeSeen[code] = sc.gen
			}
			if sc.edgeW[code] == 0 {
				sc.edgeTouched = append(sc.edgeTouched, int32(code))
			}
			sc.edgeW[code]++
		})
	})
}
