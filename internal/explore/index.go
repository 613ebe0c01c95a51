package explore

import (
	"fmt"

	"repro/internal/agg"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/evolution"
	"repro/internal/ops"
)

// EdgeIndex accelerates exploration when the result function counts one
// aggregate edge on an all-static schema with Distinct semantics — exactly
// the paper's §5.2 setting (distinct female-female edges).
//
// It reads, per base time point, the bitset of edge ids existing at that
// point from the graph's shared point index, and precomputes the
// time-independent bitset of edge ids whose endpoint tuples match the
// target. result(G) for any exploration pair then reduces
// to popcounts of word-parallel AND/OR combinations, avoiding the per-pair
// view construction and hash-map aggregation of the general path:
//
//	stability(old, new) = |match ∧ S(old) ∧ S(new)|
//	growth(old, new)    = |match ∧ S(new) ∧ ¬S(old)|
//	shrinkage(old, new) = |match ∧ S(old) ∧ ¬S(new)|
//
// where S(sel) is the selector's fold of the per-point masks (ops.Sel.Over).
// The speedup over the general evaluator is measured by
// BenchmarkAblationEdgeIndex.
type EdgeIndex struct {
	g      *core.Graph
	points *core.PointIndex // edges existing at each base time point
	match  *bitset.Set      // edges whose endpoint tuples match the target
}

// NewEdgeIndex builds the index for the aggregate edge (from → to) under
// schema s. The schema must be all-static: with time-varying attributes an
// edge's tuple pair depends on the time point and a single match mask does
// not exist.
func NewEdgeIndex(s *agg.Schema, from, to []string) (*EdgeIndex, error) {
	if !s.AllStatic() {
		return nil, fmt.Errorf("explore: EdgeIndex requires an all-static schema")
	}
	fromTu, ok1 := s.Encode(from...)
	toTu, ok2 := s.Encode(to...)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("explore: edge tuple %v→%v not in attribute domain", from, to)
	}
	g := s.Graph()
	ix := &EdgeIndex{g: g, points: g.PointIndex(), match: bitset.New(g.NumEdges())}
	for e := 0; e < g.NumEdges(); e++ {
		ep := g.Edge(core.EdgeID(e))
		fu, okU := s.StaticTuple(ep.U)
		tu, okV := s.StaticTuple(ep.V)
		if okU && okV && fu == fromTu && tu == toTu {
			ix.match.Add(e)
		}
	}
	return ix, nil
}

// Eval returns the distinct count of matching edges for the event between
// the two selectors — identical to the general evaluator with an
// EdgeTuple result function and Distinct counting.
func (ix *EdgeIndex) Eval(event Event, old, new ops.Sel) int64 {
	sOld := old.Over(ix.points.EdgesAt, ix.g.NumEdges())
	sNew := new.Over(ix.points.EdgesAt, ix.g.NumEdges())
	switch event {
	case evolution.Stability:
		sOld.AndWith(sNew)
		return int64(sOld.CountAnd(ix.match))
	case evolution.Growth:
		combined := sNew.AndNot(sOld)
		return int64(combined.CountAnd(ix.match))
	case evolution.Shrinkage:
		combined := sOld.AndNot(sNew)
		return int64(combined.CountAnd(ix.match))
	default:
		panic("explore: unknown event")
	}
}

// NewIndexedExplorer returns an Explorer whose evaluations go through an
// EdgeIndex instead of view construction + aggregation. It is
// behaviourally identical to
//
//	ex := &Explorer{Graph: g, Schema: s, Kind: agg.Distinct, Result: EdgeTuple(s, from, to)}
//
// but evaluates each candidate pair with a handful of bitset operations.
func NewIndexedExplorer(s *agg.Schema, from, to []string) (*Explorer, error) {
	ix, err := NewEdgeIndex(s, from, to)
	if err != nil {
		return nil, err
	}
	result, err := EdgeTuple(s, from, to)
	if err != nil {
		return nil, err
	}
	return &Explorer{
		Graph:  s.Graph(),
		Schema: s,
		Kind:   agg.Distinct,
		Result: result, // kept for introspection; eval uses the index
		index:  ix,
	}, nil
}
