package explore

import (
	"fmt"

	"repro/internal/agg"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/evolution"
	"repro/internal/ops"
)

// NodeIndex is the node-counting counterpart of EdgeIndex: it accelerates
// exploration when the result function counts one aggregate NODE tuple on
// an all-static schema with Distinct semantics.
//
// Stability reduces to pure mask arithmetic. The difference events carry
// Definition 2.5's extra rule — a node that still exists in the subtracted
// interval is kept when it is an endpoint of a removed/added edge — so
// their evaluation combines the node masks with an endpoint sweep over the
// edge-difference mask (still far cheaper than view + hash aggregation).
type NodeIndex struct {
	g      *core.Graph
	points *core.PointIndex // nodes and edges existing at each base time point
	match  *bitset.Set      // nodes whose static tuple matches the target
}

// NewNodeIndex builds the index for the aggregate node tuple values under
// schema s. The schema must be all-static.
func NewNodeIndex(s *agg.Schema, values ...string) (*NodeIndex, error) {
	if !s.AllStatic() {
		return nil, fmt.Errorf("explore: NodeIndex requires an all-static schema")
	}
	target, ok := s.Encode(values...)
	if !ok {
		return nil, fmt.Errorf("explore: tuple %v not in attribute domain", values)
	}
	g := s.Graph()
	ix := &NodeIndex{g: g, points: g.PointIndex(), match: bitset.New(g.NumNodes())}
	for n := 0; n < g.NumNodes(); n++ {
		if tu, ok := s.StaticTuple(core.NodeID(n)); ok && tu == target {
			ix.match.Add(n)
		}
	}
	return ix, nil
}

// Eval returns the distinct count of matching nodes for the event between
// the two selectors, identical to the general evaluator with a NodeTuple
// result and Distinct counting.
func (ix *NodeIndex) Eval(event Event, old, new ops.Sel) int64 {
	nOld := old.Over(ix.points.NodesAt, ix.g.NumNodes())
	nNew := new.Over(ix.points.NodesAt, ix.g.NumNodes())
	switch event {
	case evolution.Stability:
		nOld.AndWith(nNew)
		return int64(nOld.CountAnd(ix.match))
	case evolution.Growth:
		return ix.evalDifference(new, old, nNew, nOld)
	case evolution.Shrinkage:
		return ix.evalDifference(old, new, nOld, nNew)
	default:
		panic("explore: unknown event")
	}
}

// evalDifference counts matching nodes of the difference pos − neg:
// nodes existing in pos that either do not exist in neg or are endpoints
// of a difference edge (Definition 2.5).
func (ix *NodeIndex) evalDifference(pos, neg ops.Sel, nPos, nNeg *bitset.Set) int64 {
	kept := nPos.AndNot(nNeg)
	ePos := pos.Over(ix.points.EdgesAt, ix.g.NumEdges())
	eNeg := neg.Over(ix.points.EdgesAt, ix.g.NumEdges())
	ePos.ForEach(func(e int) {
		if eNeg.Contains(e) {
			return
		}
		ep := ix.g.Edge(core.EdgeID(e))
		if nPos.Contains(int(ep.U)) {
			kept.Add(int(ep.U))
		}
		if nPos.Contains(int(ep.V)) {
			kept.Add(int(ep.V))
		}
	})
	return int64(kept.CountAnd(ix.match))
}

// NewNodeIndexedExplorer returns an Explorer whose evaluations count the
// given aggregate node tuple through a NodeIndex.
func NewNodeIndexedExplorer(s *agg.Schema, values ...string) (*Explorer, error) {
	ix, err := NewNodeIndex(s, values...)
	if err != nil {
		return nil, err
	}
	result, err := NodeTuple(s, values...)
	if err != nil {
		return nil, err
	}
	return &Explorer{
		Graph:     s.Graph(),
		Schema:    s,
		Kind:      agg.Distinct,
		Result:    result, // kept for introspection; eval uses the index
		nodeIndex: ix,
	}, nil
}
