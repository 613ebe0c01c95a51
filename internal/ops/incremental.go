package ops

import (
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/timeline"
)

// This file implements incremental interval views: the exploration fast
// path that replaces per-candidate entity scans with word-level bitset
// deltas.
//
// The operator constructors in ops.go and select.go fold every column of
// their intervals per call — |T|·(|V|+|E|)/64 word operations into freshly
// allocated selections. The exploration traversals of §3 evaluate chains of
// candidate pairs that differ by a single time point (T ∪ {t} or T ∩
// semantics extended by t), so the entity selection of step i+1 is one
// OrWith/AndWith of one column away from step i. An IncrementalView
// maintains a side's accumulated selection in place over the same
// core.PointIndex columns, and a PairView combines two sides into
// stability or difference views in reused buffers — the same column
// algebra, without the refold and without the allocations.

// IncrementalView is one side of an exploration candidate pair: an interval
// together with the accumulated node/edge selection of the entities that
// exist in it under the side's semantics (at ≥1 point for union extension,
// at every point for intersection extension). Extending the interval by
// one time point updates the selection in place with a single word-level
// OrWith/AndWith pass instead of re-scanning all entities.
//
// An IncrementalView is reusable: Reset re-anchors it at a single point
// without reallocating. It is not safe for concurrent mutation.
type IncrementalView struct {
	g  *core.Graph
	ix *core.PointIndex
	// nodes/edges are the anchor point's index columns, read in place, until
	// the first extension moves them into ownNodes/ownEdges, which are
	// allocated then and reused after every later Reset.
	nodes, edges       *bitset.Set
	ownNodes, ownEdges *bitset.Set
	times              timeline.Interval
}

// NewIncrementalView returns a view over g anchored at the single point t,
// reading g's shared point index.
func NewIncrementalView(g *core.Graph, t timeline.Time) *IncrementalView {
	iv := &IncrementalView{g: g, ix: g.PointIndex()}
	iv.Reset(t)
	return iv
}

// Reset re-anchors the view at the single point t. While t's columns span
// the id space (a frozen shorter column is copied, zero-padded) the view
// reads them in place: a side that is never extended copies and allocates
// nothing.
func (iv *IncrementalView) Reset(t timeline.Time) {
	iv.nodes, iv.edges = iv.ix.NodesAt(t), iv.ix.EdgesAt(t)
	if iv.nodes.Len() != iv.g.NumNodes() || iv.edges.Len() != iv.g.NumEdges() {
		iv.writable()
	}
	iv.times = iv.g.Timeline().Point(t)
}

// writable moves the selection into the view's own buffers before an
// in-place update: the index columns are shared by every reader.
func (iv *IncrementalView) writable() {
	if iv.ownNodes == nil {
		iv.ownNodes, iv.ownEdges = bitset.New(iv.g.NumNodes()), bitset.New(iv.g.NumEdges())
	}
	if iv.nodes != iv.ownNodes {
		iv.ownNodes.CopyFrom(iv.nodes)
		iv.ownEdges.CopyFrom(iv.edges)
		iv.nodes, iv.edges = iv.ownNodes, iv.ownEdges
	}
}

// ExtendUnion adds time point t under union semantics (Exists): the
// selection grows to entities existing at ≥1 point of the extended
// interval. Equivalent to rebuilding with Exists(times ∪ {t}).
func (iv *IncrementalView) ExtendUnion(t timeline.Time) {
	iv.writable()
	iv.nodes.OrWith(iv.ix.NodesAt(t))
	iv.edges.OrWith(iv.ix.EdgesAt(t))
	iv.times = iv.times.Union(iv.g.Timeline().Point(t))
}

// ExtendIntersect adds time point t under intersection semantics (ForAll):
// the selection shrinks to entities existing at every point of the
// extended interval. Equivalent to rebuilding with ForAll(times ∪ {t}).
func (iv *IncrementalView) ExtendIntersect(t timeline.Time) {
	iv.writable()
	iv.nodes.AndWith(iv.ix.NodesAt(t))
	iv.edges.AndWith(iv.ix.EdgesAt(t))
	iv.times = iv.times.Union(iv.g.Timeline().Point(t))
}

// Interval returns the accumulated interval.
func (iv *IncrementalView) Interval() timeline.Interval { return iv.times }

// Nodes returns the accumulated node selection. Callers must not modify it
// and must not retain it across Extend/Reset calls.
func (iv *IncrementalView) Nodes() *bitset.Set { return iv.nodes }

// Edges returns the accumulated edge selection, under the same aliasing
// rules as Nodes.
func (iv *IncrementalView) Edges() *bitset.Set { return iv.edges }

// View returns the selection as an ops.View over the accumulated interval.
// The view aliases the IncrementalView's bitsets: it is valid until the
// next Extend/Reset call.
func (iv *IncrementalView) View() *View {
	return &View{g: iv.g, nodes: iv.nodes, edges: iv.edges, times: iv.times}
}

// PairView combines two IncrementalViews into the stability or difference
// view of a candidate pair, reusing one set of output buffers across
// calls. The returned *View aliases those buffers: it is valid until the
// next Stability/Difference call on the same PairView. One PairView per
// worker makes candidate evaluation allocation-free.
type PairView struct {
	g      *core.Graph
	nodes  *bitset.Set
	edges  *bitset.Set
	rescue *rescue // nil: edges only
	view   View
}

// NewPairView returns a reusable pair combiner for views over g.
func NewPairView(g *core.Graph) *PairView {
	pv := NewEdgePairView(g)
	pv.rescue = newRescue(g)
	return pv
}

// NewEdgePairView returns a pair combiner that selects edges alone: its
// views have an empty node selection, so a difference skips Definition
// 2.5's rescue pass. It serves readers that weigh edges only — an
// aggregation's edge side reads its endpoints' tuples from the graph, not
// from the view's nodes.
func NewEdgePairView(g *core.Graph) *PairView {
	return &PairView{g: g, nodes: bitset.New(g.NumNodes()), edges: bitset.New(g.NumEdges())}
}

// Stability combines the two sides into the stability view — entities
// selected by both — with timestamps restricted to the union of the two
// intervals, exactly as StabilityView(g, old, new) with the corresponding
// selectors (Definition 2.4 generalized to §3.1 semantics).
func (pv *PairView) Stability(old, new *IncrementalView) *View {
	if pv.rescue != nil {
		pv.nodes.SetAnd(old.nodes, new.nodes)
	}
	pv.edges.SetAnd(old.edges, new.edges)
	pv.view = View{g: pv.g, nodes: pv.nodes, edges: pv.edges, times: old.times.Union(new.times)}
	return &pv.view
}

// Difference combines the two sides into the difference view pos − neg
// (Definition 2.5 generalized to §3.1 semantics): edges selected by pos but
// not by neg; nodes selected by pos and either not selected by neg or an
// endpoint of a kept edge; timestamps restricted to pos's interval.
// Identical to DifferenceView(g, pos, neg) with the corresponding
// selectors.
func (pv *PairView) Difference(pos, neg *IncrementalView) *View {
	pv.edges.CopyFrom(pos.edges)
	pv.edges.AndNotWith(neg.edges)
	if pv.rescue != nil {
		pv.nodes.SetAndNotOr(pos.nodes, neg.nodes, pv.rescue.endpoints(pv.edges))
	}
	pv.view = View{g: pv.g, nodes: pv.nodes, edges: pv.edges, times: pos.times}
	return &pv.view
}
