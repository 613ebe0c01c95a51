// Package ops implements the GraphTempo temporal operators (§2.1, §4.1):
// time projection, union, intersection and difference.
//
// Each operator yields a View — a selection of nodes and edges of the base
// graph together with the time mask over which attribute values are
// collected. The selection is computed the way the paper's Algorithm 1
// reads its arrays, by time column: every operator is a word-parallel
// combination of the graph's per-point existence columns (core.PointIndex)
// under a selector (select.go) — (|T1|+|T2|)·(|V|+|E|)/64 word operations,
// no per-entity probe of τ. Views avoid the row copying of Algorithm 1
// (which package larray implements literally, for cross-validation);
// Materialize converts a View back into a standalone core.Graph when a copy
// is wanted.
package ops

import (
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/timeline"
)

// View is the result of a temporal operator applied to a base graph: the
// subset of nodes and edges selected, and the interval over which their
// timestamps and attribute values are restricted (τu'(u) = τu(u) ∩ Times,
// and likewise for edges).
type View struct {
	g     *core.Graph
	nodes *bitset.Set // over node ids
	edges *bitset.Set // over edge ids
	times timeline.Interval
}

// Graph returns the base graph the view selects from.
func (v *View) Graph() *core.Graph { return v.g }

// Times returns the interval over which the view's timestamps and
// attribute values are defined.
func (v *View) Times() timeline.Interval { return v.times }

// NumNodes returns the number of selected nodes.
func (v *View) NumNodes() int { return v.nodes.Count() }

// NumEdges returns the number of selected edges.
func (v *View) NumEdges() int { return v.edges.Count() }

// ContainsNode reports whether node n is selected.
func (v *View) ContainsNode(n core.NodeID) bool { return v.nodes.Contains(int(n)) }

// ContainsEdge reports whether edge e is selected.
func (v *View) ContainsEdge(e core.EdgeID) bool { return v.edges.Contains(int(e)) }

// Nodes returns the selected node ids as a bitset over the base graph's node
// id space, for word-parallel consumers. Callers must not modify it.
func (v *View) Nodes() *bitset.Set { return v.nodes }

// Edges returns the selected edge ids, under the same rules as Nodes.
func (v *View) Edges() *bitset.Set { return v.edges }

// ForEachNode calls fn for every selected node, in id order.
func (v *View) ForEachNode(fn func(core.NodeID)) {
	v.nodes.ForEach(func(i int) { fn(core.NodeID(i)) })
}

// ForEachEdge calls fn for every selected edge, in id order.
func (v *View) ForEachEdge(fn func(core.EdgeID)) {
	v.edges.ForEach(func(i int) { fn(core.EdgeID(i)) })
}

// ForEachNodeIn calls fn for every selected node with lo ≤ id < hi, in id
// order. It lets parallel consumers shard the view by id range, and reads
// only the words of that range: a shard of a sparse selection costs its own
// words, not a scan to the next selected id beyond it.
func (v *View) ForEachNodeIn(lo, hi int, fn func(core.NodeID)) {
	hi = min(hi, v.nodes.Len())
	for wi := lo / 64; wi*64 < hi; wi++ {
		for w := v.nodes.WordIn(wi, lo, hi); w != 0; w &= w - 1 {
			fn(core.NodeID(wi*64 + bits.TrailingZeros64(w)))
		}
	}
}

// ForEachEdgeIn calls fn for every selected edge with lo ≤ id < hi.
func (v *View) ForEachEdgeIn(lo, hi int, fn func(core.EdgeID)) {
	hi = min(hi, v.edges.Len())
	for wi := lo / 64; wi*64 < hi; wi++ {
		for w := v.edges.WordIn(wi, lo, hi); w != 0; w &= w - 1 {
			fn(core.EdgeID(wi*64 + bits.TrailingZeros64(w)))
		}
	}
}

// NodeTimes returns τu'(n) = τu(n) ∩ Times for a selected node.
func (v *View) NodeTimes(n core.NodeID) *bitset.Set {
	return v.g.NodeTau(n).And(v.times.Mask())
}

// EdgeTimes returns τe'(e) = τe(e) ∩ Times for a selected edge.
func (v *View) EdgeTimes(e core.EdgeID) *bitset.Set {
	return v.g.EdgeTau(e).And(v.times.Mask())
}

// NodeTimesCount returns |τu'(n)| without materializing the intersection;
// it is the appearance count ALL aggregation needs on static schemas.
func (v *View) NodeTimesCount(n core.NodeID) int {
	return v.g.NodeTau(n).CountAnd(v.times.Mask())
}

// EdgeTimesCount returns |τe'(e)| without materializing the intersection.
func (v *View) EdgeTimesCount(e core.EdgeID) int {
	return v.g.EdgeTau(e).CountAnd(v.times.Mask())
}

// Project implements the time project operator (Definition 2.2): the
// subgraph containing the nodes and edges that exist throughout T1
// (T1 ⊆ τ(x)), with timestamps restricted to T1. An empty T1 selects
// nothing: Definition 2.1 admits no entity with an empty timestamp.
func Project(g *core.Graph, t1 timeline.Interval) *View {
	nodes, edges := ForAll(t1).in(g)
	return &View{g: g, nodes: nodes, edges: edges, times: t1}
}

// At is shorthand for Project on the single time point t — the per-time-
// point graphs used throughout the paper's evaluation.
func At(g *core.Graph, t timeline.Time) *View {
	return Project(g, g.Timeline().Point(t))
}

// Union implements the union operator (Definition 2.3, Algorithm 1): the
// graph containing every node and edge existing at some point of T1 or of
// T2, with timestamps restricted to T1 ∪ T2.
func Union(g *core.Graph, t1, t2 timeline.Interval) *View {
	both := t1.Union(t2)
	nodes, edges := Exists(both).in(g)
	return &View{g: g, nodes: nodes, edges: edges, times: both}
}

// Intersection implements the intersection operator (Definition 2.4): the
// stable part of the graph — nodes and edges existing at some point of T1
// and at some point of T2 — with timestamps restricted to T1 ∪ T2.
func Intersection(g *core.Graph, t1, t2 timeline.Interval) *View {
	return StabilityView(g, Exists(t1), Exists(t2))
}

// Difference implements the difference operator (Definition 2.5) for
// T1 − T2: the part of the graph that exists in T1 but not in T2. Edges are
// selected when τe ∩ T1 ≠ ∅ and τe ∩ T2 = ∅; nodes when τu ∩ T1 ≠ ∅ and
// either τu ∩ T2 = ∅ or the node is an endpoint of a selected edge.
// Timestamps are restricted to T1. The operator is not symmetric: T2 − T1
// (with T1 preceding T2) captures growth instead of shrinkage (§2.1).
func Difference(g *core.Graph, t1, t2 timeline.Interval) *View {
	return DifferenceView(g, Exists(t1), Exists(t2))
}
