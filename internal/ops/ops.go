// Package ops implements the GraphTempo temporal operators (§2.1, §4.1):
// time projection, union, intersection and difference.
//
// Each operator yields a View — a selection of nodes and edges of the base
// graph together with the time mask over which attribute values are
// collected. Views avoid the row copying of the paper's Algorithm 1 (which
// package larray implements literally, for cross-validation); Materialize
// converts a View back into a standalone core.Graph when a copy is wanted.
package ops

import (
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

	// contig/rlo/rhi cache the contiguity of times, computed once at view
	// construction: when the interval is one contiguous range [rlo, rhi),
	// per-entity timestamp work uses the bitset range operations instead
	// of mask scans.
	contig   bool
	rlo, rhi int
}

// newView computes the contiguity cache for the interval.
func newView(g *core.Graph, nodes, edges *bitset.Set, times timeline.Interval) *View {
	v := &View{g: g, nodes: nodes, edges: edges, times: times}
	v.rlo, v.rhi, v.contig = contigRange(times.Mask())
	return v
}

// contigRange reports whether mask is one contiguous run [lo, hi); a nil
// or empty mask is the empty range [0, 0).
func contigRange(mask *bitset.Set) (lo, hi int, ok bool) {
	if mask == nil {
		return 0, 0, true
	}
	lo = mask.Next(0)
	if lo < 0 {
		return 0, 0, true
	}
	if c := mask.Count(); mask.ContainsRange(lo, lo+c) {
		return lo, lo + c, true
	}
	return 0, 0, false
}

// intersectsPred returns the τ ∩ mask ≠ ∅ test, routed through the range
// operation when mask is contiguous — the same dispatch Project and Union
// inline via the view's cache.
func intersectsPred(mask *bitset.Set) func(*bitset.Set) bool {
	if lo, hi, ok := contigRange(mask); ok {
		return func(tau *bitset.Set) bool { return tau.IntersectsRange(lo, hi) }
	}
	return func(tau *bitset.Set) bool { return tau.Intersects(mask) }
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

// ForEachNode calls fn for every selected node, in id order.
func (v *View) ForEachNode(fn func(core.NodeID)) {
	v.nodes.ForEach(func(i int) { fn(core.NodeID(i)) })
}

// ForEachEdge calls fn for every selected edge, in id order.
func (v *View) ForEachEdge(fn func(core.EdgeID)) {
	v.edges.ForEach(func(i int) { fn(core.EdgeID(i)) })
}

// ForEachNodeIn calls fn for every selected node with lo ≤ id < hi, in id
// order. It lets parallel consumers shard the view by id range.
func (v *View) ForEachNodeIn(lo, hi int, fn func(core.NodeID)) {
	for i := v.nodes.Next(lo); i >= 0 && i < hi; i = v.nodes.Next(i + 1) {
		fn(core.NodeID(i))
	}
}

// ForEachEdgeIn calls fn for every selected edge with lo ≤ id < hi.
func (v *View) ForEachEdgeIn(lo, hi int, fn func(core.EdgeID)) {
	for i := v.edges.Next(lo); i >= 0 && i < hi; i = v.edges.Next(i + 1) {
		fn(core.EdgeID(i))
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
	if v.contig {
		return v.g.NodeTau(n).CountRange(v.rlo, v.rhi)
	}
	return v.g.NodeTau(n).CountAnd(v.times.Mask())
}

// EdgeTimesCount returns |τe'(e)| without materializing the intersection.
func (v *View) EdgeTimesCount(e core.EdgeID) int {
	if v.contig {
		return v.g.EdgeTau(e).CountRange(v.rlo, v.rhi)
	}
	return v.g.EdgeTau(e).CountAnd(v.times.Mask())
}

// ForEachNodeTime calls fn for every t ∈ τu'(n), in increasing order,
// without materializing the intersection — the per-appearance loop of ALL
// aggregation over time-varying schemas.
func (v *View) ForEachNodeTime(n core.NodeID, fn func(t int)) {
	if v.contig {
		v.g.NodeTau(n).ForEachInRange(v.rlo, v.rhi, fn)
		return
	}
	v.g.NodeTau(n).ForEachAnd(v.times.Mask(), fn)
}

// ForEachEdgeTime calls fn for every t ∈ τe'(e), in increasing order.
func (v *View) ForEachEdgeTime(e core.EdgeID, fn func(t int)) {
	if v.contig {
		v.g.EdgeTau(e).ForEachInRange(v.rlo, v.rhi, fn)
		return
	}
	v.g.EdgeTau(e).ForEachAnd(v.times.Mask(), fn)
}

// Project implements the time project operator (Definition 2.2): the
// subgraph containing the nodes and edges that exist throughout T1
// (T1 ⊆ τ(x)), with timestamps restricted to T1.
func Project(g *core.Graph, t1 timeline.Interval) *View {
	v := newView(g, bitset.New(g.NumNodes()), bitset.New(g.NumEdges()), t1)
	mask := t1.Mask()
	for n := 0; n < g.NumNodes(); n++ {
		tau := g.NodeTau(core.NodeID(n))
		if v.contig && tau.ContainsRange(v.rlo, v.rhi) || !v.contig && tau.ContainsAll(mask) {
			v.nodes.Add(n)
		}
	}
	for e := 0; e < g.NumEdges(); e++ {
		tau := g.EdgeTau(core.EdgeID(e))
		if v.contig && tau.ContainsRange(v.rlo, v.rhi) || !v.contig && tau.ContainsAll(mask) {
			v.edges.Add(e)
		}
	}
	return v
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
	v := newView(g, bitset.New(g.NumNodes()), bitset.New(g.NumEdges()), both)
	mask := both.Mask()
	for n := 0; n < g.NumNodes(); n++ {
		tau := g.NodeTau(core.NodeID(n))
		if v.contig && tau.IntersectsRange(v.rlo, v.rhi) || !v.contig && tau.Intersects(mask) {
			v.nodes.Add(n)
		}
	}
	for e := 0; e < g.NumEdges(); e++ {
		tau := g.EdgeTau(core.EdgeID(e))
		if v.contig && tau.IntersectsRange(v.rlo, v.rhi) || !v.contig && tau.Intersects(mask) {
			v.edges.Add(e)
		}
	}
	return v
}

// Intersection implements the intersection operator (Definition 2.4): the
// stable part of the graph — nodes and edges existing at some point of T1
// and at some point of T2 — with timestamps restricted to T1 ∪ T2.
func Intersection(g *core.Graph, t1, t2 timeline.Interval) *View {
	in1, in2 := intersectsPred(t1.Mask()), intersectsPred(t2.Mask())
	v := newView(g, bitset.New(g.NumNodes()), bitset.New(g.NumEdges()), t1.Union(t2))
	for n := 0; n < g.NumNodes(); n++ {
		tau := g.NodeTau(core.NodeID(n))
		if in1(tau) && in2(tau) {
			v.nodes.Add(n)
		}
	}
	for e := 0; e < g.NumEdges(); e++ {
		tau := g.EdgeTau(core.EdgeID(e))
		if in1(tau) && in2(tau) {
			v.edges.Add(e)
		}
	}
	return v
}

// Difference implements the difference operator (Definition 2.5) for
// T1 − T2: the part of the graph that exists in T1 but not in T2. Edges are
// selected when τe ∩ T1 ≠ ∅ and τe ∩ T2 = ∅; nodes when τu ∩ T1 ≠ ∅ and
// either τu ∩ T2 = ∅ or the node is an endpoint of a selected edge.
// Timestamps are restricted to T1. The operator is not symmetric: T2 − T1
// (with T1 preceding T2) captures growth instead of shrinkage (§2.1).
func Difference(g *core.Graph, t1, t2 timeline.Interval) *View {
	in1, in2 := intersectsPred(t1.Mask()), intersectsPred(t2.Mask())
	edges := bitset.New(g.NumEdges())
	endpoint := bitset.New(g.NumNodes())
	for e := 0; e < g.NumEdges(); e++ {
		tau := g.EdgeTau(core.EdgeID(e))
		if in1(tau) && !in2(tau) {
			edges.Add(e)
			ep := g.Edge(core.EdgeID(e))
			endpoint.Add(int(ep.U))
			endpoint.Add(int(ep.V))
		}
	}
	nodes := bitset.New(g.NumNodes())
	for n := 0; n < g.NumNodes(); n++ {
		tau := g.NodeTau(core.NodeID(n))
		if in1(tau) && (!in2(tau) || endpoint.Contains(n)) {
			nodes.Add(n)
		}
	}
	return newView(g, nodes, edges, t1)
}

// Materialize copies a view out into a standalone graph, as the paper's
// Algorithm 1 does: node/edge timestamps are intersected with the view's
// interval and attribute values are copied for the selected nodes.
func Materialize(v *View) (*core.Graph, error) {
	g := v.g
	b := core.NewBuilder(g.Timeline(), g.Attrs()...)
	v.ForEachNode(func(n core.NodeID) {
		nn := b.AddNode(g.NodeLabel(n))
		times := v.NodeTimes(n)
		times.ForEach(func(t int) {
			b.SetNodeTime(nn, timeline.Time(t))
		})
		for a := 0; a < g.NumAttrs(); a++ {
			id := core.AttrID(a)
			if g.Attr(id).Kind == core.Static {
				b.SetStatic(id, nn, g.Dict(id).Value(g.StaticValue(id, n)))
			} else {
				times.ForEach(func(t int) {
					s := g.ValueString(id, n, timeline.Time(t))
					if s != "" {
						b.SetVarying(id, nn, timeline.Time(t), s)
					}
				})
			}
		}
	})
	v.ForEachEdge(func(e core.EdgeID) {
		ep := g.Edge(e)
		u, ok1 := b.NodeID(g.NodeLabel(ep.U))
		w, ok2 := b.NodeID(g.NodeLabel(ep.V))
		if !ok1 || !ok2 {
			// An edge of the view whose endpoint is not in the view would
			// violate the operators' definitions; Build would reject it
			// anyway, but fail fast with a clear location.
			panic("ops: view edge with endpoint outside view")
		}
		ee := b.AddEdge(u, w)
		v.EdgeTimes(e).ForEach(func(t int) {
			b.SetEdgeTime(ee, timeline.Time(t))
		})
	})
	return b.Build()
}
