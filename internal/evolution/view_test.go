package evolution

import (
	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/timeline"
)

// This file holds Definition 2.7 read literally — the evolution graph as
// three operator views and a per-entity classification — which the Fig. 4
// and edge-case tests check the classes against.

// View is the evolution graph G> between Told and Tnew: the overlay of the
// stable, removed and added subgraphs (Definition 2.7).
type View struct {
	g        *core.Graph
	Old, New timeline.Interval
	// Stable is the intersection graph on (Told, Tnew).
	Stable *ops.View
	// Removed is the difference graph Told − Tnew.
	Removed *ops.View
	// Added is the difference graph Tnew − Told.
	Added *ops.View
}

// NewView builds the evolution graph between told and tnew.
func NewView(g *core.Graph, told, tnew timeline.Interval) *View {
	return &View{
		g:       g,
		Old:     told,
		New:     tnew,
		Stable:  ops.Intersection(g, told, tnew),
		Removed: ops.Difference(g, told, tnew),
		Added:   ops.Difference(g, tnew, told),
	}
}

// NodeClass classifies node n. The second result is false when the node is
// not part of the evolution graph (exists in neither interval).
func (ev *View) NodeClass(n core.NodeID) (Class, bool) {
	return classify(ev.g.NodeTau(n).Intersects(ev.Old.Mask()),
		ev.g.NodeTau(n).Intersects(ev.New.Mask()))
}

// EdgeClass classifies edge e. The second result is false when the edge is
// not part of the evolution graph.
func (ev *View) EdgeClass(e core.EdgeID) (Class, bool) {
	return classify(ev.g.EdgeTau(e).Intersects(ev.Old.Mask()),
		ev.g.EdgeTau(e).Intersects(ev.New.Mask()))
}

func classify(inOld, inNew bool) (Class, bool) {
	switch {
	case inOld && inNew:
		return Stability, true
	case inNew:
		return Growth, true
	case inOld:
		return Shrinkage, true
	default:
		return 0, false
	}
}
