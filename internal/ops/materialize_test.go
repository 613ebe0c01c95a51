package ops

import (
	"repro/internal/core"
	"repro/internal/timeline"
)

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
