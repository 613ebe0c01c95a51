package evolution

import (
	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/timeline"
)

// AggregateMap computes the same result as Aggregate on hash-map
// accumulators: one (old, new) count map per entity, one weight map per
// result. It is the EVOLVE oracle the sweep is cross-checked against —
// exported for this package's external tests.
func AggregateMap(g *core.Graph, told, tnew timeline.Interval, s *agg.Schema, kind agg.Kind, filter Filter) *Agg {
	if s.Graph() != g {
		panic("evolution: schema built on a different graph")
	}
	out := &Agg{
		Schema: s,
		Kind:   kind,
		Old:    told,
		New:    tnew,
		Nodes:  make(map[agg.Tuple]Weights),
		Edges:  make(map[agg.EdgeKey]Weights),
	}
	oldMask, newMask := told.Mask(), tnew.Mask()

	// counts[tuple] = appearances in (old, new).
	nodeCounts := make(map[agg.Tuple][2]int64)
	for n := 0; n < g.NumNodes(); n++ {
		id := core.NodeID(n)
		clear(nodeCounts)
		g.NodeTau(id).ForEach(func(t int) {
			inOld := oldMask.Contains(t)
			inNew := newMask.Contains(t)
			if !inOld && !inNew {
				return
			}
			if filter != nil && !filter(id, timeline.Time(t)) {
				return
			}
			tu, ok := s.TupleAt(id, timeline.Time(t))
			if !ok {
				return
			}
			c := nodeCounts[tu]
			if inOld {
				c[0]++
			}
			if inNew {
				c[1]++
			}
			nodeCounts[tu] = c
		})
		for tu, c := range nodeCounts {
			w := out.Nodes[tu]
			addClass(&w, c[0], c[1], kind)
			out.Nodes[tu] = w
		}
	}

	edgeCounts := make(map[agg.EdgeKey][2]int64)
	for e := 0; e < g.NumEdges(); e++ {
		id := core.EdgeID(e)
		ep := g.Edge(id)
		clear(edgeCounts)
		g.EdgeTau(id).ForEach(func(t int) {
			inOld := oldMask.Contains(t)
			inNew := newMask.Contains(t)
			if !inOld && !inNew {
				return
			}
			if filter != nil && (!filter(ep.U, timeline.Time(t)) || !filter(ep.V, timeline.Time(t))) {
				return
			}
			fu, ok1 := s.TupleAt(ep.U, timeline.Time(t))
			tu, ok2 := s.TupleAt(ep.V, timeline.Time(t))
			if !ok1 || !ok2 {
				return
			}
			key := agg.EdgeKey{From: fu, To: tu}
			c := edgeCounts[key]
			if inOld {
				c[0]++
			}
			if inNew {
				c[1]++
			}
			edgeCounts[key] = c
		})
		for key, c := range edgeCounts {
			w := out.Edges[key]
			addClass(&w, c[0], c[1], kind)
			out.Edges[key] = w
		}
	}
	return out
}
