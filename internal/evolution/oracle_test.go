package evolution

import (
	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/timeline"
)

// AggregateMap is EVOLVE's one oracle: the aggregated evolution graph of
// Def. 2.7 computed the way the definition reads, on hash maps. For every
// entity it counts, per attribute tuple (a node's tuple, or an edge's
// endpoint-tuple pair), the appearances that pass the filter in Told and
// in Tnew; a tuple seen in both windows is stability (the intersection
// graph), one seen only in Tnew growth (Tnew − Told), one seen only in
// Told shrinkage (Told − Tnew). DIST adds one per entity and class, ALL
// the appearances (both windows' for stability), as the paper's Fig. 4b
// example counts them. The sweep, Timeline and TileSweep are
// cross-checked against it on DIST, ALL and filtered rows; it is exported
// for this package's external tests.
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
