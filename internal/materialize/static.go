package materialize

import (
	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/timeline"
)

// This file builds the per-time-point materialization of an all-static
// schema in one pass over the entities instead of one aggregation per time
// point. A node with static tuple c existing over a run [lo, hi) of time
// points contributes +1 to c's weight at every point of the run; recording
// the run as a pair of diff-array updates (+1 at lo, -1 at hi) and
// prefix-summing over time afterwards turns the O(T·(V+E)) per-point loop
// into O((V+E)·runs + T·tuples) — the timestamp vectors are walked run by
// run (bitset.Set.ForEachRun), never expanded to individual time points.

// diffRows accumulates diff arrays per tuple key, lazily allocated.
type diffRows[K comparable] struct {
	T    int
	keys []K
	rows map[K][]int32
}

func newDiffRows[K comparable](T int) *diffRows[K] {
	return &diffRows[K]{T: T, rows: make(map[K][]int32)}
}

func (d *diffRows[K]) add(key K, lo, hi int) {
	row, ok := d.rows[key]
	if !ok {
		row = make([]int32, d.T+1)
		d.rows[key] = row
		d.keys = append(d.keys, key)
	}
	row[lo]++
	row[hi]--
}

// buildPointsStatic returns, for an all-static schema, per-point aggregate
// graphs identical to agg.Aggregate(ops.At(g, t), s, agg.All) for every t.
func buildPointsStatic(g *core.Graph, s *agg.Schema) []*agg.Graph {
	T := g.Timeline().Len()
	nodes := newDiffRows[agg.Tuple](T)
	// Static tuples are computed once per node; they double as the edge
	// endpoint tuples below. -1 marks an incomplete tuple (excluded).
	codes := make([]int64, g.NumNodes())
	for n := 0; n < g.NumNodes(); n++ {
		tu, ok := s.StaticTuple(core.NodeID(n))
		if !ok {
			codes[n] = -1
			continue
		}
		codes[n] = int64(tu)
		g.NodeTau(core.NodeID(n)).ForEachRun(func(lo, hi int) {
			nodes.add(tu, lo, hi)
		})
	}
	edges := newDiffRows[agg.EdgeKey](T)
	for e := 0; e < g.NumEdges(); e++ {
		ep := g.Edge(core.EdgeID(e))
		cu, cv := codes[ep.U], codes[ep.V]
		if cu < 0 || cv < 0 {
			continue
		}
		key := agg.EdgeKey{From: agg.Tuple(cu), To: agg.Tuple(cv)}
		g.EdgeTau(core.EdgeID(e)).ForEachRun(func(lo, hi int) {
			edges.add(key, lo, hi)
		})
	}

	perPoint := make([]*agg.Graph, T)
	nodeRun := make([]int64, len(nodes.keys))
	edgeRun := make([]int64, len(edges.keys))
	for t := 0; t < T; t++ {
		ag := &agg.Graph{Schema: s, Kind: agg.All}
		live := 0
		for i, key := range nodes.keys {
			nodeRun[i] += int64(nodes.rows[key][t])
			if nodeRun[i] != 0 {
				live++
			}
		}
		ag.Nodes = make(map[agg.Tuple]int64, live)
		for i, key := range nodes.keys {
			if nodeRun[i] != 0 {
				ag.Nodes[key] = nodeRun[i]
			}
		}
		live = 0
		for i, key := range edges.keys {
			edgeRun[i] += int64(edges.rows[key][t])
			if edgeRun[i] != 0 {
				live++
			}
		}
		ag.Edges = make(map[agg.EdgeKey]int64, live)
		for i, key := range edges.keys {
			if edgeRun[i] != 0 {
				ag.Edges[key] = edgeRun[i]
			}
		}
		perPoint[t] = ag
	}
	return perPoint
}

// referencePointsLoop is the original construction — one single-point
// aggregation per base time point. It is the cross-checked reference for
// buildPointsStatic and the path time-varying schemas still take.
func referencePointsLoop(g *core.Graph, s *agg.Schema) []*agg.Graph {
	n := g.Timeline().Len()
	perPoint := make([]*agg.Graph, n)
	for t := 0; t < n; t++ {
		perPoint[t] = agg.Aggregate(ops.At(g, timeline.Time(t)), s, agg.All)
	}
	return perPoint
}
