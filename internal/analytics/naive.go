package analytics

import (
	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/timeline"
)

// This file holds the brute-force reference oracles. They share nothing
// with the fast engines beyond the row types and the slope formula: no
// bitset iteration, no evolution package, no buckets, no catalogs — just
// per-point membership tests and monotone fixpoints. Tests byte-compare
// their JSON against every fast engine.

// NaiveEvents recomputes EVENTS by scanning every (node, time) cell of
// every window pair.
func NaiveEvents(g *core.Graph, spec EventsSpec) *EventsResult {
	tl := g.Timeline()
	w := spec.width()
	T := tl.Len()
	nw := numWindows(T, w)
	out := &EventsResult{Width: w, Steps: maxInt(nw-1, 0)}
	for s := 0; s < out.Steps; s++ {
		weights := make(map[agg.Tuple]*[3]int64) // St, Gr, Shr
		for n := 0; n < g.NumNodes(); n++ {
			id := core.NodeID(n)
			oldCnt := make(map[agg.Tuple]int64)
			newCnt := make(map[agg.Tuple]int64)
			for t := 0; t < T; t++ {
				win := t / w
				if win != s && win != s+1 {
					continue
				}
				if !g.NodeTau(id).Contains(t) {
					continue
				}
				if spec.Filter != nil && !spec.Filter(id, timeline.Time(t)) {
					continue
				}
				tu, ok := spec.Schema.TupleAt(id, timeline.Time(t))
				if !ok {
					continue
				}
				if win == s {
					oldCnt[tu]++
				} else {
					newCnt[tu]++
				}
			}
			for tu := range oldCnt {
				if _, seen := weights[tu]; !seen {
					weights[tu] = &[3]int64{}
				}
			}
			for tu := range newCnt {
				if _, seen := weights[tu]; !seen {
					weights[tu] = &[3]int64{}
				}
			}
			for tu, wt := range weights {
				c0, c1 := oldCnt[tu], newCnt[tu]
				switch {
				case c0 > 0 && c1 > 0:
					if spec.Kind == agg.Distinct {
						wt[0]++
					} else {
						wt[0] += c0 + c1
					}
				case c1 > 0:
					if spec.Kind == agg.Distinct {
						wt[1]++
					} else {
						wt[1] += c1
					}
				case c0 > 0:
					if spec.Kind == agg.Distinct {
						wt[2]++
					} else {
						wt[2] += c0
					}
				}
			}
		}
		oldLo, oldHi := tileBounds(s, w, T)
		newLo, newHi := tileBounds(s+1, w, T)
		for _, tu := range sortedTuples(spec.Schema, weights) {
			wt := weights[tu]
			if wt[1]+wt[2] < spec.Min {
				continue
			}
			out.Rows = append(out.Rows, EventRow{
				Step:  s,
				Old:   windowLabel(tl, oldLo, oldHi),
				New:   windowLabel(tl, newLo, newHi),
				Group: spec.Schema.Label(tu),
				St:    wt[0],
				Gr:    wt[1],
				Shr:   wt[2],
				Class: classOf(wt[1], wt[2]),
			})
		}
	}
	return out
}

// sortedTuples orders a weight map's keys by decoded label.
func sortedTuples(schema *agg.Schema, m map[agg.Tuple]*[3]int64) []agg.Tuple {
	out := make([]agg.Tuple, 0, len(m))
	for tu := range m {
		out = append(out, tu)
	}
	for i := 1; i < len(out); i++ { // insertion sort: oracle stays dependency-free
		for j := i; j > 0 && schema.Label(out[j]) < schema.Label(out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// NaivePaths recomputes PATHS as a monotone reachability fixpoint over the
// full (time × node) matrix, one matrix per departure point.
func NaivePaths(g *core.Graph, spec PathsSpec) *PathsResult {
	sweep := func(t0 int, ea []int) error {
		hi := int(spec.Window.Max())
		n := g.NumNodes()
		span := hi - t0 + 1
		reach := make([][]bool, span)
		for i := range reach {
			reach[i] = make([]bool, n)
		}
		// Seeds: a source is present from its first active point >= t0 on.
		for _, u := range spec.Src {
			for t := t0; t <= hi; t++ {
				if g.NodeTau(u).Contains(t) {
					for ti := t - t0; ti < span; ti++ {
						reach[ti][u] = true
					}
					break
				}
			}
		}
		// Fixpoint: waiting carries reachability forward; an active edge
		// carries it across within its point.
		for changed := true; changed; {
			changed = false
			for ti := 0; ti < span; ti++ {
				if ti > 0 {
					for v := 0; v < n; v++ {
						if reach[ti-1][v] && !reach[ti][v] {
							reach[ti][v] = true
							changed = true
						}
					}
				}
				for e := 0; e < g.NumEdges(); e++ {
					id := core.EdgeID(e)
					if !g.EdgeTau(id).Contains(t0 + ti) {
						continue
					}
					ep := g.Edge(id)
					if reach[ti][ep.U] && !reach[ti][ep.V] {
						reach[ti][ep.V] = true
						changed = true
					}
				}
			}
		}
		for v := 0; v < n; v++ {
			for ti := 0; ti < span; ti++ {
				if reach[ti][v] {
					ea[v] = t0 + ti
					break
				}
			}
		}
		return nil
	}
	res, _ := pathsRun(g, spec, sweep)
	return res
}

// NaiveTrend recomputes TREND by rescanning every (node, time) cell of
// every window position.
func NaiveTrend(g *core.Graph, spec TrendSpec) *TrendResult {
	tl := g.Timeline()
	w := spec.width()
	T := tl.Len()
	nw := trendWindows(T, w)
	out := &TrendResult{Width: w, Windows: nw}
	if nw == 0 {
		return out
	}
	series := make(map[agg.Tuple][]int64)
	for j := 0; j < nw; j++ {
		for n := 0; n < g.NumNodes(); n++ {
			id := core.NodeID(n)
			seen := make(map[agg.Tuple]bool)
			for t := j; t <= j+w-1; t++ {
				if !g.NodeTau(id).Contains(t) {
					continue
				}
				if spec.Filter != nil && !spec.Filter(id, timeline.Time(t)) {
					continue
				}
				tu, ok := spec.Schema.TupleAt(id, timeline.Time(t))
				if !ok {
					continue
				}
				if spec.Kind == agg.Distinct {
					seen[tu] = true
					continue
				}
				s := series[tu]
				if s == nil {
					s = make([]int64, nw)
					series[tu] = s
				}
				s[j]++
			}
			for tu := range seen {
				s := series[tu]
				if s == nil {
					s = make([]int64, nw)
					series[tu] = s
				}
				s[j]++
			}
		}
	}
	out.Rows = trendRows(spec.Schema, series)
	return out
}
