package analytics

import (
	"sort"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/evolution"
	"repro/internal/timeline"
)

// EventsSpec parameterizes one EVENTS computation: the timeline is tiled
// into width-Width windows and every consecutive window pair is classified
// with the evolution-aggregate semantics (per-entity tuple appearances,
// Fig. 4b) under Schema/Kind/Filter. Rows whose change magnitude Gr+Shr
// falls below Min are dropped (Min 0 keeps pure-stability groups too).
type EventsSpec struct {
	Schema *agg.Schema
	Kind   agg.Kind
	Width  int
	Min    int64
	Filter evolution.Filter
}

// width returns the normalized window width (at least 1).
func (s EventsSpec) width() int {
	if s.Width < 1 {
		return 1
	}
	return s.Width
}

// EventRow is one (step, attribute group) event classification.
type EventRow struct {
	Step  int    `json:"step"`
	Old   string `json:"old"`
	New   string `json:"new"`
	Group string `json:"group"`
	St    int64  `json:"st"`
	Gr    int64  `json:"gr"`
	Shr   int64  `json:"shr"`
	Class string `json:"class"`
}

// EventsResult is a full EVENTS answer: rows ordered by step, then group
// label.
type EventsResult struct {
	Width int        `json:"width"`
	Steps int        `json:"steps"`
	Rows  []EventRow `json:"rows"`
}

// stepKey identifies one (step, group) accumulation cell.
type stepKey struct {
	step int
	tu   agg.Tuple
}

// EventsSweep answers an EVENTS query in a single pass over the entities:
// each node's per-window tuple-appearance counts are collected from its
// timestamp set once, then folded into every step the node touches —
// O(|V|+|E| + appearances), independent of the step count. The per-entity
// classification is evolution.Aggregate's.
func EventsSweep(g *core.Graph, spec EventsSpec) *EventsResult {
	tl := g.Timeline()
	w := spec.width()
	T := tl.Len()
	nw := numWindows(T, w)
	out := &EventsResult{Width: w, Steps: maxInt(nw-1, 0)}
	if out.Steps == 0 {
		return out
	}
	acc := make(map[stepKey]evolution.Weights)
	counts := make(map[agg.Tuple]map[int]int64)
	for n := 0; n < g.NumNodes(); n++ {
		id := core.NodeID(n)
		clear(counts)
		g.NodeTau(id).ForEach(func(t int) {
			if spec.Filter != nil && !spec.Filter(id, timeline.Time(t)) {
				return
			}
			tu, ok := spec.Schema.TupleAt(id, timeline.Time(t))
			if !ok {
				return
			}
			m := counts[tu]
			if m == nil {
				m = make(map[int]int64)
				counts[tu] = m
			}
			m[t/w]++
		})
		for tu, wins := range counts {
			// A count in window j participates in step j-1 (as the new
			// side) and step j (as the old side).
			steps := make(map[int]struct{}, 2*len(wins))
			for j := range wins {
				if j-1 >= 0 {
					steps[j-1] = struct{}{}
				}
				if j < out.Steps {
					steps[j] = struct{}{}
				}
			}
			for s := range steps {
				c0, c1 := wins[s], wins[s+1]
				k := stepKey{step: s, tu: tu}
				acc[k] = foldClass(acc[k], c0, c1, spec.Kind)
			}
		}
	}
	for k, wt := range acc {
		if wt.Gr+wt.Shr < spec.Min {
			continue
		}
		oldLo, oldHi := tileBounds(k.step, w, T)
		newLo, newHi := tileBounds(k.step+1, w, T)
		out.Rows = append(out.Rows, EventRow{
			Step:  k.step,
			Old:   windowLabel(tl, oldLo, oldHi),
			New:   windowLabel(tl, newLo, newHi),
			Group: spec.Schema.Label(k.tu),
			St:    wt.St,
			Gr:    wt.Gr,
			Shr:   wt.Shr,
			Class: classOf(wt.Gr, wt.Shr),
		})
	}
	sortEventRows(out.Rows)
	return out
}

// foldClass folds one entity's (old, new) appearance counts for a tuple
// into the running weights — the evolution.addClass semantics.
func foldClass(wt evolution.Weights, c0, c1 int64, kind agg.Kind) evolution.Weights {
	switch {
	case c0 > 0 && c1 > 0:
		if kind == agg.Distinct {
			wt.St++
		} else {
			wt.St += c0 + c1
		}
	case c1 > 0:
		if kind == agg.Distinct {
			wt.Gr++
		} else {
			wt.Gr += c1
		}
	case c0 > 0:
		if kind == agg.Distinct {
			wt.Shr++
		} else {
			wt.Shr += c0
		}
	}
	return wt
}

func sortEventRows(rows []EventRow) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Step != rows[j].Step {
			return rows[i].Step < rows[j].Step
		}
		return rows[i].Group < rows[j].Group
	})
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
