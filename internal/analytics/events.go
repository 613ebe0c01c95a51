package analytics

import (
	"context"
	"sort"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/evolution"
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

// EventsSweep answers an EVENTS query in a single pass over the nodes:
// evolution.TileSweep buckets each node's appearances per (tuple, tile) and
// folds them into every step the node touches — O(|V| + appearances +
// rows), independent of the step count. The per-entity classification is
// evolution.Aggregate's.
func EventsSweep(g *core.Graph, spec EventsSpec) *EventsResult {
	out, _ := EventsSweepCtx(context.Background(), g, spec)
	return out
}

// EventsSweepCtx is EventsSweep with cooperative cancellation, polled
// inside the node pass. A nil error guarantees EventsSweep's result.
func EventsSweepCtx(ctx context.Context, g *core.Graph, spec EventsSpec) (*EventsResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tl := g.Timeline()
	w := spec.width()
	T := tl.Len()
	nw := numWindows(T, w)
	out := &EventsResult{Width: w, Steps: maxInt(nw-1, 0)}
	if out.Steps == 0 {
		return out, nil
	}
	cells, err := evolution.TileSweep(ctx, g, spec.Schema, spec.Kind, w, spec.Filter)
	if err != nil {
		return nil, err
	}
	// Every window label and every group label is rendered once, however
	// many rows carry it.
	windows := make([]string, nw)
	for j := range windows {
		lo, hi := tileBounds(j, w, T)
		windows[j] = windowLabel(tl, lo, hi)
	}
	groups := make(map[agg.Tuple]string)
	for k, c := range cells {
		if c.Gr+c.Shr < spec.Min {
			continue
		}
		if out.Rows == nil { // stays nil (JSON null) when no cell passes Min
			out.Rows = make([]EventRow, 0, len(cells)-k)
		}
		group, ok := groups[c.Tuple]
		if !ok {
			group = spec.Schema.Label(c.Tuple)
			groups[c.Tuple] = group
		}
		out.Rows = append(out.Rows, EventRow{
			Step:  c.Step,
			Old:   windows[c.Step],
			New:   windows[c.Step+1],
			Group: group,
			St:    c.St,
			Gr:    c.Gr,
			Shr:   c.Shr,
			Class: classOf(c.Gr, c.Shr),
		})
	}
	sortEventRows(out.Rows)
	return out, nil
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
