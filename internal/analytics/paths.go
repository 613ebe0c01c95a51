package analytics

import (
	"sort"

	"repro/internal/core"
	"repro/internal/timeline"
)

// Path modes.
const (
	ModeEarliest = "earliest"
	ModeFastest  = "fastest"
)

// PathsSpec parameterizes one PATHS computation. A time-respecting path
// follows directed edges with non-decreasing time points inside Window;
// within one time point a path may take any number of hops (the snapshot's
// reachability closure), and waiting at a node between points is free. A
// source starts contributing at the first window point where it exists.
//
//   - earliest: the earliest window point at which each target is reached,
//     departing at the window start.
//   - fastest: the minimum duration over all departure points t0 in the
//     window, where duration = arrive − depart + 1 points (ties prefer the
//     earlier arrival, then the earlier departure).
type PathsSpec struct {
	Mode   string // ModeEarliest or ModeFastest
	Src    []core.NodeID
	Dst    []core.NodeID
	Window timeline.Interval // contiguous; empty means no reachable targets
}

// PathRow reports one reached target.
type PathRow struct {
	Node     string `json:"node"`
	Depart   string `json:"depart"`
	Arrive   string `json:"arrive"`
	Duration int    `json:"duration"`
}

// PathsResult is a full PATHS answer: one row per reached target, ordered
// by target label.
type PathsResult struct {
	Mode    string    `json:"mode"`
	Window  string    `json:"window"`
	Reached int       `json:"reached"`
	Rows    []PathRow `json:"rows"`
}

// arrival is one target's best (depart, arrive) pair.
type arrival struct {
	depart, arrive int
}

// PathsEngine is the frontier engine: edge activity is bucketed per window
// point once (one ForEachInRange per edge timestamp), then each evaluation
// is a single ascending-time sweep with a per-snapshot BFS closure. The
// bucket index is immutable after New, so one engine may run concurrently.
type PathsEngine struct {
	g       *core.Graph
	spec    PathsSpec
	lo, hi  int
	buckets [][]core.EdgeID // edge activity per window point, index t-lo
}

// NewPathsEngine builds the per-point edge buckets for spec's window.
func NewPathsEngine(g *core.Graph, spec PathsSpec) *PathsEngine {
	e := &PathsEngine{g: g, spec: spec}
	if spec.Window.IsEmpty() {
		return e
	}
	e.lo, e.hi = int(spec.Window.Min()), int(spec.Window.Max())
	e.buckets = make([][]core.EdgeID, e.hi-e.lo+1)
	for ei := 0; ei < g.NumEdges(); ei++ {
		id := core.EdgeID(ei)
		g.EdgeTau(id).ForEachInRange(e.lo, e.hi+1, func(t int) {
			e.buckets[t-e.lo] = append(e.buckets[t-e.lo], id)
		})
	}
	return e
}

// Run evaluates the spec.
func (e *PathsEngine) Run() *PathsResult {
	return pathsRun(e.g, e.spec, e.sweep)
}

// sweep computes earliest arrivals from the sources into ea (-1 unreached),
// departing no earlier than t0.
func (e *PathsEngine) sweep(t0 int, ea []int) {
	for i := range ea {
		ea[i] = -1
	}
	for _, u := range e.spec.Src {
		if s := e.g.NodeTau(u).Next(t0); s >= 0 && s <= e.hi && (ea[u] == -1 || s < ea[u]) {
			ea[u] = s
		}
	}
	var queue []core.NodeID
	adj := make(map[core.NodeID][]core.NodeID)
	for t := t0; t <= e.hi; t++ {
		bucket := e.buckets[t-e.lo]
		if len(bucket) == 0 {
			continue
		}
		clear(adj)
		queue = queue[:0]
		for _, id := range bucket {
			ep := e.g.Edge(id)
			adj[ep.U] = append(adj[ep.U], ep.V)
			// Seed the snapshot closure with heads already reached by t.
			if ea[ep.U] != -1 && ea[ep.U] <= t && (ea[ep.V] == -1 || ea[ep.V] > t) {
				ea[ep.V] = t
				queue = append(queue, ep.V)
			}
		}
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, v := range adj[u] {
				if ea[v] == -1 || ea[v] > t {
					ea[v] = t
					queue = append(queue, v)
				}
			}
		}
	}
}

// pathsRun drives a sweep function through the mode's evaluation loop and
// renders the result rows. A nil sweep (empty window) reaches nothing.
func pathsRun(g *core.Graph, spec PathsSpec, sweep func(t0 int, ea []int)) *PathsResult {
	out := &PathsResult{Mode: spec.Mode, Window: spec.Window.String()}
	if sweep == nil || spec.Window.IsEmpty() {
		return out
	}
	lo, hi := int(spec.Window.Min()), int(spec.Window.Max())
	best := make(map[core.NodeID]arrival)
	ea := make([]int, g.NumNodes())
	starts := []int{lo}
	if spec.Mode == ModeFastest {
		starts = starts[:0]
		for t0 := lo; t0 <= hi; t0++ {
			starts = append(starts, t0)
		}
	}
	for _, t0 := range starts {
		sweep(t0, ea)
		for _, v := range spec.Dst {
			a := ea[v]
			if a == -1 {
				continue
			}
			cand := arrival{depart: t0, arrive: a}
			cur, ok := best[v]
			if !ok || better(cand, cur) {
				best[v] = cand
			}
		}
	}
	tl := g.Timeline()
	dst := append([]core.NodeID(nil), spec.Dst...)
	sort.Slice(dst, func(i, j int) bool { return g.NodeLabel(dst[i]) < g.NodeLabel(dst[j]) })
	seen := make(map[core.NodeID]bool, len(dst))
	for _, v := range dst {
		a, ok := best[v]
		if !ok || seen[v] {
			continue
		}
		seen[v] = true
		out.Rows = append(out.Rows, PathRow{
			Node:     g.NodeLabel(v),
			Depart:   tl.Label(timeline.Time(a.depart)),
			Arrive:   tl.Label(timeline.Time(a.arrive)),
			Duration: a.arrive - a.depart + 1,
		})
	}
	out.Reached = len(out.Rows)
	return out
}

// better orders candidate arrivals: shorter duration, then earlier
// arrival, then earlier departure.
func better(a, b arrival) bool {
	da, db := a.arrive-a.depart, b.arrive-b.depart
	if da != db {
		return da < db
	}
	if a.arrive != b.arrive {
		return a.arrive < b.arrive
	}
	return a.depart < b.depart
}
