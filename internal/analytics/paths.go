package analytics

import (
	"context"
	"math/bits"
	"slices"
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
	Mode     string // ModeEarliest or ModeFastest
	Src, Dst []core.NodeID
	Window   timeline.Interval // contiguous; empty means no reachable targets
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
type arrival struct{ depart, arrive int }

// PathsEngine is the frontier engine. It holds the window's per-point
// out-adjacency in CSR form, built once from the graph's point index
// columns: for each point, the distinct tails of the edges alive there, each
// tail's run of heads, and each head's own index among the tails. An
// evaluation is a single ascending-time sweep that closes each snapshot by
// walking those slices, O(window appearances) per sweep. The index is
// immutable after New, so one engine may run concurrently.
type PathsEngine struct {
	g      *core.Graph
	spec   PathsSpec
	lo, hi int
	adj    []pointAdj // index t-lo
}

// pointAdj is one point's out-adjacency: tails ascend, tails[i]'s heads are
// heads[off[i]:off[i+1]], and next[k] is heads[k]'s index in tails, or -1
// when it has no out-edge at the point.
type pointAdj struct {
	tails, heads []core.NodeID
	off, next    []int32
}

// NewPathsEngine builds the per-point adjacency of spec's window: a
// counting sort of each point's edges by tail, with the tails marked in a
// bitset so that no step branches on whether a tail is new.
func NewPathsEngine(g *core.Graph, spec PathsSpec) *PathsEngine {
	e := &PathsEngine{g: g, spec: spec}
	if spec.Window.IsEmpty() {
		return e
	}
	e.lo, e.hi = int(spec.Window.Min()), int(spec.Window.Max())
	e.adj = make([]pointAdj, e.hi-e.lo+1)
	mark := make([]uint64, (g.NumNodes()+63)/64) // the current point's tails
	rank := make([]int32, len(mark))             // how many tails mark's earlier words hold
	cur := make([]int32, g.NumNodes())           // a tail's out-degree, then its cursor into heads
	tails, off := []core.NodeID(nil), []int32{0}
	for t := e.lo; t <= e.hi; t++ {
		a := &e.adj[t-e.lo]
		col := g.PointIndex().EdgesAt(timeline.Time(t))
		col.ForEach(func(id int) {
			u := g.Edge(core.EdgeID(id)).U
			mark[u/64] |= 1 << (u % 64)
			cur[u]++
		})
		tails, off = tails[:0], off[:1]
		for wi, w := range mark {
			rank[wi] = int32(len(tails))
			for ; w != 0; w &= w - 1 {
				u := core.NodeID(wi*64 + bits.TrailingZeros64(w))
				tails, off = append(tails, u), append(off, off[len(tails)]+cur[u])
				cur[u] = off[len(tails)-1]
			}
		}
		a.tails, a.off = slices.Clone(tails), slices.Clone(off)
		a.heads, a.next = make([]core.NodeID, off[len(tails)]), make([]int32, off[len(tails)])
		col.ForEach(func(id int) {
			ep := g.Edge(core.EdgeID(id))
			k, w := cur[ep.U], mark[ep.V/64]
			cur[ep.U]++
			// next is ep.V's rank among the marked tails, or -1 when unmarked.
			in := int32(w >> (ep.V % 64) & 1)
			a.heads[k], a.next[k] = ep.V, in*(rank[ep.V/64]+int32(bits.OnesCount64(w<<(63-ep.V%64))))-1
		})
		for _, u := range a.tails {
			cur[u] = 0
		}
		clear(mark)
	}
	return e
}

// Run evaluates the spec.
func (e *PathsEngine) Run() *PathsResult {
	res, _ := e.RunCtx(context.Background())
	return res
}

// RunCtx evaluates the spec, probing ctx at every departure and every 16
// points of a sweep; once ctx is done it returns ctx.Err() and no answer.
func (e *PathsEngine) RunCtx(ctx context.Context) (*PathsResult, error) {
	return pathsRun(e.g, e.spec, func(t0 int, ea []int) error { return e.sweep(ctx, t0, ea) })
}

// sweep computes earliest arrivals from the sources into ea (-1 unreached,
// as it arrives), departing no earlier than t0. It returns ctx.Err(),
// leaving ea partial, when a probe finds ctx done.
func (e *PathsEngine) sweep(ctx context.Context, t0 int, ea []int) error {
	for _, u := range e.spec.Src {
		if s := e.g.NodeTau(u).Next(t0); s >= 0 && s <= e.hi && (ea[u] == -1 || s < ea[u]) {
			ea[u] = s
		}
	}
	var queue []int32 // tail indices at t
	for t := t0; t <= e.hi; t++ {
		if (t-t0)%16 == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		a := &e.adj[t-e.lo]
		// Close the snapshot from every tail already reached by t.
		for i, u := range a.tails {
			if ea[u] != -1 && ea[u] <= t {
				queue = append(queue, int32(i))
			}
		}
		for len(queue) > 0 {
			i := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for k := a.off[i]; k < a.off[i+1]; k++ {
				if v := a.heads[k]; ea[v] == -1 || ea[v] > t {
					ea[v] = t
					if a.next[k] >= 0 {
						queue = append(queue, a.next[k])
					}
				}
			}
		}
	}
	return nil
}

// pathsRun drives a sweep function through the mode's evaluation loop,
// handing it ea reset to -1 for every departure, and renders the result
// rows; an empty window reaches nothing. The first sweep error is returned
// with no answer.
func pathsRun(g *core.Graph, spec PathsSpec, sweep func(t0 int, ea []int) error) (*PathsResult, error) {
	out := &PathsResult{Mode: spec.Mode, Window: spec.Window.String()}
	if spec.Window.IsEmpty() {
		return out, nil
	}
	lo, last := int(spec.Window.Min()), int(spec.Window.Max())
	if spec.Mode != ModeFastest {
		last = lo
	}
	best := make(map[core.NodeID]arrival)
	ea := make([]int, g.NumNodes())
	for t0 := lo; t0 <= last; t0++ {
		for i := range ea {
			ea[i] = -1
		}
		if err := sweep(t0, ea); err != nil {
			return nil, err
		}
		for _, v := range spec.Dst {
			cand := arrival{depart: t0, arrive: ea[v]}
			if cur, ok := best[v]; cand.arrive != -1 && (!ok || better(cand, cur)) {
				best[v] = cand
			}
		}
	}
	tl := g.Timeline()
	for v, a := range best {
		out.Rows = append(out.Rows, PathRow{
			Node:     g.NodeLabel(v),
			Depart:   tl.Label(timeline.Time(a.depart)),
			Arrive:   tl.Label(timeline.Time(a.arrive)),
			Duration: a.arrive - a.depart + 1,
		})
	}
	sort.Slice(out.Rows, func(i, j int) bool { return out.Rows[i].Node < out.Rows[j].Node })
	out.Reached = len(out.Rows)
	return out, nil
}

// better orders candidate arrivals: shorter duration, then earlier arrival
// (at equal duration, the earlier departure).
func better(a, b arrival) bool {
	if da, db := a.arrive-a.depart, b.arrive-b.depart; da != db {
		return da < db
	}
	return a.arrive < b.arrive
}
