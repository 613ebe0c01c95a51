// Package gtest provides shared test support: reproducible random temporal
// attributed graphs and random intervals for property-based tests
// (testing/quick) across the ops, agg, evolution, explore, larray and
// materialize packages.
package gtest

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/timeline"
)

// Params bounds the size of a random graph.
type Params struct {
	MaxTimes   int // ≥ 2
	MaxNodes   int // ≥ 2
	MaxEdges   int
	MaxStatic  int // static attribute count
	MaxVarying int // time-varying attribute count
	MaxDomain  int // values per attribute domain, ≥ 1
}

// DefaultParams returns sizes suitable for quick.Check iterations.
func DefaultParams() Params {
	return Params{MaxTimes: 6, MaxNodes: 14, MaxEdges: 30, MaxStatic: 2, MaxVarying: 2, MaxDomain: 4}
}

// RandomGraph builds a reproducible random temporal attributed graph.
// Every node exists at ≥1 time point, every node has all static values and
// a time-varying value at every time point it exists, and every edge exists
// at ≥1 time point where both endpoints exist — i.e. the graph always
// satisfies core.Builder validation.
func RandomGraph(r *rand.Rand, p Params) *core.Graph {
	nTimes := 2 + r.Intn(p.MaxTimes-1)
	labels := make([]string, nTimes)
	for i := range labels {
		labels[i] = fmt.Sprintf("t%d", i)
	}
	tl := timeline.MustNew(labels...)

	nStatic := r.Intn(p.MaxStatic + 1)
	nVarying := r.Intn(p.MaxVarying + 1)
	var attrs []core.AttrSpec
	for i := 0; i < nStatic; i++ {
		attrs = append(attrs, core.AttrSpec{Name: fmt.Sprintf("s%d", i), Kind: core.Static})
	}
	for i := 0; i < nVarying; i++ {
		attrs = append(attrs, core.AttrSpec{Name: fmt.Sprintf("v%d", i), Kind: core.TimeVarying})
	}
	b := core.NewBuilder(tl, attrs...)

	nNodes := 2 + r.Intn(p.MaxNodes-1)
	nodes := make([]core.NodeID, nNodes)
	for i := range nodes {
		n := b.AddNode(fmt.Sprintf("n%d", i))
		nodes[i] = n
		// Random non-empty lifetime.
		alive := make([]bool, nTimes)
		alive[r.Intn(nTimes)] = true
		for t := range alive {
			if r.Intn(2) == 0 {
				alive[t] = true
			}
		}
		for t, a := range alive {
			if !a {
				continue
			}
			b.SetNodeTime(n, timeline.Time(t))
			for v := 0; v < nVarying; v++ {
				b.SetVarying(core.AttrID(nStatic+v), n, timeline.Time(t),
					fmt.Sprintf("x%d", r.Intn(p.MaxDomain)))
			}
		}
		for s := 0; s < nStatic; s++ {
			b.SetStatic(core.AttrID(s), n, fmt.Sprintf("x%d", r.Intn(p.MaxDomain)))
		}
	}

	g0, err := b.Build()
	if err != nil {
		panic(err)
	}
	// Second pass for edges so we can consult node lifetimes.
	b2 := core.NewBuilder(tl, attrs...)
	for i := range nodes {
		n := b2.AddNode(fmt.Sprintf("n%d", i))
		g0.NodeTau(nodes[i]).ForEach(func(t int) { b2.SetNodeTime(n, timeline.Time(t)) })
		for s := 0; s < nStatic; s++ {
			b2.SetStatic(core.AttrID(s), n, g0.Dict(core.AttrID(s)).Value(g0.StaticValue(core.AttrID(s), nodes[i])))
		}
		for v := 0; v < nVarying; v++ {
			a := core.AttrID(nStatic + v)
			g0.NodeTau(nodes[i]).ForEach(func(t int) {
				b2.SetVarying(a, n, timeline.Time(t), g0.ValueString(a, nodes[i], timeline.Time(t)))
			})
		}
	}
	nEdges := r.Intn(p.MaxEdges + 1)
	for i := 0; i < nEdges; i++ {
		u := core.NodeID(r.Intn(nNodes))
		v := core.NodeID(r.Intn(nNodes))
		if u == v {
			continue
		}
		both := g0.NodeTau(u).And(g0.NodeTau(v))
		if both.IsEmpty() {
			continue
		}
		e := b2.AddEdge(u, v)
		// Random non-empty subset of the common lifetime.
		ts := both.Indices()
		b2.SetEdgeTime(e, timeline.Time(ts[r.Intn(len(ts))]))
		for _, t := range ts {
			if r.Intn(2) == 0 {
				b2.SetEdgeTime(e, timeline.Time(t))
			}
		}
	}
	g, err := b2.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// LongLivedGraph builds a reproducible graph of 60 nodes on a timeline of T
// points whose entities live for one contiguous stretch each — timestamps
// that span several 64-bit words when T is large, which RandomGraph's
// per-point coin flips never produce. Unlike RandomGraph it leaves values
// missing: one node in ten has no grp, act is set at a quarter of a node's
// time points.
func LongLivedGraph(r *rand.Rand, T int) *core.Graph {
	labels := make([]string, T)
	for i := range labels {
		labels[i] = fmt.Sprintf("w%03d", i)
	}
	b := core.NewBuilder(timeline.MustNew(labels...),
		core.AttrSpec{Name: "grp", Kind: core.Static},
		core.AttrSpec{Name: "act", Kind: core.TimeVarying})
	const nNodes = 60
	lifeLo := make([]int, nNodes)
	lifeHi := make([]int, nNodes)
	for n := 0; n < nNodes; n++ {
		id := b.AddNode(fmt.Sprintf("n%d", n))
		lo := r.Intn(T - 1)
		hi := lo + 1 + r.Intn(T-lo)
		lifeLo[n], lifeHi[n] = lo, hi
		for tt := lo; tt < hi; tt++ {
			b.SetNodeTime(id, timeline.Time(tt))
			if r.Intn(4) == 0 {
				b.SetVarying(1, id, timeline.Time(tt), fmt.Sprintf("a%d", r.Intn(3)))
			}
		}
		if r.Intn(10) != 0 {
			b.SetStatic(0, id, fmt.Sprintf("g%d", r.Intn(4)))
		}
	}
	for k := 0; k < 3*nNodes; k++ {
		u, v := r.Intn(nNodes), r.Intn(nNodes)
		lo, hi := max(lifeLo[u], lifeLo[v]), min(lifeHi[u], lifeHi[v])
		if lo >= hi {
			continue
		}
		e := b.AddEdge(core.NodeID(u), core.NodeID(v))
		for tt := lo; tt < hi; tt++ {
			b.SetEdgeTime(e, timeline.Time(tt))
		}
	}
	return b.MustBuild()
}

// RandomInterval returns a random non-empty set of time points on tl.
func RandomInterval(r *rand.Rand, tl *timeline.Timeline) timeline.Interval {
	iv := tl.Point(timeline.Time(r.Intn(tl.Len())))
	for t := 0; t < tl.Len(); t++ {
		if r.Intn(3) == 0 {
			iv = iv.Union(tl.Point(timeline.Time(t)))
		}
	}
	return iv
}

// RandomRange returns a random non-empty contiguous interval on tl.
func RandomRange(r *rand.Rand, tl *timeline.Timeline) timeline.Interval {
	from := r.Intn(tl.Len())
	to := from + r.Intn(tl.Len()-from)
	return tl.Range(timeline.Time(from), timeline.Time(to))
}

// NastyValues are attribute values chosen to break an encoder or an order:
// "1"/"10"/"1 0" separate the concatenated edge label from pair order,
// "a,b" next to "a"/"b,c"/"c" makes distinct tuples share a label, and the
// rest exercise every string-escaping rule of encoding/json.
var NastyValues = []string{
	"1", "10", "1 0", "a", "a,b", "b,c", "c", "<x>&", `q"uo\te`, "ctl\x00\x01\b\f\n\r\t\x1f\x7f",
	"bad\xff\xc3utf8", "sep\u2028\u2029", "é→", "",
}

// ValueGraph builds a graph over time points t0 and t1 with a static
// attribute x and a time-varying attribute y in which every pair of the
// given values labels one node (y moves on by one value at t1) and each node
// has three out-edges at both points, so that every value meets every other
// in aggregate labels and edge keys.
func ValueGraph(values []string) *core.Graph {
	b := core.NewBuilder(timeline.MustNew("t0", "t1"),
		core.AttrSpec{Name: "x", Kind: core.Static}, core.AttrSpec{Name: "y", Kind: core.TimeVarying})
	var nodes []core.NodeID
	for i, x := range values {
		for j := range values {
			n := b.AddNode(fmt.Sprintf("n%d_%d", i, j))
			b.SetStatic(0, n, x)
			for t := 0; t < 2; t++ {
				b.SetNodeTime(n, timeline.Time(t))
				b.SetVarying(1, n, timeline.Time(t), values[(j+t)%len(values)])
			}
			nodes = append(nodes, n)
		}
	}
	for i, u := range nodes {
		for d := 1; d <= 3; d++ {
			e := b.AddEdge(u, nodes[(i+7*d)%len(nodes)])
			b.SetEdgeTime(e, 0)
			b.SetEdgeTime(e, 1)
		}
	}
	return b.MustBuild()
}

// WideGraph builds a random graph over points time points whose attribute
// i has radices[i] interned values — static for even i, time-varying for
// odd i — of which nodes take only four, the first and the last among
// them. The tuple domain is the product of radices however small the graph
// is: the regime where tuple codes outgrow int32 and aggregation
// accumulators leave flat arrays for maps. Every node exists at one point
// or more, with every value set there, and edges join random pairs at
// some of the points where both ends exist.
func WideGraph(r *rand.Rand, nodes, points int, radices ...int) *core.Graph {
	labels := make([]string, points)
	for t := range labels {
		labels[t] = fmt.Sprintf("t%d", t)
	}
	attrs := make([]core.AttrSpec, len(radices))
	for a := range attrs {
		attrs[a] = core.AttrSpec{Name: fmt.Sprintf("a%d", a), Kind: core.Static}
		if a%2 == 1 {
			attrs[a].Kind = core.TimeVarying
		}
	}
	b := core.NewBuilder(timeline.MustNew(labels...), attrs...)
	used := make([][]string, len(radices))
	for a, radix := range radices {
		values := make([]string, radix)
		for v := range values {
			values[v] = fmt.Sprint(v)
		}
		b.InternValues(core.AttrID(a), values...)
		used[a] = []string{values[0], values[radix/3], values[radix/2], values[radix-1]}
	}
	pick := func(a int) string { return used[a][r.Intn(len(used[a]))] }
	alive := make([][]bool, nodes)
	for i := range alive {
		n := b.AddNode(fmt.Sprintf("n%d", i))
		for a := 0; a < len(radices); a += 2 {
			b.SetStatic(core.AttrID(a), n, pick(a))
		}
		alive[i] = make([]bool, points)
		first := r.Intn(points)
		for t := range alive[i] {
			if t != first && r.Intn(2) == 0 {
				continue
			}
			alive[i][t] = true
			b.SetNodeTime(n, timeline.Time(t))
			for a := 1; a < len(radices); a += 2 {
				b.SetVarying(core.AttrID(a), n, timeline.Time(t), pick(a))
			}
		}
	}
	for i := 0; i < 3*nodes; i++ {
		u, v := r.Intn(nodes), r.Intn(nodes)
		first := true
		for t := range points {
			if alive[u][t] && alive[v][t] && (first || r.Intn(2) == 0) {
				b.SetEdgeTime(b.AddEdge(core.NodeID(u), core.NodeID(v)), timeline.Time(t))
				first = false
			}
		}
	}
	return b.MustBuild()
}

// PointIndexError compares g's point index with the transpose of its
// timestamps, bit for bit over the whole id space (a column shorter than the
// id space must read as zeros): column t holds entity x exactly when τ(x)
// holds t. It returns nil when they agree.
func PointIndexError(g *core.Graph) error {
	ix := g.PointIndex()
	for t := 0; t < g.Timeline().Len(); t++ {
		nodes, edges := ix.NodesAt(timeline.Time(t)), ix.EdgesAt(timeline.Time(t))
		if nodes.Len() > g.NumNodes() || edges.Len() > g.NumEdges() {
			return fmt.Errorf("t=%d: columns sized %d/%d exceed the graph's %d nodes / %d edges",
				t, nodes.Len(), edges.Len(), g.NumNodes(), g.NumEdges())
		}
		for n := 0; n < g.NumNodes(); n++ {
			if nodes.Contains(n) != g.NodeTau(core.NodeID(n)).Contains(t) {
				return fmt.Errorf("t=%d: node %d: column says %v, τ says %v", t, n, nodes.Contains(n), !nodes.Contains(n))
			}
		}
		for e := 0; e < g.NumEdges(); e++ {
			if edges.Contains(e) != g.EdgeTau(core.EdgeID(e)).Contains(t) {
				return fmt.Errorf("t=%d: edge %d: column says %v, τ says %v", t, e, edges.Contains(e), !edges.Contains(e))
			}
		}
	}
	return nil
}

// ReplayPoint folds the content of g's time point tp into acc as a new
// point — what ingesting that point's batch does.
func ReplayPoint(acc *core.Accumulator, g *core.Graph, tp int) {
	acc.AddPoint(g.Timeline().Label(timeline.Time(tp)))
	for n := 0; n < g.NumNodes(); n++ {
		if !g.NodeTau(core.NodeID(n)).Contains(tp) {
			continue
		}
		id := acc.EnsureNode(g.NodeLabel(core.NodeID(n)))
		acc.SetNodeTime(id)
		for ai, spec := range g.Attrs() {
			a := core.AttrID(ai)
			if c := g.Value(a, core.NodeID(n), timeline.Time(tp)); c == dict.None {
				continue
			} else if spec.Kind == core.Static {
				acc.SetStatic(a, id, g.Dict(a).Value(c))
			} else {
				acc.SetVarying(a, id, g.Dict(a).Value(c))
			}
		}
	}
	for e := 0; e < g.NumEdges(); e++ {
		if g.EdgeTau(core.EdgeID(e)).Contains(tp) {
			ep := g.Edge(core.EdgeID(e))
			acc.SetEdgeTime(acc.EnsureEdge(acc.EnsureNode(g.NodeLabel(ep.U)), acc.EnsureNode(g.NodeLabel(ep.V))))
		}
	}
}

// Accumulated returns g as streaming ingest would have built it: replayed
// point by point through a core.Accumulator, so ids follow first appearance,
// time-varying values are stored as per-point rows and the point index as
// appended columns — both frozen at each point's entity count, shorter than
// the final id space wherever entities joined later.
func Accumulated(g *core.Graph) *core.Graph {
	acc := core.NewAccumulator(g.Attrs()...)
	for tp := 0; tp < g.Timeline().Len(); tp++ {
		ReplayPoint(acc, g, tp)
	}
	return acc.Snapshot()
}
