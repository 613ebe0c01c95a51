package agg

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/gtest"
	"repro/internal/ops"
	"repro/internal/stream"
	"repro/internal/timeline"
)

// singlesGraph builds a random graph over up to ~300 nodes, so the id
// spaces cross word boundaries, in which an entity exists at one point only
// with probability ones/4 and otherwise at a random subset of the points
// (ones = 3 is DBLP's shape, where 86 % of edge appearances are such
// singles). One node in ten has no grp and a quarter of the appearances no
// act.
func singlesGraph(r *rand.Rand, ones int) *core.Graph {
	T := 2 + r.Intn(9)
	labels := make([]string, T)
	for i := range labels {
		labels[i] = fmt.Sprintf("p%d", i)
	}
	tl := timeline.MustNew(labels...)
	b := core.NewBuilder(tl, core.AttrSpec{Name: "grp", Kind: core.Static}, core.AttrSpec{Name: "act", Kind: core.TimeVarying})
	lifetime := func(within []int) []int {
		if i := r.Intn(len(within)); r.Intn(4) >= 4-ones {
			return within[i : i+1]
		}
		var out []int
		for _, t := range within {
			if r.Intn(2) == 0 {
				out = append(out, t)
			}
		}
		if len(out) == 0 {
			out = within[:1]
		}
		return out
	}
	all := make([]int, T)
	for i := range all {
		all[i] = i
	}
	nNodes := 2 + r.Intn(300)
	alive := make([]map[int]bool, nNodes)
	for i := range alive {
		n := b.AddNode(fmt.Sprintf("n%d", i))
		alive[i] = map[int]bool{}
		for _, t := range lifetime(all) {
			alive[i][t] = true
			b.SetNodeTime(n, timeline.Time(t))
			if r.Intn(4) != 0 {
				b.SetVarying(1, n, timeline.Time(t), fmt.Sprintf("a%d", r.Intn(4)))
			}
		}
		if r.Intn(10) != 0 {
			b.SetStatic(0, n, fmt.Sprintf("g%d", r.Intn(3)))
		}
	}
	seen := map[[2]int]bool{}
	for i, n := 0, r.Intn(700); i < n; i++ {
		u, v := r.Intn(nNodes), r.Intn(nNodes)
		var both []int
		for t := range T {
			if alive[u][t] && alive[v][t] {
				both = append(both, t)
			}
		}
		if u == v || len(both) == 0 || seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		e := b.AddEdge(core.NodeID(u), core.NodeID(v))
		for _, t := range lifetime(both) {
			b.SetEdgeTime(e, timeline.Time(t))
		}
	}
	return b.MustBuild()
}

// singlesViews are scanViews, the exploration pair views — stability and
// difference over incremental sides — and a union with a few entities
// dropped from its selection. The operators select a point's singles all or
// none (they share one timestamp), so only an edited selection makes the
// kernel stream the singles of a point it cannot absorb.
func singlesViews(r *rand.Rand, g *core.Graph) []*ops.View {
	tl := g.Timeline()
	side := func() *ops.IncrementalView {
		iv := ops.NewIncrementalView(g, timeline.Time(r.Intn(tl.Len())))
		for i := r.Intn(3); i > 0; i-- {
			if t := timeline.Time(r.Intn(tl.Len())); r.Intn(2) == 0 {
				iv.ExtendUnion(t)
			} else {
				iv.ExtendIntersect(t)
			}
		}
		return iv
	}
	thinned := ops.Union(g, tl.All(), tl.All())
	for _, sel := range []*bitset.Set{thinned.Nodes(), thinned.Edges()} {
		for _, i := range sel.Indices() {
			if r.Intn(20) == 0 {
				sel.Remove(i)
			}
		}
	}
	// Each pair view aliases its combiner's buffers: one combiner per view.
	return append(scanViews(r, g), thinned,
		ops.NewPairView(g).Stability(side(), side()),
		ops.NewPairView(g).Difference(side(), side()),
		ops.NewEdgePairView(g).Difference(side(), side()))
}

// singlesPaths counts, over the points of v's interval that have singles,
// those whose singles v selects in full — the kernel adds their per-point
// aggregate (absorbed, confirmed by the record's aggregate having been
// built) — and
// those it selects only in part, which are streamed.
func singlesPaths(v *ops.View, s *Schema) (absorbed, streamed int) {
	ix := s.g.PointIndex()
	mask := v.Times().Mask()
	if mask == nil {
		return 0, 0
	}
	for t := mask.Next(0); t >= 0; t = mask.Next(t + 1) {
		for side, sets := range [][3]*bitset.Set{
			{v.Nodes(), ix.NodesAt(timeline.Time(t)), ix.MultiNodes()},
			{v.Edges(), ix.EdgesAt(timeline.Time(t)), ix.MultiEdges()},
		} {
			sel, col, multi := sets[0], sets[1], sets[2]
			p := s.scans[side][t].Load()
			switch singles := col.AndNot(multi); {
			case singles.IsEmpty():
			case p != nil && p.singles != nil && sel.ContainsAll(singles):
				absorbed++
			case singles.Intersects(sel):
				streamed++
			}
		}
	}
	return absorbed, streamed
}

// TestSinglesKernelMatchesMapEngine: on graphs where most entities live at
// one point, built and accumulated, the kernel that adds per-point
// aggregates of singles gives what the map engine gives — every operator
// and the exploration pair views, DIST and ALL, serially, over 2–5 shard
// workers and over shards cut at unaligned bounds — and both of its paths
// ran: points whose singles a view selects in full were absorbed, points
// whose singles it selects in part were streamed.
func TestSinglesKernelMatchesMapEngine(t *testing.T) {
	defer forceParallel(t)()
	r := rand.New(rand.NewSource(51))
	var absorbed, streamed, rows int
	for i := 0; i < 40; i++ {
		built := singlesGraph(r, 3)
		for name, g := range map[string]*core.Graph{"built": built, "accumulated": gtest.Accumulated(built)} {
			for _, s := range []*Schema{MustSchema(g, 1), MustSchema(g, 0, 1), MustSchema(g, 1, 0)} {
				for vi, v := range singlesViews(r, g) {
					for _, kind := range []Kind{Distinct, All} {
						what := fmt.Sprintf("graph %d %s %v view %d %s", i, name, s.AttrNames(), vi, kind)
						want := AggregateMap(v, s, kind)
						if got := Aggregate(v, s, kind); !got.Equal(want) {
							t.Fatalf("%s: serial kernel\n%s\nmap engine\n%s", what, got, want)
						}
						if got := aggregateParallel(v, s, kind, 2+r.Intn(4)); !got.Equal(want) {
							t.Fatalf("%s: shard workers\n%s\nmap engine\n%s", what, got, want)
						}
						if got := aggregateInPieces(r, v, s, kind); !got.Equal(want) {
							t.Fatalf("%s: unaligned shards\n%s\nmap engine\n%s", what, got, want)
						}
						a, st := singlesPaths(v, s)
						absorbed, streamed, rows = absorbed+a, streamed+st, rows+1
					}
				}
			}
		}
	}
	if absorbed == 0 || streamed == 0 {
		t.Fatalf("over %d rows, %d points absorbed and %d streamed: want both", rows, absorbed, streamed)
	}
	t.Logf("%d rows; %d points absorbed, %d streamed", rows, absorbed, streamed)
}

// TestSinglesFrozenWhileAppending: a snapshot taken while an entity lives
// at one point keeps answering as that graph while the accumulator goes
// on, from another goroutine, to record the entity at later points — its
// multi-appearance set is frozen with it (run under -race), and so are the
// scan records built on it — and every later snapshot answers as its own
// graph.
func TestSinglesFrozenWhileAppending(t *testing.T) {
	acc := core.NewAccumulator(core.AttrSpec{Name: "grp", Kind: core.Static}, core.AttrSpec{Name: "act", Kind: core.TimeVarying})
	point := func(p, lo, hi int) {
		acc.AddPoint(fmt.Sprintf("p%d", p))
		var prev core.NodeID
		for i := lo; i < hi; i++ {
			n := acc.EnsureNode(fmt.Sprintf("n%d", i))
			acc.SetNodeTime(n)
			acc.SetStatic(0, n, fmt.Sprintf("g%d", i%3))
			acc.SetVarying(1, n, fmt.Sprintf("a%d", (i+p)%4))
			if i > lo {
				acc.SetEdgeTime(acc.EnsureEdge(prev, n))
			}
			prev = n
		}
	}
	point(0, 0, 150)
	point(1, 100, 250)
	g1 := acc.Snapshot() // n0…n99 and n150…n249 live at one point each
	if g1.PointIndex().MultiNodes().Count() != 50 {
		t.Fatalf("%d multi-appearance nodes, want the 50 of both points", g1.PointIndex().MultiNodes().Count())
	}
	tl := g1.Timeline()
	views := []*ops.View{
		ops.Union(g1, tl.All(), tl.All()), ops.At(g1, 0), ops.Difference(g1, tl.Point(0), tl.Point(1)),
		ops.Intersection(g1, tl.Point(0), tl.Point(1)),
	}
	type row struct {
		v    *ops.View
		s    *Schema
		kind Kind
		want *Graph
	}
	var rows []row
	for _, v := range views {
		for _, s := range []*Schema{MustSchema(g1, 1), MustSchema(g1, 0, 1)} {
			for _, kind := range []Kind{Distinct, All} {
				rows = append(rows, row{v, s, kind, AggregateMap(v, s, kind)})
			}
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			for _, rw := range rows {
				if got := Aggregate(rw.v, rw.s, rw.kind); !got.Equal(rw.want) {
					select {
					case errs <- fmt.Sprintf("snapshot read while appending, %v %s:\n%s\nwant\n%s", rw.s.AttrNames(), rw.kind, got, rw.want):
					default:
					}
					return
				}
			}
		}
	}()
	for p := 2; p < 8; p++ {
		point(p, 40*p-80, 40*p+20) // revisits g1's singles, adds new ones
		g := acc.Snapshot()
		all := g.Timeline().All()
		s := MustSchema(g, 0, 1)
		for _, kind := range []Kind{Distinct, All} {
			v := ops.Union(g, all, all)
			if got, want := Aggregate(v, s, kind), AggregateMap(v, s, kind); !got.Equal(want) {
				t.Fatalf("snapshot of %d points %s:\n%s\nwant\n%s", p+1, kind, got, want)
			}
		}
	}
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
	if got := g1.PointIndex().MultiNodes().Count(); got != 50 {
		t.Fatalf("g1's multi-appearance set changed under later appends: %d nodes", got)
	}
	if a, _ := singlesPaths(views[0], rows[0].s); a == 0 {
		t.Fatal("the union over g1 absorbed no point")
	}
	for _, s := range []*Schema{rows[0].s, rows[len(rows)-1].s} {
		if n, ng, err := recordError(s); ng == 0 || err != nil {
			t.Fatalf("g1's scan records, %v: %d checked, %d grouped, %v", s.AttrNames(), n, ng, err)
		}
	}
}

// TestSinglesAfterRetroactiveInsert: a before-insert that gives entities
// living at one point a second appearance replays the series through a
// fresh accumulator, whose graph counts them as multi-appearance entities
// and groups them in its scan records.
func TestSinglesAfterRetroactiveInsert(t *testing.T) {
	series := stream.New(core.AttrSpec{Name: "grp", Kind: core.Static}, core.AttrSpec{Name: "act", Kind: core.TimeVarying})
	batch := func(p int, nodes ...int) stream.Snapshot {
		var snap stream.Snapshot
		for i, n := range nodes {
			l := fmt.Sprintf("n%d", n)
			snap.Nodes = append(snap.Nodes, stream.NodeRecord{Label: l,
				Static: map[string]string{"grp": fmt.Sprint(n % 2)}, Varying: map[string]string{"act": fmt.Sprint((n + p) % 3)}})
			if i > 0 {
				snap.Edges = append(snap.Edges, stream.EdgeRecord{U: fmt.Sprintf("n%d", nodes[i-1]), V: l})
			}
		}
		return snap
	}
	for _, b := range []struct {
		label, before string
		snap          stream.Snapshot
	}{
		{"p0", "", batch(0, 0, 1, 2, 3, 4)},
		{"p2", "", batch(2, 5, 6, 7, 8)},
		{"p1", "p2", batch(1, 2, 3, 4, 5, 6, 9)},
	} {
		if _, err := series.AppendAt(b.label, b.snap, b.before); err != nil {
			t.Fatal(err)
		}
		g, err := series.Graph()
		if err != nil {
			t.Fatal(err)
		}
		var multi []string
		g.PointIndex().MultiNodes().ForEach(func(n int) { multi = append(multi, g.NodeLabel(core.NodeID(n))) })
		if got, want := fmt.Sprint(multi), map[string]string{"p0": "[]", "p2": "[]", "p1": "[n2 n3 n4 n5 n6]"}[b.label]; got != want {
			t.Fatalf("after %s: multi-appearance nodes %s, want %s", b.label, got, want)
		}
		tl := g.Timeline()
		for _, s := range []*Schema{MustSchema(g, 1), MustSchema(g, 0, 1)} {
			for _, v := range []*ops.View{ops.Union(g, tl.All(), tl.All()), ops.At(g, 0),
				ops.Difference(g, tl.Point(0), tl.Point(timeline.Time(tl.Len()-1)))} {
				for _, kind := range []Kind{Distinct, All} {
					if got, want := Aggregate(v, s, kind), AggregateMap(v, s, kind); !got.Equal(want) {
						t.Fatalf("after %s, %v %s:\n%s\nwant\n%s", b.label, s.AttrNames(), kind, got, want)
					}
				}
			}
			if n, ng, err := recordError(s); n == 0 || ng == 0 && tl.Len() > 1 || err != nil { // one point: DIST counts as ALL
				t.Fatalf("after %s, %v scan records: %d checked, %d grouped, %v", b.label, s.AttrNames(), n, ng, err)
			}
		}
	}
}
