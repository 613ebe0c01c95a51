package evolution

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gtest"
	"repro/internal/timeline"
)

// windowPairs draws interval pairs on tl that cover every relation two
// windows can have: overlapping, gapped, empty old, empty new, identical —
// then n random ones (contiguous and scattered).
func windowPairs(r *rand.Rand, tl *timeline.Timeline, n int) [][2]timeline.Interval {
	T := tl.Len()
	at := func(f float64) timeline.Time { return timeline.Time(min(T-1, int(f*float64(T)))) }
	some := gtest.RandomInterval(r, tl)
	pairs := [][2]timeline.Interval{
		{tl.Range(0, at(0.6)), tl.Range(at(0.3), timeline.Time(T-1))}, // overlapping
		{tl.Range(0, at(0.2)), tl.Range(at(0.7), timeline.Time(T-1))}, // gapped
		{tl.Empty(), some},
		{some, tl.Empty()},
		{some, some},
		{tl.All(), tl.All()},
	}
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			pairs = append(pairs, [2]timeline.Interval{gtest.RandomRange(r, tl), gtest.RandomRange(r, tl)})
		} else {
			pairs = append(pairs, [2]timeline.Interval{gtest.RandomInterval(r, tl), gtest.RandomInterval(r, tl)})
		}
	}
	return pairs
}

// appearanceFilter keeps about two appearances in three, depending on both
// the node and the time point.
func appearanceFilter(n core.NodeID, t timeline.Time) bool { return (int(n)+2*int(t))%3 != 0 }

// schemasOf returns one all-static, one all-varying and one mixed schema
// over g's attributes (whichever of them g's attributes allow).
func schemasOf(g *core.Graph) map[string]*agg.Schema {
	var static, varying []core.AttrID
	for a := 0; a < g.NumAttrs(); a++ {
		if g.Attr(core.AttrID(a)).Kind == core.Static {
			static = append(static, core.AttrID(a))
		} else {
			varying = append(varying, core.AttrID(a))
		}
	}
	out := map[string]*agg.Schema{}
	if len(static) > 0 {
		out["static"] = agg.MustSchema(g, static[:min(2, len(static))]...)
	}
	if len(varying) > 0 {
		out["varying"] = agg.MustSchema(g, varying...)
	}
	if len(static) > 0 && len(varying) > 0 {
		out["mixed"] = agg.MustSchema(g, varying[0], static[0])
	}
	return out
}

// timelineByPairs is the T−1-call loop Timeline replaced: one map
// aggregation per consecutive pair of points, reduced to class totals.
func timelineByPairs(g *core.Graph, s *agg.Schema, kind agg.Kind, filter Filter) []TimelineStep {
	tl := g.Timeline()
	out := make([]TimelineStep, 0, tl.Len())
	for i := 0; i < tl.Len()-1; i++ {
		ev := AggregateMap(g, tl.Point(timeline.Time(i)), tl.Point(timeline.Time(i+1)), s, kind, filter)
		step := TimelineStep{Old: timeline.Time(i), New: timeline.Time(i + 1)}
		for _, w := range ev.Nodes {
			step.NodeSt += w.St
			step.NodeGr += w.Gr
			step.NodeShr += w.Shr
		}
		for _, w := range ev.Edges {
			step.EdgeSt += w.St
			step.EdgeGr += w.Gr
			step.EdgeShr += w.Shr
		}
		step.NodeTotal = step.NodeSt + step.NodeGr + step.NodeShr
		step.EdgeTotal = step.EdgeSt + step.EdgeGr + step.EdgeShr
		out = append(out, step)
	}
	return out
}

// checkSweep asserts, for every schema shape of g, kind, filter and window
// pair: sweep ≡ AggregateMap, Timeline ≡ the per-pair loop, and TileSweep
// ≡ per-step AggregateMap node weights at widths 1, 2, a random one and T
// (or only at the given ones: the oracle costs a graph scan per step).
func checkSweep(t *testing.T, g *core.Graph, r *rand.Rand, pairs int, widths ...int) {
	t.Helper()
	tl := g.Timeline()
	for name, s := range schemasOf(g) {
		for _, kind := range []agg.Kind{agg.Distinct, agg.All} {
			for fi, filter := range []Filter{nil, appearanceFilter} {
				for _, p := range windowPairs(r, tl, pairs) {
					got := Aggregate(g, p[0], p[1], s, kind, filter)
					want := AggregateMap(g, p[0], p[1], s, kind, filter)
					if !reflect.DeepEqual(got.Nodes, want.Nodes) || !reflect.DeepEqual(got.Edges, want.Edges) {
						t.Fatalf("%s %v filter=%d %v → %v: sweep diverges from AggregateMap\n got %v\nwant %v",
							name, kind, fi, p[0], p[1], got, want)
					}
				}
				got, want := Timeline(g, s, kind, filter), timelineByPairs(g, s, kind, filter)
				if len(got) != len(want) {
					t.Fatalf("%s %v filter=%d: Timeline has %d steps, the per-pair loop %d", name, kind, fi, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s %v filter=%d: Timeline step %d = %+v, the per-pair loop has %+v", name, kind, fi, i, got[i], want[i])
					}
				}
				ws := widths
				if ws == nil {
					ws = []int{1, 2, 1 + r.Intn(tl.Len()), tl.Len()}
				}
				for _, width := range ws {
					checkTiles(t, g, s, kind, width, filter)
				}
			}
		}
	}
}

// checkTiles compares TileSweep with one AggregateMap call per step.
func checkTiles(t *testing.T, g *core.Graph, s *agg.Schema, kind agg.Kind, width int, filter Filter) {
	t.Helper()
	tl := g.Timeline()
	T := tl.Len()
	cells, err := TileSweep(context.Background(), g, s, kind, width, filter)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]map[agg.Tuple]Weights{}
	for i, c := range cells {
		if i > 0 && (cells[i-1].Step > c.Step || cells[i-1].Step == c.Step && cells[i-1].Tuple >= c.Tuple) {
			t.Fatalf("width %d: cells not ordered by (step, tuple) at %d", width, i)
		}
		if got[c.Step] == nil {
			got[c.Step] = map[agg.Tuple]Weights{}
		}
		got[c.Step][c.Tuple] = c.Weights
	}
	tile := func(j int) timeline.Interval {
		return tl.Range(timeline.Time(j*width), timeline.Time(min((j+1)*width, T)-1))
	}
	for step := 0; (step+1)*width < T; step++ {
		want := AggregateMap(g, tile(step), tile(step+1), s, kind, filter).Nodes
		if len(want) == 0 {
			want = nil
		}
		if !reflect.DeepEqual(got[step], want) {
			t.Fatalf("width %d step %d: TileSweep %v, AggregateMap %v", width, step, got[step], want)
		}
		delete(got, step)
	}
	if len(got) != 0 {
		t.Fatalf("width %d: TileSweep reports steps past the timeline: %v", width, got)
	}
}

func TestSweepMatchesMapRandomGraphs(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := gtest.RandomGraph(r, gtest.DefaultParams())
		checkSweep(t, g, r, 4)
	}
}

// TestSweepMultiWordTimestamps runs the suite where τ spans five words and
// values are missing (LongLivedGraph leaves one node in ten without grp and
// sets act at a quarter of the points).
func TestSweepMultiWordTimestamps(t *testing.T) {
	r := rand.New(rand.NewSource(320))
	g := gtest.LongLivedGraph(r, 320)
	checkSweep(t, g, r, 6)
}

// movieLens returns MovieLens at scale 0.1, generated once for the package's
// tests (the generator takes ten seconds there; -short settles for 0.04).
var movieLens = sync.OnceValue(func() *core.Graph {
	if testing.Short() {
		return dataset.MovieLensScaled(1, 0.04)
	}
	return dataset.MovieLensScaled(1, 0.1)
})

func TestSweepMatchesMapOnDatasets(t *testing.T) {
	for name, g := range map[string]*core.Graph{
		"dblp":      dataset.DBLPScaled(1, 0.2),
		"movielens": movieLens(),
	} {
		t.Run(name, func(t *testing.T) {
			checkSweep(t, g, rand.New(rand.NewSource(7)), 0, 3)
		})
	}
}

// TestLargeDomainMatchesMap runs the sweep where its accumulators leave
// flat arrays for maps: MovieLens' four attributes (domain 9,828, ~10⁸ edge
// codes), and wide synthetic schemas whose codes outgrow int32 — edge codes
// on the varying one (domain 50,000 > 46,341), node codes on the mixed one
// (domain 2.5·10⁹ > 2³¹).
func TestLargeDomainMatchesMap(t *testing.T) {
	g := movieLens()
	tl := g.Timeline()
	big := agg.MustSchema(g, g.MustAttr("gender"), g.MustAttr("age"), g.MustAttr("occupation"), g.MustAttr("rating"))
	old, new := tl.Range(0, 2), tl.Range(2, timeline.Time(tl.Len()-1))
	for _, kind := range []agg.Kind{agg.Distinct, agg.All} {
		for _, filter := range []Filter{nil, appearanceFilter} {
			got, want := Aggregate(g, old, new, big, kind, filter), AggregateMap(g, old, new, big, kind, filter)
			if got.String() != want.String() {
				t.Fatalf("%v: Aggregate on the four-attribute schema diverges from AggregateMap", kind)
			}
		}
		if got, want := Timeline(g, big, kind, nil), timelineByPairs(g, big, kind, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: Timeline on the four-attribute schema diverges from the per-pair loop", kind)
		}
		checkTiles(t, g, big, kind, 2, nil)
	}
	r := rand.New(rand.NewSource(33))
	wide := gtest.WideGraph(r, 300, 6, 50_000, 50_000, 3)
	checkSweep(t, wide, r, 2, 1, 4)
}

// TestOnePointTimeline: no consecutive pair, no step.
func TestOnePointTimeline(t *testing.T) {
	b := core.NewBuilder(timeline.MustNew("only"), core.AttrSpec{Name: "c", Kind: core.Static})
	n := b.AddNode("a")
	b.SetNodeTime(n, 0)
	b.SetStatic(0, n, "x")
	g := b.MustBuild()
	s := agg.MustSchema(g, 0)
	if steps := Timeline(g, s, agg.Distinct, nil); len(steps) != 0 {
		t.Fatalf("Timeline = %v, want no step", steps)
	}
	if cells, err := TileSweep(context.Background(), g, s, agg.Distinct, 1, nil); err != nil || len(cells) != 0 {
		t.Fatalf("TileSweep = %v, %v; want no cell", cells, err)
	}
}

// TestSweepCancellation: a context canceled before the call, and one
// canceled while the entity pass is running, both end the call with the
// context's error — the second without visiting the rest of the graph.
func TestSweepCancellation(t *testing.T) {
	g := dataset.DBLPScaled(1, 0.25)
	if g.NumNodes() <= sweepChunk {
		t.Fatalf("graph has %d nodes; the mid-run case needs more than one chunk", g.NumNodes())
	}
	// A code space of 1.5·10⁶ node tuples keeps every accumulator in map
	// storage.
	wide := gtest.WideGraph(rand.New(rand.NewSource(311)), 5000, 21, 50_000, 30)
	for name, s := range map[string]*agg.Schema{
		"dense": agg.MustSchema(g, g.MustAttr("gender"), g.MustAttr("publications")),
		"map":   agg.MustSchema(wide, 0, 1),
	} {
		g, tl := s.Graph(), s.Graph().Timeline()
		appearances := 0
		for n := 0; n < g.NumNodes(); n++ {
			appearances += g.NodeTau(core.NodeID(n)).Count()
		}
		calls := map[string]func(ctx context.Context, f Filter) error{
			"aggregate": func(ctx context.Context, f Filter) error {
				_, err := AggregateCtx(ctx, g, tl.Range(0, 9), tl.Range(10, 20), s, agg.Distinct, f)
				return err
			},
			"timeline": func(ctx context.Context, f Filter) error {
				_, err := TimelineCtx(ctx, g, s, agg.Distinct, f)
				return err
			},
			"tiles": func(ctx context.Context, f Filter) error {
				_, err := TileSweep(ctx, g, s, agg.Distinct, 2, f)
				return err
			},
		}
		for family, call := range calls {
			t.Run(fmt.Sprintf("%s/%s", name, family), func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				if err := call(ctx, nil); err != context.Canceled {
					t.Fatalf("pre-canceled: err = %v, want context.Canceled", err)
				}
				// The filter runs inside the kernel: cancel from its first call.
				ctx, cancel = context.WithCancel(context.Background())
				defer cancel()
				seen := 0
				err := call(ctx, func(core.NodeID, timeline.Time) bool { seen++; cancel(); return true })
				if err != context.Canceled {
					t.Fatalf("canceled mid-run: err = %v, want context.Canceled", err)
				}
				if seen == 0 || seen >= appearances {
					t.Fatalf("kernel filtered %d of %d node appearances after the cancel; want it to stop early", seen, appearances)
				}
			})
		}
	}
}
