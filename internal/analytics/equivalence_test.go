package analytics

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/evolution"
	"repro/internal/materialize"
	"repro/internal/timeline"
)

// randomGraph builds a seeded random evolving graph: random timeline
// length, node/edge lifetimes, one static and one time-varying attribute.
func randomGraph(t testing.TB, seed int64) *core.Graph {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	T := 1 + r.Intn(8)
	labels := make([]string, T)
	for i := range labels {
		labels[i] = fmt.Sprintf("t%d", i)
	}
	tl, err := timeline.New(labels...)
	if err != nil {
		t.Fatalf("timeline: %v", err)
	}
	b := core.NewBuilder(tl,
		core.AttrSpec{Name: "color", Kind: core.Static},
		core.AttrSpec{Name: "level", Kind: core.TimeVarying},
	)
	nNodes := 2 + r.Intn(28)
	nodes := make([]core.NodeID, nNodes)
	active := make([][]bool, nNodes) // node × time activity, for edge placement
	for i := range nodes {
		id := b.AddNode(fmt.Sprintf("n%02d", i))
		nodes[i] = id
		active[i] = make([]bool, T)
		b.SetStatic(0, id, []string{"red", "green", "blue"}[r.Intn(3)])
		alive := false
		for ti := 0; ti < T; ti++ {
			if r.Float64() < 0.6 {
				active[i][ti] = true
				alive = true
			}
		}
		if !alive { // every node exists somewhere
			active[i][r.Intn(T)] = true
		}
		for ti := 0; ti < T; ti++ {
			if active[i][ti] {
				b.SetNodeTime(id, timeline.Time(ti))
				b.SetVarying(1, id, timeline.Time(ti), fmt.Sprintf("%d", r.Intn(4)))
			}
		}
	}
	for i := 0; i < 3*nNodes; i++ {
		ui, vi := r.Intn(nNodes), r.Intn(nNodes)
		if ui == vi {
			continue
		}
		var times []int
		for ti := 0; ti < T; ti++ {
			if active[ui][ti] && active[vi][ti] && r.Float64() < 0.5 {
				times = append(times, ti)
			}
		}
		if len(times) == 0 {
			continue
		}
		e := b.AddEdge(nodes[ui], nodes[vi])
		for _, ti := range times {
			b.SetEdgeTime(e, timeline.Time(ti))
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return g
}

// checkEvents asserts EventsSweep ≡ NaiveEvents to the byte on g at every
// width 1…T (or the given ones) — so every length of the short last tile,
// the one-step tiling ⌈T/2⌉ and the no-step tiling T — for both kinds, with
// and without a WHERE filter, under MIN 0 and a MIN drawn from the weights
// the graph really has (so that it drops some rows and keeps others).
func checkEvents(t *testing.T, g *core.Graph, r *rand.Rand, attrs []string, widths ...int) {
	t.Helper()
	if widths == nil {
		for w := 1; w <= g.Timeline().Len(); w++ {
			widths = append(widths, w)
		}
	}
	filters := []evolution.Filter{nil, func(n core.NodeID, tp timeline.Time) bool { return (int(n)+int(tp))%3 != 0 }}
	for _, w := range widths {
		for _, kind := range []agg.Kind{agg.Distinct, agg.All} {
			for fi, filter := range filters {
				spec := EventsSpec{Schema: mustSchema(t, g, attrs...), Kind: kind, Width: w, Filter: filter}
				all := NaiveEvents(g, spec)
				mins := []int64{0}
				if len(all.Rows) > 0 {
					row := all.Rows[r.Intn(len(all.Rows))]
					mins = append(mins, row.Gr+row.Shr, row.Gr+row.Shr+1)
				}
				for _, min := range mins {
					spec.Min = min
					want := asJSON(t, NaiveEvents(g, spec))
					if got := asJSON(t, EventsSweep(g, spec)); got != want {
						t.Fatalf("events sweep (w=%d kind=%v filter=%d min=%d) diverges:\n got %s\nwant %s", w, kind, fi, min, got, want)
					}
				}
			}
		}
	}
}

// checkAll asserts every engine pair agrees to the byte on g for a sweep
// of specs derived from the rng.
func checkAll(t *testing.T, g *core.Graph, r *rand.Rand, attrs []string) {
	t.Helper()
	T := g.Timeline().Len()
	kinds := []agg.Kind{agg.Distinct, agg.All}
	cat := materialize.NewCatalog(g)
	checkEvents(t, g, r, attrs)

	// TREND: widths 1..3, both kinds; the catalog engine on ALL only.
	for w := 1; w <= 3; w++ {
		for _, kind := range kinds {
			spec := TrendSpec{Schema: mustSchema(t, g, attrs...), Kind: kind, Width: w}
			want := asJSON(t, NaiveTrend(g, spec))
			if got := asJSON(t, TrendScan(g, spec)); got != want {
				t.Errorf("trend scan (w=%d kind=%v) diverges:\n got %s\nwant %s", w, kind, got, want)
			}
			if kind == agg.All {
				res, err := TrendCatalog(cat, g, spec)
				if err != nil {
					t.Fatalf("trend catalog: %v", err)
				}
				if got := asJSON(t, res); got != want {
					t.Errorf("trend catalog (w=%d) diverges:\n got %s\nwant %s", w, got, want)
				}
			}
		}
	}

	// PATHS: random source/target sets, random contiguous windows.
	var all []core.NodeID
	for n := 0; n < g.NumNodes(); n++ {
		all = append(all, core.NodeID(n))
	}
	pick := func(k int) []core.NodeID {
		out := make([]core.NodeID, 0, k)
		for i := 0; i < k; i++ {
			out = append(out, all[r.Intn(len(all))])
		}
		return out
	}
	// A 1-point, a 2-point (when the timeline has two points) and the empty
	// window, then three random ones.
	tl := g.Timeline()
	wins := []timeline.Interval{tl.Point(timeline.Time(r.Intn(T))), tl.Empty()}
	if T >= 2 {
		lo := r.Intn(T - 1)
		wins = append(wins, tl.Range(timeline.Time(lo), timeline.Time(lo+1)))
	}
	for trial := 0; trial < 3; trial++ {
		lo := r.Intn(T)
		hi := lo + r.Intn(T-lo)
		wins = append(wins, tl.Range(timeline.Time(lo), timeline.Time(hi)))
	}
	for _, win := range wins {
		for _, mode := range []string{ModeEarliest, ModeFastest} {
			spec := PathsSpec{Mode: mode, Src: pick(1 + r.Intn(3)), Dst: pick(1 + r.Intn(5)), Window: win}
			want := asJSON(t, NaivePaths(g, spec))
			if got := asJSON(t, NewPathsEngine(g, spec).Run()); got != want {
				t.Errorf("paths frontier (%s %s) diverges:\n got %s\nwant %s", mode, win, got, want)
			}
		}
	}
}

// TestEquivalenceRandomGraphs proves all engines byte-identical to the
// naive oracles on 30 random evolving graphs.
func TestEquivalenceRandomGraphs(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			g := randomGraph(t, seed)
			r := rand.New(rand.NewSource(seed + 1000))
			checkAll(t, g, r, []string{"color", "level"})
			checkAll(t, g, rand.New(rand.NewSource(seed+2000)), []string{"color"})
		})
	}
}

// TestEquivalenceDBLP proves engine/oracle agreement on the synthetic DBLP
// graph at three scales (the two larger ones are skipped under -short).
func TestEquivalenceDBLP(t *testing.T) {
	scales := []float64{0.01, 0.03, 0.08}
	for i, scale := range scales {
		if testing.Short() && i > 0 {
			break
		}
		scale := scale
		t.Run(fmt.Sprintf("scale%g", scale), func(t *testing.T) {
			g := dataset.DBLPScaled(7, scale)
			r := rand.New(rand.NewSource(int64(i)))
			checkAll(t, g, r, []string{"gender"})
		})
	}
}

// TestEventsLargeDomain: EVENTS on the four-attribute MovieLens schema,
// whose tuple codes (domain 9,828; per-step tiles) and slot lookups the
// sweep keeps in map storage, is byte-identical to NaiveEvents.
func TestEventsLargeDomain(t *testing.T) {
	g := dataset.MovieLensScaled(1, 0.05)
	checkEvents(t, g, rand.New(rand.NewSource(5)), []string{"gender", "age", "occupation", "rating"}, 1, 2)
}

// TestAnalyticsConcurrencyHammer runs every engine concurrently on shared
// immutable state; run with -race this is the subsystem's data-race check.
func TestAnalyticsConcurrencyHammer(t *testing.T) {
	g := randomGraph(t, 99)
	schema := mustSchema(t, g, "color", "level")
	cat := materialize.NewCatalog(g)
	eSpec := EventsSpec{Schema: schema, Kind: agg.All, Width: 1}
	tSpec := TrendSpec{Schema: schema, Kind: agg.All, Width: 2}
	pSpec := PathsSpec{Mode: ModeFastest, Src: []core.NodeID{0}, Dst: []core.NodeID{1, 2},
		Window: g.Timeline().All()}
	engine := NewPathsEngine(g, pSpec)
	wantE, wantT, wantP := asJSON(t, EventsSweep(g, eSpec)), asJSON(t, TrendScan(g, tSpec)), asJSON(t, engine.Run())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				if got := asJSON(t, EventsSweep(g, eSpec)); got != wantE {
					t.Errorf("concurrent events diverged")
				}
				if got := asJSON(t, TrendScan(g, tSpec)); got != wantT {
					t.Errorf("concurrent trend diverged")
				}
				if res, err := TrendCatalog(cat, g, tSpec); err != nil || asJSON(t, res) != wantT {
					t.Errorf("concurrent trend catalog diverged (err=%v)", err)
				}
				if got := asJSON(t, engine.Run()); got != wantP {
					t.Errorf("concurrent paths diverged")
				}
			}
		}()
	}
	wg.Wait()
}
