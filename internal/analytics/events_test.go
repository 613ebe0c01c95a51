package analytics

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/evolution"
	"repro/internal/explore"
	"repro/internal/gtest"
	"repro/internal/timeline"
)

// TestEventsMultiWordTimeline checks EventsSweep ≡ NaiveEvents where τ
// spans five words and values are missing, on a static, a time-varying and
// the mixed schema: a 320-point timeline tiled at widths around the word
// size, with short and full last tiles, down to one step and none.
func TestEventsMultiWordTimeline(t *testing.T) {
	r := rand.New(rand.NewSource(320))
	g := gtest.LongLivedGraph(r, 320)
	for _, attrs := range [][]string{{"grp"}, {"act"}, {"grp", "act"}} {
		checkEvents(t, g, r, attrs, 1, 2, 7, 63, 64, 65, 160, 319, 320)
	}
}

// TestEventsSweepAllocCeiling bounds what one EVENTS statement allocates on
// DBLP ×0.25 (DIST BY gender, publications: 453 rows). What is left is the
// result — the rows, one label per group and per window, the sort — plus
// the windows' index arrays. The node pass itself must allocate nothing: a
// map or slice made per entity (the parent made a map per (entity, tuple):
// 35,669 allocations, against 63) puts the count far above the ceiling
// again.
func TestEventsSweepAllocCeiling(t *testing.T) {
	g := dataset.DBLPScaled(1, 0.25)
	spec := EventsSpec{Schema: mustSchema(t, g, "gender", "publications"), Kind: agg.Distinct}
	if rows := len(EventsSweep(g, spec).Rows); rows != 453 {
		t.Fatalf("rows = %d, want 453 (the ceiling below is sized for them)", rows)
	}
	const ceiling = 3000
	if allocs := testing.AllocsPerRun(5, func() { EventsSweep(g, spec) }); allocs > ceiling {
		t.Fatalf("EventsSweep allocates %.0f times per call, ceiling %d", allocs, ceiling)
	}
}

// TestEventsSweepCancellation: a context canceled before the call, and one
// canceled from inside the node pass, both end EventsSweepCtx with the
// context's error; a live one returns EventsSweep's result.
func TestEventsSweepCancellation(t *testing.T) {
	g := dataset.DBLPScaled(1, 0.25)
	appearances := 0
	for n := 0; n < g.NumNodes(); n++ {
		appearances += g.NodeTau(core.NodeID(n)).Count()
	}
	spec := EventsSpec{Schema: mustSchema(t, g, "gender", "publications"), Kind: agg.All, Width: 2, Min: 3}

	got, err := EventsSweepCtx(context.Background(), g, spec)
	if err != nil || asJSON(t, got) != asJSON(t, EventsSweep(g, spec)) {
		t.Fatalf("live context: err = %v, or the result differs from EventsSweep", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := EventsSweepCtx(ctx, g, spec); err != context.Canceled || res != nil {
		t.Fatalf("pre-canceled: got (%v, %v), want (nil, context.Canceled)", res, err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	spec.Filter = func(core.NodeID, timeline.Time) bool { seen++; cancel(); return true }
	if res, err := EventsSweepCtx(ctx, g, spec); err != context.Canceled || res != nil {
		t.Fatalf("canceled mid-run: got (%v, %v), want (nil, context.Canceled)", res, err)
	}
	if seen == 0 || seen >= appearances {
		t.Fatalf("the node pass filtered %d of %d appearances after the cancel; want it to stop early", seen, appearances)
	}
}

// TestEvolutionFamilyHammer runs EVOLVE, TIMELINE, EVENTS, TOP and EXPLORE
// from 16 goroutines that share one schema — so the sweep kernel's and the
// aggregation kernel's pooled scratch — and one graph, whose point index is
// built lazily by whichever goroutine gets there first. Run with -race.
func TestEvolutionFamilyHammer(t *testing.T) {
	seed := int64(42)
	for randomGraph(t, seed).Timeline().Len() < 4 {
		seed++
	}
	type answers struct{ evolve, timeline, events, top, explore string }
	ask := func(g *core.Graph, s *agg.Schema) answers {
		tl := g.Timeline()
		explorer := func() *explore.Explorer {
			return &explore.Explorer{Graph: g, Schema: s, Kind: agg.Distinct, Result: explore.TotalEdges}
		}
		return answers{
			evolve:   asJSON(t, evolution.Aggregate(g, tl.Range(0, 1), tl.Range(1, timeline.Time(tl.Len()-1)), s, agg.All, nil)),
			timeline: asJSON(t, evolution.Timeline(g, s, agg.Distinct, nil)),
			events:   asJSON(t, EventsSweep(g, EventsSpec{Schema: s, Kind: agg.Distinct, Width: 2})),
			top:      asJSON(t, explore.TopEdgeTuples(explorer(), evolution.Growth, 3)),
			explore:  asJSON(t, explorer().Explore(evolution.Stability, explore.UnionSemantics, explore.ExtendNew, 1)),
		}
	}
	// The reference answers come from a second copy of the graph, so that
	// the goroutines find the shared one without an index or scratch.
	ref := randomGraph(t, seed)
	want := ask(ref, mustSchema(t, ref, "color", "level"))
	g := randomGraph(t, seed)
	s := mustSchema(t, g, "color", "level")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				if got := ask(g, s); got != want {
					t.Errorf("concurrent answers diverged:\n got %+v\nwant %+v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
