package agg

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ops"
	"repro/internal/timeline"
)

// TestAggregateParallelCtxMatchesSerial checks that a live context produces
// exactly the serial result on every kernel.
func TestAggregateParallelCtxMatchesSerial(t *testing.T) {
	g := core.PaperExample()
	defer forceParallel(t)()
	v := ops.Union(g, g.Timeline().All(), g.Timeline().All())
	for _, names := range [][]string{{"gender"}, {"gender", "publications"}} {
		s, err := ByName(g, names...)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []Kind{Distinct, All} {
			want := Aggregate(v, s, kind)
			got, err := AggregateParallelCtx(context.Background(), v, s, kind, 4)
			if err != nil {
				t.Fatalf("%v/%v: %v", names, kind, err)
			}
			if !equalGraphs(want, got) {
				t.Fatalf("%v/%v: ctx result differs from serial", names, kind)
			}
		}
	}
}

// TestAggregateParallelCtxCanceled checks the early exits: an
// already-expired context returns its error without producing a graph, and
// so does one canceled while the kernel runs, down to its dedupe pass.
func TestAggregateParallelCtxCanceled(t *testing.T) {
	g := core.PaperExample()
	defer forceParallel(t)()
	s, err := ByName(g, "gender")
	if err != nil {
		t.Fatal(err)
	}
	v := ops.Union(g, g.Timeline().All(), g.Timeline().All())

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if ag, err := AggregateParallelCtx(ctx, v, s, Distinct, 4); err != context.Canceled {
		t.Fatalf("canceled ctx: got (%v, %v), want context.Canceled", ag, err)
	}

	dctx, dcancel := context.WithTimeout(context.Background(), -time.Second)
	defer dcancel()
	if ag, err := AggregateParallelCtx(dctx, v, s, Distinct, 0); err != context.DeadlineExceeded {
		t.Fatalf("expired deadline: got (%v, %v), want context.DeadlineExceeded", ag, err)
	}

	// A cancellation that lands inside DIST's word-by-word dedupe pass —
	// after it deduplicated some words — stops the kernel, leaves the pooled
	// scratch clean, and surfaces as the context's error.
	g = dataset.DBLPScaled(1, 0.3)
	all := g.Timeline().All()
	v, s = ops.Union(g, all, all), MustSchema(g, g.MustAttr("publications"))
	landed := 0
	for k := 1; ; k++ {
		sc := s.getScratch()
		gen0, probes, inside := sc.gen, 0, false
		done := denseVarying(v, s, Distinct, nil, sc, 0, g.NumNodes(), 0, g.NumEdges(), func() bool {
			if probes++; probes < k {
				return false
			}
			inside = sc.gen > gen0
			return true
		})
		s.putScratch(sc)
		if done {
			break
		}
		if inside {
			landed++
		}
	}
	if landed < 2 {
		t.Fatalf("only %d cancellations landed inside the dedupe pass", landed)
	}
	mid, cancelMid := context.WithCancel(context.Background())
	cancelAtFirst := func(core.NodeID, timeline.Time) bool { cancelMid(); return true } // runs inside the scan
	if ag, err := AggregateFiltered(mid, v, s, Distinct, cancelAtFirst); ag != nil || err != context.Canceled {
		t.Fatalf("canceled mid-scan: (%v, %v), want (nil, context.Canceled)", ag, err)
	}
	if got, want := Aggregate(v, s, Distinct), AggregateMap(v, s, Distinct); !got.Equal(want) {
		t.Fatal("a canceled scan returned its scratch dirty")
	}
}

// forceParallel lowers the serial-fallback threshold so the tiny paper
// fixture takes the sharded path, restoring it on cleanup.
func forceParallel(t testing.TB) func() {
	t.Helper()
	old := parallelMinEntities
	parallelMinEntities = 0
	return func() { parallelMinEntities = old }
}

func equalGraphs(a, b *Graph) bool {
	if len(a.Nodes) != len(b.Nodes) || len(a.Edges) != len(b.Edges) {
		return false
	}
	for tu, w := range a.Nodes {
		if b.Nodes[tu] != w {
			return false
		}
	}
	for k, w := range a.Edges {
		if b.Edges[k] != w {
			return false
		}
	}
	return true
}
