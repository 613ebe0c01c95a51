package agg

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ops"
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

// TestAggregateParallelCtxCanceled checks the early exit: an
// already-expired context returns its error without producing a graph.
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
}

// forceParallel lowers the serial-fallback threshold so the tiny paper
// fixture takes the sharded path, restoring it on cleanup.
func forceParallel(t *testing.T) func() {
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
