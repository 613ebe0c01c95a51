package agg

import (
	"context"

	"repro/internal/ops"
)

// AggregateParallel computes the same result as Aggregate using several
// goroutines. The view's node and edge id spaces are split into
// contiguous shards, each worker aggregates its shards into a private
// partial graph, and the partials are merged.
//
// Sharding by entity is correct for both kinds: ALL weights are pure sums,
// and DIST deduplication is per entity (a node's tuples and an edge's
// tuple pairs are only ever deduplicated against themselves), so no
// entity's appearances are split across workers.
//
// workers ≤ 0 selects GOMAXPROCS. With one worker — or when the view
// selects fewer than ParallelMinEntities entities, where goroutine spawn
// and merge overhead dominate — it falls back to the serial Aggregate.
// Worthwhile for large views (dense MovieLens months); measured by
// BenchmarkAblationParallelAggregation.
func AggregateParallel(v *ops.View, s *Schema, kind Kind, workers int) *Graph {
	if v.Graph() != s.g {
		panic("agg: view and schema built on different graphs")
	}
	// context.Background is never canceled, so the shared engine's
	// cancellation probes compile down to nothing on this path.
	return aggregateParallelInner(context.Background(), v, s, kind, workers)
}

// parallelMinEntities is the measured crossover below which
// AggregateParallel falls back to the serial engine: on small views the
// fixed cost of spawning workers and merging partials exceeds the
// aggregation itself (BenchmarkAblationParallelAggregation shows the serial
// engine winning by >2× at a few thousand entities and losing from a few
// tens of thousands up). A variable, not a constant, so tests can force
// the parallel path on small fixtures.
var parallelMinEntities = 16384

// ParallelMinEntities returns the serial/parallel crossover: views selecting
// fewer entities than this run serially even when workers > 1. Exported for
// the query planner, which reports the execution mode a plan will use.
func ParallelMinEntities() int { return parallelMinEntities }
