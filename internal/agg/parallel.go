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
// Worthwhile for large views (the whole DBLP timeline, dense MovieLens
// months); measured by BenchmarkAblationParallelAggregation.
func AggregateParallel(v *ops.View, s *Schema, kind Kind, workers int) *Graph {
	if v.Graph() != s.g {
		panic("agg: view and schema built on different graphs")
	}
	// context.Background is never canceled, so the shared engine's
	// cancellation probes compile down to nothing on this path.
	return aggregateParallelInner(context.Background(), v, s, kind, workers)
}

// parallelMinEntities is the measured crossover below which
// AggregateParallel falls back to the serial engine: on smaller views the
// cost of spawning workers, scanning twice the scratch and merging partials
// exceeds what a second core saves. Re-measured against the time-major
// kernel (two workers over serial, -cpu 2, union views of growing spans on
// (gender, publications) / (gender, rating) at scale 1, two runs each): a
// tie or a loss at 4k–44k selected entities (0.67–1.3×), a loss at 100k and
// 163k (0.76–0.95× DIST, 0.85–1.13× ALL), a win at 250k (1.3–1.6× DIST,
// 0.95–1.5× ALL) and 900k (1.2–1.8×). The kernel is ~3× cheaper per
// appearance than the one 16,384 was measured against, the fixed costs are
// not, so the crossover moved up; it sits between the largest view that
// lost and the smallest that won. Neither kind nor appearances per entity
// separated wins from losses better than the entity count. A variable, not
// a constant, so tests can force the parallel path on small fixtures.
var parallelMinEntities = 200_000

// ParallelMinEntities returns the serial/parallel crossover: views selecting
// fewer entities than this run serially even when workers > 1. Exported for
// the query planner, which reports the execution mode a plan will use.
func ParallelMinEntities() int { return parallelMinEntities }
