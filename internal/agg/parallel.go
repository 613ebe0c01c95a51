package agg

// parallelMinEntities is the measured crossover below which
// AggregateParallelCtx falls back to the serial engine: on smaller views the
// cost of spawning workers, scanning twice the scratch and merging partials
// exceeds what a second core saves. Re-measured against the kernel that
// reads per-point tuple-code rows and deduplicates DIST word by word
// (BenchmarkParallelCrossover, -cpu 2 on a 2-vCPU VM, union views of
// growing spans, three runs each): two workers lose to one at
// 4k–176k selected entities (0.5–1.0× on DBLP (gender, publications) at
// scale 1 and 4, 0.73–0.85× on MovieLens (gender, rating) at 100k and
// 163k) and win at 250k (DBLP whole timeline: 1.3–1.5×) and at 0.9–1M (DBLP
// ×4 1.8–2×, MovieLens 1.2–1.6×). The one tie above the constant, DBLP ×4's
// first 16 years (546k, 0.97–1.03×), selects mostly low ids, so one shard
// holds most of the work: id skew, not size. The crossover still sits
// between the largest view that lost and the smallest that won. A
// variable, not a constant, so tests can force the parallel path on small
// fixtures.
var parallelMinEntities = 200_000

// ParallelMinEntities returns the serial/parallel crossover: views selecting
// fewer entities than this run serially even when workers > 1. Exported for
// the query planner, which reports the execution mode a plan will use.
func ParallelMinEntities() int { return parallelMinEntities }
