package plan

import "repro/internal/metrics"

// Selections counts which physical operator the planner chose for each
// executed plan, one counter per operator. Cached plans count on every
// execution (selection is a property of the run, not the compile), so the
// counters reflect live traffic. They are package-level because planning happens inside the library where no
// registry is in scope; the serving layer registers them under one metric
// family (graphtempod_planner_selections_total{op=...}).
var Selections struct {
	CatalogUnion metrics.Counter // union-ALL answered through the materialization catalog
	DenseAgg     metrics.Counter // view aggregation on the aggregation kernels
	MeasureAgg   metrics.Counter // SUM/AVG/MIN/MAX measure aggregation
	FilteredAgg  metrics.Counter // predicate-filtered aggregation (serial time-major kernel)
	FastExplore  metrics.Counter // exploration on the incremental-view fast path
	TuneExplore  metrics.Counter // §3.5 threshold tuning loop (memoized evaluation)
	Top          metrics.Counter // top-N attribute-group ranking
	Evolve       metrics.Counter // evolution aggregate
	Timeline     metrics.Counter // per-consecutive-pair evolution timeline
	EventsSweep  metrics.Counter // EVENTS on the single-pass entity-sweep engine
	PathsFront   metrics.Counter // PATHS on the per-point adjacency frontier engine
	TrendCatalog metrics.Counter // TREND composed from the catalog's prefix sums
	TrendScan    metrics.Counter // TREND on the direct sliding-scan engine
}

// CacheHits / CacheMisses count plan-cache lookups in Compile. A hit skips
// resolution and operator selection entirely and returns the compiled plan.
var (
	CacheHits   metrics.Counter
	CacheMisses metrics.Counter
)

// Feedbacks counts runtime observations recorded into the planner's
// feedback store (feedback.go), one counter per observation kind. The
// serving layer registers them under graphtempod_planner_feedback_total.
var Feedbacks struct {
	Cardinality metrics.Counter // view entity / result cardinality records
}
