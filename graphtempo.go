// Package graphtempo is a Go implementation of GraphTempo — an aggregation
// framework for evolving graphs (Tsoukanara, Koloniari, Pitoura; EDBT
// 2023).
//
// GraphTempo models temporal attributed graphs (nodes and edges carry
// existence timestamps; nodes carry static and time-varying attributes)
// and provides:
//
//   - temporal operators — Project, Union, Intersection, Difference
//     (§2.1 of the paper) — producing lightweight views over a base graph;
//   - attribute aggregation with COUNT in distinct (DIST) and non-distinct
//     (ALL) flavours (§2.2), over any view;
//   - the evolution graph and its aggregation, discerning stability,
//     growth and shrinkage weights per attribute tuple (§2.3);
//   - exploration strategies (U-Explore / I-Explore and the degenerate
//     monotone cases of Table 1) that find minimal or maximal interval
//     pairs containing at least k events (§3);
//   - partial materialization with T-distributive (per-time-point → union
//     ALL) and D-distributive (attribute roll-up) reuse (§4.3);
//   - seeded synthetic datasets reproducing the paper's evaluation graphs
//     (Tables 3–4) and the running example of Figs. 1–4.
//
// This package is a facade re-exporting the public API of the internal
// packages; see the examples directory for complete programs.
//
// A minimal session:
//
//	g := graphtempo.PaperExample()
//	tl := g.Timeline()
//	union := graphtempo.Union(g, tl.Point(0), tl.Point(1))
//	schema, _ := graphtempo.SchemaByName(g, "gender", "publications")
//	fmt.Print(graphtempo.Aggregate(union, schema, graphtempo.Distinct))
package graphtempo

import (
	"context"
	"io"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dot"
	"repro/internal/evolution"
	"repro/internal/explore"
	"repro/internal/materialize"
	"repro/internal/ops"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/tgql"
	"repro/internal/timeline"
)

// Model types (Definition 2.1).
type (
	// Graph is an immutable temporal attributed graph.
	Graph = core.Graph
	// Builder assembles a Graph.
	Builder = core.Builder
	// NodeID indexes a node within one graph.
	NodeID = core.NodeID
	// EdgeID indexes an edge within one graph.
	EdgeID = core.EdgeID
	// Endpoints identifies a directed edge by its endpoint ids.
	Endpoints = core.Endpoints
	// AttrID indexes an attribute within a graph's schema.
	AttrID = core.AttrID
	// AttrSpec describes one node attribute (name and kind).
	AttrSpec = core.AttrSpec
	// AttrKind distinguishes static from time-varying attributes.
	AttrKind = core.AttrKind
	// Stats summarizes a graph per time point (Tables 3–4).
	Stats = core.Stats
)

// Time domain types.
type (
	// Timeline is an ordered sequence of labeled base time points.
	Timeline = timeline.Timeline
	// Time identifies a base time point by its index.
	Time = timeline.Time
	// Interval is a set of time points on a timeline.
	Interval = timeline.Interval
)

// Operator and aggregation types.
type (
	// View is a node/edge selection produced by a temporal operator.
	View = ops.View
	// Sel pairs an interval with Exists/ForAll membership semantics.
	Sel = ops.Sel
	// AggSchema fixes the attribute set of an aggregation.
	AggSchema = agg.Schema
	// AggGraph is a weighted aggregate graph.
	AggGraph = agg.Graph
	// AggKind selects DIST or ALL counting.
	AggKind = agg.Kind
	// Tuple encodes one attribute-value combination.
	Tuple = agg.Tuple
	// AggEdgeKey identifies an aggregate edge by its endpoint tuples.
	AggEdgeKey = agg.EdgeKey
)

// Evolution and exploration types.
type (
	// EvolutionView is the evolution graph G> between two intervals.
	EvolutionView = evolution.View
	// EvolutionAgg is an aggregated evolution graph with St/Gr/Shr weights.
	EvolutionAgg = evolution.Agg
	// EvolutionWeights is a (stability, growth, shrinkage) triple.
	EvolutionWeights = evolution.Weights
	// EvolutionClass labels an entity as stable, grown or shrunk.
	EvolutionClass = evolution.Class
	// NodeFilter restricts which (node, time) appearances are aggregated.
	NodeFilter = evolution.Filter
	// Explorer finds minimal/maximal interval pairs with ≥ k events.
	Explorer = explore.Explorer
	// ExplorePair is one reported interval pair.
	ExplorePair = explore.Pair
	// ResultMeasure is result(G): total or one tuple's node or edge weight.
	ResultMeasure = explore.Measure
	// Semantics selects union (minimal) or intersection (maximal) search.
	Semantics = explore.Semantics
	// Extend selects which side of a pair is extended.
	Extend = explore.Extend
)

// Materialization types (§4.3).
type (
	// MatStore holds per-time-point ALL aggregates for one schema.
	MatStore = materialize.Store
	// MatCatalog serves aggregate queries from materialized results.
	MatCatalog = materialize.Catalog
	// MatSource reports how a catalog answered a request.
	MatSource = materialize.Source
	// MatCatalogConfig sizes a catalog's serving cache.
	MatCatalogConfig = materialize.CatalogConfig
	// MatStats is an atomic snapshot of a catalog's counters.
	MatStats = materialize.Stats
	// EvalMemo is an opt-in cross-run cache of exploration candidate
	// evaluations (used automatically by TuneK).
	EvalMemo = explore.EvalMemo
	// CoarsenSpec describes a zoom-out of the time axis.
	CoarsenSpec = core.CoarsenSpec
)

// Attribute kinds.
const (
	Static      = core.Static
	TimeVarying = core.TimeVarying
)

// Aggregation kinds (§2.2).
const (
	Distinct = agg.Distinct
	All      = agg.All
)

// Evolution event classes (§2.3).
const (
	Stability = evolution.Stability
	Growth    = evolution.Growth
	Shrinkage = evolution.Shrinkage
)

// Exploration semantics and extension sides (§3).
const (
	UnionSemantics        = explore.UnionSemantics
	IntersectionSemantics = explore.IntersectionSemantics
	ExtendOld             = explore.ExtendOld
	ExtendNew             = explore.ExtendNew
)

// NewTimeline returns a timeline with the given point labels, in order.
func NewTimeline(labels ...string) (*Timeline, error) { return timeline.New(labels...) }

// NewBuilder returns a builder for a graph over tl with the given schema.
func NewBuilder(tl *Timeline, attrs ...AttrSpec) *Builder { return core.NewBuilder(tl, attrs...) }

// ReadGraphDir loads a graph from the CSV directory format of WriteGraphDir.
func ReadGraphDir(dir string) (*Graph, error) { return core.ReadDir(dir) }

// WriteGraphDir writes a graph as labeled-array CSV files (Table 2 layout).
func WriteGraphDir(g *Graph, dir string) error { return core.WriteDir(g, dir) }

// ComputeStats returns per-time-point node and edge counts.
func ComputeStats(g *Graph) Stats { return core.ComputeStats(g) }

// Temporal operators (§2.1).

// Project returns the subgraph existing throughout t1 (Definition 2.2).
func Project(g *Graph, t1 Interval) *View { return ops.Project(g, t1) }

// At is Project on a single time point.
func At(g *Graph, t Time) *View { return ops.At(g, t) }

// Union returns the graph existing in t1 or t2 (Definition 2.3).
func Union(g *Graph, t1, t2 Interval) *View { return ops.Union(g, t1, t2) }

// Intersection returns the graph existing in both t1 and t2
// (Definition 2.4).
func Intersection(g *Graph, t1, t2 Interval) *View { return ops.Intersection(g, t1, t2) }

// Difference returns the graph existing in t1 but not t2 (Definition 2.5).
func Difference(g *Graph, t1, t2 Interval) *View { return ops.Difference(g, t1, t2) }

// Exists selects entities existing at ≥ 1 point of iv (union semantics).
func Exists(iv Interval) Sel { return ops.Exists(iv) }

// ForAllOf selects entities existing at every point of iv (intersection
// semantics).
func ForAllOf(iv Interval) Sel { return ops.ForAll(iv) }

// StabilityView generalizes Intersection to selector semantics.
func StabilityView(g *Graph, old, new Sel) *View { return ops.StabilityView(g, old, new) }

// DifferenceView generalizes Difference to selector semantics.
func DifferenceView(g *Graph, pos, neg Sel) *View { return ops.DifferenceView(g, pos, neg) }

// Materialize copies a view out into a standalone graph (Algorithm 1).
func Materialize(v *View) (*Graph, error) { return ops.Materialize(v) }

// Aggregation (§2.2, Algorithm 2).

// NewSchema returns an aggregation schema on the given attributes.
func NewSchema(g *Graph, attrs ...AttrID) (*AggSchema, error) { return agg.NewSchema(g, attrs...) }

// SchemaByName builds an aggregation schema from attribute names.
func SchemaByName(g *Graph, names ...string) (*AggSchema, error) { return agg.ByName(g, names...) }

// Aggregate computes the aggregate graph of a view.
func Aggregate(v *View, s *AggSchema, kind AggKind) *AggGraph { return agg.Aggregate(v, s, kind) }

// AggregateParallel is Aggregate with sharded multi-goroutine execution;
// workers ≤ 0 selects GOMAXPROCS.
func AggregateParallel(v *View, s *AggSchema, kind AggKind, workers int) *AggGraph {
	return agg.AggregateParallel(v, s, kind, workers)
}

// AggregateParallelCtx is AggregateParallel under a context deadline: the
// kernels poll ctx between chunks and the call returns ctx.Err() when it
// expires mid-aggregation. This is the entry point graphtempod serves
// requests through.
func AggregateParallelCtx(ctx context.Context, v *View, s *AggSchema, kind AggKind, workers int) (*AggGraph, error) {
	return agg.AggregateParallelCtx(ctx, v, s, kind, workers)
}

// AggregateFiltered is Aggregate restricted to the (node, time)
// appearances admitted by filter (nil admits everything).
func AggregateFiltered(v *View, s *AggSchema, kind AggKind, filter NodeFilter) *AggGraph {
	ag, _ := agg.AggregateFiltered(context.Background(), v, s, kind, agg.Filter(filter))
	return ag
}

// Query parses and executes one TGQL statement against g, e.g.
//
//	graphtempo.Query(g, "AGG DIST gender ON UNION(t0, t1)")
//	graphtempo.Query(g, "EXPLORE STABILITY BY gender EDGE 'f' -> 'f' K 62")
func Query(g *Graph, statement string) (*QueryResult, error) { return tgql.Exec(g, statement) }

// QueryResult is the output of a TGQL statement.
type QueryResult = tgql.Result

// QueryPlan is the compiled physical plan of one statement: execute it
// with Execute, inspect the selected operators with Explain.
type QueryPlan = plan.Plan

// Plan compiles one TGQL statement into its physical plan without
// executing it: the planner's cost model selects the concrete operators
// (aggregation kernel, exploration engine, materialization source).
func Plan(g *Graph, statement string) (*QueryPlan, error) { return tgql.PlanQuery(g, statement) }

// ExplainString renders the physical plan of one TGQL statement, e.g.
//
//	graphtempo.ExplainString(g, "AGG ALL gender ON UNION(t0, t1)")
func ExplainString(g *Graph, statement string) (string, error) {
	p, err := tgql.PlanQuery(g, statement)
	if err != nil {
		return "", err
	}
	return p.Explain(), nil
}

// Rollup derives an aggregate on an attribute subset from a finer
// aggregate (D-distributive reuse, §4.3).
func Rollup(ag *AggGraph, attrs ...AttrID) (*AggGraph, error) { return agg.Rollup(ag, attrs...) }

// Evolution (§2.3).

// NewEvolutionView builds the evolution graph between told and tnew.
func NewEvolutionView(g *Graph, told, tnew Interval) *EvolutionView {
	return evolution.NewView(g, told, tnew)
}

// AggregateEvolution computes the aggregated evolution graph with
// stability/growth/shrinkage weight triples; filter may be nil.
func AggregateEvolution(g *Graph, told, tnew Interval, s *AggSchema, kind AggKind, filter NodeFilter) *EvolutionAgg {
	return evolution.Aggregate(g, told, tnew, s, kind, filter)
}

// EvolutionTimelineStep summarizes the evolution between one consecutive
// pair of time points (per-class node and edge totals).
type EvolutionTimelineStep = evolution.TimelineStep

// EvolutionTimeline computes the step-by-step evolution profile over all
// consecutive time-point pairs.
func EvolutionTimeline(g *Graph, s *AggSchema, kind AggKind, filter NodeFilter) []EvolutionTimelineStep {
	return evolution.Timeline(g, s, kind, filter)
}

// TupleScore is one ranked attribute group from TopEdgeTuples.
type TupleScore = explore.TupleScore

// TopEdgeTuples ranks aggregate edges (attribute groups) by their peak
// event count across consecutive interval pairs.
func TopEdgeTuples(ex *Explorer, event EvolutionClass, n int) []TupleScore {
	return explore.TopEdgeTuples(ex, event, n)
}

// Exploration measures (§3.2).
var (
	// TotalNodes counts all aggregate node weight.
	TotalNodes = explore.TotalNodes
	// TotalEdges counts all aggregate edge weight.
	TotalEdges = explore.TotalEdges
)

// NodeTupleResult counts the weight of one aggregate node.
func NodeTupleResult(s *AggSchema, values ...string) (ResultMeasure, error) {
	return explore.NodeTuple(s, values...)
}

// EdgeTupleResult counts the weight of one aggregate edge.
func EdgeTupleResult(s *AggSchema, from, to []string) (ResultMeasure, error) {
	return explore.EdgeTuple(s, from, to)
}

// Materialization (§4.3).

// NewMatStore materializes per-time-point ALL aggregates of g under s.
func NewMatStore(g *Graph, s *AggSchema) *MatStore { return materialize.NewStore(g, s) }

// NewMatCatalog returns an empty materialization catalog over g.
func NewMatCatalog(g *Graph) *MatCatalog { return materialize.NewCatalog(g) }

// NewMatCatalogWith returns an empty materialization catalog over g with
// an explicit cache configuration.
func NewMatCatalogWith(g *Graph, cfg MatCatalogConfig) *MatCatalog {
	return materialize.NewCatalogWith(g, cfg)
}

// NewEvalMemo returns an exploration evaluation memo with the given byte
// budget (<= 0 selects the default).
func NewEvalMemo(maxBytes int64) *EvalMemo { return explore.NewEvalMemo(maxBytes) }

// Coarsen zooms out on the time axis per spec (union existence semantics;
// latest value per group for time-varying attributes).
func Coarsen(g *Graph, spec CoarsenSpec) (*Graph, error) { return core.Coarsen(g, spec) }

// UniformGroups builds a CoarsenSpec merging every width consecutive base
// points of tl.
func UniformGroups(tl *Timeline, width int) (CoarsenSpec, error) {
	return core.UniformGroups(tl, width)
}

// Streaming ingestion and rendering.
type (
	// StreamSeries ingests an evolving graph one time point at a time and
	// maintains per-point aggregates incrementally.
	StreamSeries = stream.Series
	// StreamSnapshot is the content of one ingested time point.
	StreamSnapshot = stream.Snapshot
	// StreamNode describes one node alive at an ingested time point.
	StreamNode = stream.NodeRecord
	// StreamEdge describes one interaction at an ingested time point.
	StreamEdge = stream.EdgeRecord
	// MeasureGraph is an aggregate graph carrying a numeric measure
	// (SUM/AVG/MIN/MAX of a node attribute) instead of a count.
	MeasureGraph = agg.MeasureGraph
	// MeasureFn selects the numeric aggregate function.
	MeasureFn = agg.Measure
)

// Numeric measures (§2.2's "other aggregations may be supported").
const (
	MeasureSum = agg.Sum
	MeasureAvg = agg.Avg
	MeasureMin = agg.Min
	MeasureMax = agg.Max
)

// NewStreamSeries returns an empty ingestion series with the given schema.
func NewStreamSeries(attrs ...AttrSpec) *StreamSeries { return stream.New(attrs...) }

// AggregateMeasure computes a numeric measure of attr per aggregate node.
func AggregateMeasure(v *View, s *AggSchema, attr AttrID, m MeasureFn) (*MeasureGraph, error) {
	return agg.AggregateMeasure(v, s, attr, m)
}

// Durable persistence (binary snapshots + write-ahead log).
type (
	// StorageEngine is the durable persistence engine behind a stream-mode
	// daemon: it owns a StreamSeries plus a data directory of snapshot and
	// WAL files, keeps them in sync on every append, checkpoints in the
	// background, and recovers the whole state on OpenStorage.
	StorageEngine = storage.Engine
	// StorageOptions configures a StorageEngine (fsync policy, checkpoint
	// threshold, logger).
	StorageOptions = storage.Options
	// StorageSnapshot is the decoded content of one binary snapshot file.
	StorageSnapshot = storage.Snapshot
	// StorageStats is a point-in-time snapshot of a StorageEngine's
	// counters.
	StorageStats = storage.Stats
	// StorageRecoveryInfo describes what one StorageEngine boot recovered.
	StorageRecoveryInfo = storage.RecoveryInfo
	// FsyncPolicy selects when WAL appends reach stable storage.
	FsyncPolicy = storage.FsyncPolicy
)

// WAL fsync policies.
const (
	// FsyncAlways syncs before every ingest acknowledgement.
	FsyncAlways = storage.FsyncAlways
	// FsyncInterval syncs on a background timer.
	FsyncInterval = storage.FsyncInterval
	// FsyncNever leaves flushing to the OS page cache.
	FsyncNever = storage.FsyncNever
)

// Save writes g — and optionally materialized stores over g — to w in the
// versioned, checksummed binary snapshot format.
func Save(w io.Writer, g *Graph, stores ...*MatStore) error { return storage.Save(w, g, stores...) }

// SaveFile writes a binary snapshot atomically (temp file + rename), so
// concurrent readers only ever observe a complete file.
func SaveFile(path string, g *Graph, stores ...*MatStore) error {
	return storage.SaveFile(path, g, stores...)
}

// Load reads a binary snapshot. It never panics on malformed input; all
// failures wrap the typed storage errors (see LoadFile for the file form).
func Load(r io.Reader) (*StorageSnapshot, error) { return storage.Load(r) }

// LoadFile reads a binary snapshot file written by SaveFile or gtgen
// -format=binary.
func LoadFile(path string) (*StorageSnapshot, error) { return storage.LoadFile(path) }

// LoadGraphFile is LoadFile returning only the graph.
func LoadGraphFile(path string) (*Graph, error) { return storage.LoadGraph(path) }

// OpenStorage recovers (or initializes) a durable data directory for a
// stream with the given attribute schema: latest snapshot + WAL replay
// with torn-tail truncation. Appends through the returned engine are
// WAL-logged before they are acknowledged.
func OpenStorage(dir string, attrs []AttrSpec, opts StorageOptions) (*StorageEngine, error) {
	return storage.Open(dir, attrs, opts)
}

// ParseFsyncPolicy parses "always", "interval" or "never".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) { return storage.ParseFsyncPolicy(s) }

// WindowGraph restricts g to the valid-time window [from, to] (inclusive
// timeline indices): the subgraph of nodes and interactions alive inside
// the window, with the timeline cut down to it. This is the library form of
// TGQL's VALID DURING clause; combine with StreamSeries.ReplayTo or
// StorageEngine.ReplayTo for full bi-temporal (AS OF + VALID DURING)
// reconstruction.
func WindowGraph(g *Graph, from, to int) (*Graph, error) { return core.Window(g, from, to) }

// WriteAggregateDOT renders an aggregate graph in Graphviz DOT format.
func WriteAggregateDOT(w io.Writer, ag *AggGraph) error { return dot.WriteAggregate(w, ag) }

// WriteEvolutionDOT renders an aggregated evolution graph in DOT format,
// colored by event type as in the paper's Fig. 4.
func WriteEvolutionDOT(w io.Writer, ev *EvolutionAgg) error { return dot.WriteEvolution(w, ev) }

// Datasets (§5 and the running example).

// PaperExample returns the running example of Figs. 1–4 / Table 2.
func PaperExample() *Graph { return core.PaperExample() }

// DBLP generates the synthetic DBLP collaboration graph (Table 3 sizes).
func DBLP(seed int64) *Graph { return dataset.DBLP(seed) }

// DBLPScaled generates DBLP with counts scaled by the given factor.
func DBLPScaled(seed int64, scale float64) *Graph { return dataset.DBLPScaled(seed, scale) }

// MovieLens generates the synthetic MovieLens co-rating graph (Table 4).
func MovieLens(seed int64) *Graph { return dataset.MovieLens(seed) }

// MovieLensScaled generates MovieLens with counts scaled by the factor.
func MovieLensScaled(seed int64, scale float64) *Graph { return dataset.MovieLensScaled(seed, scale) }

// SchoolContacts generates the school contact network of the §1 epidemic
// scenario.
func SchoolContacts(seed int64, p dataset.ContactsParams) *Graph {
	return dataset.SchoolContacts(seed, p)
}

// DefaultContactsParams returns a small school suitable for examples.
func DefaultContactsParams() dataset.ContactsParams { return dataset.DefaultContactsParams() }
