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
	// NodeID indexes a node within one graph.
	NodeID = core.NodeID
	// EdgeID indexes an edge within one graph.
	EdgeID = core.EdgeID
	// AttrID indexes an attribute within a graph's schema.
	AttrID = core.AttrID
	// AttrSpec describes one node attribute (name and kind).
	AttrSpec = core.AttrSpec
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
)

// Evolution and exploration types.
type (
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

// Aggregation (§2.2, Algorithm 2).

// SchemaByName builds an aggregation schema from attribute names.
func SchemaByName(g *Graph, names ...string) (*AggSchema, error) { return agg.ByName(g, names...) }

// Aggregate computes the aggregate graph of a view.
func Aggregate(v *View, s *AggSchema, kind AggKind) *AggGraph { return agg.Aggregate(v, s, kind) }

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

// AggregateEvolution computes the aggregated evolution graph with
// stability/growth/shrinkage weight triples; filter may be nil.
func AggregateEvolution(g *Graph, told, tnew Interval, s *AggSchema, kind AggKind, filter NodeFilter) *EvolutionAgg {
	return evolution.Aggregate(g, told, tnew, s, kind, filter)
}

// Exploration measures (§3.2).
var (
	// TotalNodes counts all aggregate node weight.
	TotalNodes = explore.TotalNodes
	// TotalEdges counts all aggregate edge weight.
	TotalEdges = explore.TotalEdges
)

// EdgeTupleResult counts the weight of one aggregate edge.
func EdgeTupleResult(s *AggSchema, from, to []string) (ResultMeasure, error) {
	return explore.EdgeTuple(s, from, to)
}

// Materialization (§4.3).

// NewMatStore materializes per-time-point ALL aggregates of g under s.
func NewMatStore(g *Graph, s *AggSchema) *MatStore { return materialize.NewStore(g, s) }

// NewMatCatalog returns an empty materialization catalog over g.
func NewMatCatalog(g *Graph) *MatCatalog { return materialize.NewCatalog(g) }

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
)

// NewStreamSeries returns an empty ingestion series with the given schema.
func NewStreamSeries(attrs ...AttrSpec) *StreamSeries { return stream.New(attrs...) }

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
)

// Save writes g to w in the versioned, checksummed binary snapshot format.
// A snapshot holds the graph alone: materialized aggregates are the
// catalog's in-memory choice and are rebuilt, not persisted.
func Save(w io.Writer, g *Graph) error { return storage.Save(w, g) }

// Load reads a binary snapshot's graph. It never panics on malformed input;
// all failures wrap the typed storage errors.
func Load(r io.Reader) (*Graph, error) {
	snap, err := storage.Load(r)
	if err != nil {
		return nil, err
	}
	return snap.Graph, nil
}

// OpenStorage recovers (or initializes) a durable data directory for a
// stream with the given attribute schema: latest snapshot + WAL replay
// with torn-tail truncation. Appends through the returned engine are
// WAL-logged before they are acknowledged.
func OpenStorage(dir string, attrs []AttrSpec, opts StorageOptions) (*StorageEngine, error) {
	return storage.Open(dir, attrs, opts)
}

// WriteEvolutionDOT renders an aggregated evolution graph in DOT format,
// colored by event type as in the paper's Fig. 4.
func WriteEvolutionDOT(w io.Writer, ev *EvolutionAgg) error { return dot.WriteEvolution(w, ev) }

// Datasets (§5 and the running example).

// PaperExample returns the running example of Figs. 1–4 / Table 2.
func PaperExample() *Graph { return core.PaperExample() }

// DBLPScaled generates the synthetic DBLP collaboration graph (Table 3
// sizes at scale 1) with counts scaled by the given factor.
func DBLPScaled(seed int64, scale float64) *Graph { return dataset.DBLPScaled(seed, scale) }

// MovieLensScaled generates the synthetic MovieLens co-rating graph
// (Table 4 sizes at scale 1) with counts scaled by the given factor.
func MovieLensScaled(seed int64, scale float64) *Graph { return dataset.MovieLensScaled(seed, scale) }

// SchoolContacts generates the school contact network of the §1 epidemic
// scenario.
func SchoolContacts(seed int64, p dataset.ContactsParams) *Graph {
	return dataset.SchoolContacts(seed, p)
}

// DefaultContactsParams returns a small school suitable for examples.
func DefaultContactsParams() dataset.ContactsParams { return dataset.DefaultContactsParams() }
