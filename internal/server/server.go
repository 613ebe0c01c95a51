// Package server implements graphtempod's HTTP serving layer: a JSON API
// over the GraphTempo engine (aggregate / explore / TGQL / live ingestion)
// with the production behaviors a long-running query daemon needs —
// per-request deadlines propagated as context.Context into the engine's
// loops, bounded admission (weighted semaphore plus a small wait queue;
// overflow is shed with 429), panic isolation, structured access logs and
// Prometheus metrics.
//
// The server runs in one of two modes. Static mode serves a fixed graph
// given at construction. Stream mode serves a stream.Series that grows via
// POST /v1/ingest; the full graph and its materialization catalog are
// rebuilt lazily when a query observes new time points, so queries always
// see a consistent (graph, catalog) pair.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/lru"
	"repro/internal/materialize"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/stream"
)

// Config configures a Server. Exactly one of Graph (static mode), Series
// (stream mode) and Storage (durable stream mode) must be set.
type Config struct {
	// Graph is the dataset served in static mode.
	Graph *core.Graph
	// Series is the live ingestion series served in stream mode, without
	// persistence.
	Series *stream.Series
	// Storage is the durable persistence engine served in stream mode with
	// crash recovery: ingestion goes through its WAL before being
	// acknowledged, and the server serves its recovered series.
	Storage *storage.Engine

	// MaxBodyBytes bounds request bodies (ingest snapshots included);
	// exceeding it returns a structured 413. <= 0 selects
	// DefaultMaxBodyBytes.
	MaxBodyBytes int64

	// MaxInflight is the admission semaphore capacity in weight units
	// (aggregate/ingest cost 1, explore/tgql cost 2). <= 0 selects
	// 2×GOMAXPROCS.
	MaxInflight int64
	// MaxQueue is the number of requests allowed to wait for admission
	// before overflow is shed with 429. < 0 selects 2×MaxInflight; 0 is
	// honored (shed immediately at capacity).
	MaxQueue int
	// RequestTimeout bounds each request's context deadline. Clients may
	// request a shorter deadline via the X-Deadline-Ms header; longer is
	// clamped. <= 0 selects 30s.
	RequestTimeout time.Duration
	// CacheBytes sizes the materialization catalog's serving cache
	// (<= 0 selects the catalog default).
	CacheBytes int64
	// HistoryCacheBytes sizes the LRU of reconstructed historical states
	// serving AS OF / VALID DURING queries (<= 0 selects 256 MiB).
	HistoryCacheBytes int64
	// Logger receives structured access and lifecycle logs; nil selects
	// slog.Default().
	Logger *slog.Logger

	// ShardName names the time-range shard this process serves in a
	// cluster deployment ("" for a standalone node). Surfaced in
	// GET /v1/status for the router's shard-map discovery.
	ShardName string
	// Role is the process's cluster role: "single" (default), "primary"
	// (owns writes for its shard) or "replica" (series is driven by WAL
	// replication; client ingestion is rejected with 409). An empty Role
	// with a ShardName set defaults to primary.
	Role string
	// Partial marks a daemon that serves one time-range slice of a larger
	// cluster timeline (graphtempod -shard). Statements whose answer spans
	// the whole timeline — the EVENTS/PATHS/TREND analytics family — are
	// rejected with a typed 400 instead of returning a silently shard-local
	// result; the router serves them from its full mirror. The mirror
	// itself has a ShardName but is NOT partial: it holds every point.
	Partial bool
}

// DefaultMaxBodyBytes is the request body limit of a daemon that sets no
// MaxBodyBytes; the cluster router holds ingest bodies to it too.
const DefaultMaxBodyBytes = 64 << 20

// endpointWeight is the admission cost of each API endpoint: exploration
// and TGQL may fan out into many candidate evaluations, so they consume
// twice the capacity of a single aggregation.
var endpointWeight = map[string]int64{
	"aggregate": 1,
	"explore":   2,
	"tgql":      2,
	"explain":   1, // compile-only: no engine execution
	"ingest":    1,
}

// state is one consistent serving snapshot: the graph, its catalog, and
// the series generation (number of ingested points) it was built from.
type state struct {
	g   *core.Graph
	cat *materialize.Catalog
	gen int
}

// Server is the graphtempod request handler. Create with New, mount
// Handler on an http.Server, call BeginDrain on shutdown.
type Server struct {
	cfg     Config
	log     *slog.Logger
	adm     *admission
	mux     *http.ServeMux
	reg     *metrics.Registry
	series  *stream.Series
	storage *storage.Engine
	plans   *plan.Cache
	fback   *plan.Feedback
	hist    *lru.Cache[plan.HistState]

	cur       atomic.Pointer[state]
	rebuildMu sync.Mutex
	retired   materialize.Stats // counters of catalogs replaced by rebuilds

	// ingest-to-visible freshness tracking (stream mode): each acknowledged
	// ingest is pending until the swap that makes its generation queryable.
	visMu      sync.Mutex
	visPending []visEntry

	draining atomic.Bool

	// metrics
	panics        metrics.Counter
	deltaApplies  metrics.Counter
	retroApplies  metrics.Counter
	fullRebuilds  metrics.Counter
	storeRebuilds metrics.Counter
	visibility    *metrics.Histogram
	reqMu         sync.Mutex
	reqCount      map[string]*metrics.Counter // endpoint\x00code
	latency       map[string]*metrics.Histogram
	shed          map[string]*metrics.Counter
	started       time.Time
}

// New validates cfg, builds the initial serving state (static mode
// materializes immediately; stream mode lazily on first query) and wires
// routes and metrics.
func New(cfg Config) (*Server, error) {
	modes := 0
	for _, set := range []bool{cfg.Graph != nil, cfg.Series != nil, cfg.Storage != nil} {
		if set {
			modes++
		}
	}
	if modes != 1 {
		return nil, fmt.Errorf("server: exactly one of Graph, Series and Storage must be set")
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = int64(2 * runtime.GOMAXPROCS(0))
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = int(2 * cfg.MaxInflight)
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	s := &Server{
		cfg:      cfg,
		log:      log,
		adm:      newAdmission(cfg.MaxInflight, cfg.MaxQueue),
		mux:      http.NewServeMux(),
		reg:      metrics.NewRegistry(),
		series:   cfg.Series,
		plans:    plan.NewCache(0),
		fback:    plan.NewFeedback(),
		hist:     newHistCache(cfg.HistoryCacheBytes),
		reqCount: make(map[string]*metrics.Counter),
		latency:  make(map[string]*metrics.Histogram),
		shed:     make(map[string]*metrics.Counter),
		started:  time.Now(),
	}
	if cfg.Storage != nil {
		s.storage = cfg.Storage
		s.series = cfg.Storage.Series()
	}
	if cfg.Graph != nil {
		s.cur.Store(&state{g: cfg.Graph, cat: s.newCatalog(cfg.Graph), gen: -1})
	}
	s.registerMetrics()
	s.routes()
	return s, nil
}

func (s *Server) newCatalog(g *core.Graph) *materialize.Catalog {
	return materialize.NewCatalogWith(g, materialize.CatalogConfig{MaxBytes: s.cfg.CacheBytes})
}

// Handler returns the root handler (routes + middleware).
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the server's metrics registry (for tests and for
// embedding the server under an existing registry-aware exporter).
func (s *Server) Registry() *metrics.Registry { return s.reg }

// BeginDrain flips the server into draining mode: /readyz starts failing
// so load balancers stop sending new work, while in-flight requests run to
// completion under the http.Server.Shutdown the caller performs next.
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.log.Info("drain started", "inflight", s.adm.used())
	}
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// current returns the serving state, advancing it in stream mode when
// ingestion has moved past the snapshot's generation: Catalog.Advance folds
// the new points into the existing catalog in place — wherever in valid time
// they landed, with queries continuing to serve the old generation until the
// swap — else a counted stop-the-world rebuild when the delta is refused
// (renumbered nodes, static back-fill). It returns an error (mapped to 503)
// while no data has been ingested yet.
func (s *Server) current() (*state, error) {
	st := s.cur.Load()
	if s.series == nil {
		return st, nil
	}
	gen := s.series.Len()
	if gen == 0 {
		return nil, errNotReady
	}
	if st != nil && st.gen == gen {
		return st, nil
	}
	s.rebuildMu.Lock()
	defer s.rebuildMu.Unlock()
	if st = s.cur.Load(); st != nil && st.gen == s.series.Len() {
		return st, nil
	}
	gen = s.series.Len()
	g, err := s.series.Graph()
	if err != nil {
		return nil, err
	}
	if old := s.cur.Load(); old != nil {
		stats, err := old.cat.Advance(g)
		if err == nil {
			st = &state{g: g, cat: old.cat, gen: gen}
			s.cur.Store(st)
			// Bounded plans over the clean prefix keep serving; only plans
			// that can observe a position at or past the first dirty one are
			// evicted.
			s.plans.Advance(g, old.cat, stats.FirstDirty)
			if stats.FirstDirty < old.g.Timeline().Len() {
				// A retroactive point landed inside the old timeline.
				// Feedback cardinalities are keyed by interval labels whose
				// positions just shifted, so they restart from scratch; a
				// suffix-only advance keeps them.
				s.fback.Reset()
				s.retroApplies.Inc()
			} else {
				s.deltaApplies.Inc()
			}
			s.storeRebuilds.Add(int64(stats.Rebuilt))
			s.observeVisibility(gen)
			s.log.Info("serving state advanced", "points", gen,
				"new_points", stats.NewPoints, "first_dirty", stats.FirstDirty,
				"stores_extended", stats.Extended, "stores_rebuilt", stats.Rebuilt)
			return st, nil
		}
		s.log.Warn("catalog delta refused, rebuilding", "points", gen, "err", err)
		// Fold the retiring catalog's counters into the cumulative base so
		// /metrics stays monotonic across rebuilds.
		os := old.cat.Stats()
		s.retired.Scratch += os.Scratch
		s.retired.Cached += os.Cached
		s.retired.TDistributive += os.TDistributive
		s.retired.DDistributive += os.DDistributive
		s.retired.CacheEvictions += os.CacheEvictions
		s.retired.CacheDeduped += os.CacheDeduped
		s.fullRebuilds.Inc()
	}
	st = &state{g: g, cat: s.newCatalog(g), gen: gen}
	s.cur.Store(st)
	s.plans.Reset(g, st.cat)
	// Cardinalities observed against the replaced snapshot no longer
	// describe anything; suffix-only advances (above) keep them instead.
	s.fback.Reset()
	s.observeVisibility(gen)
	s.log.Info("serving state rebuilt", "points", gen, "nodes", g.NumNodes(), "edges", g.NumEdges())
	return st, nil
}

// visEntry is one acknowledged ingest awaiting visibility: the series
// generation it produced and the acknowledgement time.
type visEntry struct {
	gen int
	at  time.Time
}

// trackVisibility records the acknowledgement of an ingest that grew the
// series to gen points; the pending entry is resolved by the swap that
// makes that generation queryable.
func (s *Server) trackVisibility(gen int) {
	if s.visibility == nil {
		return
	}
	s.visMu.Lock()
	s.visPending = append(s.visPending, visEntry{gen: gen, at: time.Now()})
	s.visMu.Unlock()
}

// observeVisibility resolves every pending ingest at or below the
// generation that just became queryable into the freshness histogram.
func (s *Server) observeVisibility(gen int) {
	if s.visibility == nil {
		return
	}
	now := time.Now()
	s.visMu.Lock()
	kept := s.visPending[:0]
	for _, e := range s.visPending {
		if e.gen <= gen {
			s.visibility.Observe(now.Sub(e.at).Seconds())
		} else {
			kept = append(kept, e)
		}
	}
	s.visPending = kept
	s.visMu.Unlock()
}

// catalogStats returns the cumulative catalog counters: the live catalog
// plus every retired one.
func (s *Server) catalogStats() materialize.Stats {
	// Sample the retired base and the live catalog as one consistent pair:
	// rebuilds fold a retiring catalog into s.retired under rebuildMu, so
	// reading s.cur after releasing the lock could miss a just-retired
	// catalog's counters and make the summed totals transiently decrease.
	s.rebuildMu.Lock()
	defer s.rebuildMu.Unlock()
	base := s.retired
	if st := s.cur.Load(); st != nil {
		cs := st.cat.Stats()
		base.Scratch += cs.Scratch
		base.Cached += cs.Cached
		base.TDistributive += cs.TDistributive
		base.DDistributive += cs.DDistributive
		base.CacheEvictions += cs.CacheEvictions
		base.CacheDeduped += cs.CacheDeduped
		base.CacheEntries = cs.CacheEntries
		base.CacheBytes = cs.CacheBytes
		base.Stores = cs.Stores
	}
	return base
}

// registerMetrics wires the serving metrics taxonomy:
//
//	graphtempod_requests_total{endpoint,code}   counter
//	graphtempod_request_seconds{endpoint}       histogram
//	graphtempod_shed_total{endpoint}            counter (429 overflow)
//	graphtempod_inflight                        gauge (admitted weight)
//	graphtempod_admission_queue                 gauge
//	graphtempod_panics_total                    counter
//	graphtempod_catalog_answers_total{source}   counter (hit/miss by source)
//	graphtempod_catalog_cache_{entries,bytes}   gauges
//	graphtempod_graph_index_bytes{index}        gauge (points)
//	graphtempod_explorer_evaluations_total      counter (engine hot path)
//	graphtempod_planner_selections_total{op}    counter (planner choices)
//	graphtempod_planner_feedback_total{kind}    counter (cardinality records)
//	graphtempod_plan_cache_total{result}        counter (hit/miss)
//	graphtempod_ingested_points                 gauge (stream mode)
//	graphtempod_catalog_delta_applies_total     counter (stream mode)
//	graphtempod_catalog_full_rebuilds_total     counter (stream mode)
//	graphtempod_catalog_store_rebuilds_total    counter (stream mode)
//	graphtempod_ingest_visibility_seconds       histogram (stream mode)
//	graphtempod_uptime_seconds                  gauge
//
// With durable storage (stream mode + -data-dir) the persistence family is
// added:
//
//	graphtempod_storage_recovery_records_total  counter (snapshot + WAL)
//	graphtempod_storage_recovery_seconds        gauge
//	graphtempod_storage_recovery_truncated_bytes gauge (torn tail)
//	graphtempod_storage_snapshot_generation     gauge
//	graphtempod_storage_wal_{records,bytes}_total counters
//	graphtempod_storage_fsyncs_total            counter
//	graphtempod_storage_coalesced_syncs_total   counter (group commit)
//	graphtempod_storage_checkpoints_total       counter
//	graphtempod_storage_checkpoint_errors_total counter
//	graphtempod_storage_last_checkpoint_ms      gauge
func (s *Server) registerMetrics() {
	r := s.reg
	r.GaugeFunc("graphtempod_inflight", "Admitted request weight currently executing.",
		func() float64 { return float64(s.adm.used()) })
	r.GaugeFunc("graphtempod_admission_queue", "Requests waiting for admission.",
		func() float64 { return float64(s.adm.queued()) })
	r.RegisterCounter("graphtempod_panics_total", "Handler panics recovered.", &s.panics)
	for _, src := range []struct {
		name string
		fn   func(materialize.Stats) int64
	}{
		{"scratch", func(st materialize.Stats) int64 { return st.Scratch }},
		{"cached", func(st materialize.Stats) int64 { return st.Cached }},
		{"t-distributive", func(st materialize.Stats) int64 { return st.TDistributive }},
		{"d-distributive", func(st materialize.Stats) int64 { return st.DDistributive }},
	} {
		fn := src.fn
		r.CounterFunc("graphtempod_catalog_answers_total",
			"Catalog answers by derivation source (cached = cache hit, others = miss path).",
			func() float64 { return float64(fn(s.catalogStats())) },
			metrics.Label{Key: "source", Value: src.name})
	}
	r.GaugeFunc("graphtempod_catalog_cache_entries", "Cached aggregate results.",
		func() float64 { return float64(s.catalogStats().CacheEntries) })
	r.GaugeFunc("graphtempod_catalog_cache_bytes", "Approximate bytes of cached results.",
		func() float64 { return float64(s.catalogStats().CacheBytes) })
	for _, ix := range []struct {
		name  string
		bytes func(*core.Graph) int64
	}{{"points", (*core.Graph).IndexBytes}, {"tuple_rows", agg.TupleRowBytes}} {
		bytes := ix.bytes
		r.GaugeFunc("graphtempod_graph_index_bytes",
			"Bytes of the serving graph's point-index columns (points) and tuple-code rows (tuple_rows) built so far.",
			func() float64 {
				st := s.cur.Load()
				if st == nil {
					return 0
				}
				return float64(bytes(st.g))
			}, metrics.Label{Key: "index", Value: ix.name})
	}
	r.CounterFunc("graphtempod_catalog_cache_evictions_total", "Results evicted from the serving cache.",
		func() float64 { return float64(s.catalogStats().CacheEvictions) })
	r.RegisterCounter("graphtempod_explorer_evaluations_total",
		"Exploration candidate evaluations across all requests.", &explore.TotalEvaluations)
	plannerHelp := "Physical operators selected by the query planner, counted per plan execution."
	for _, sel := range []struct {
		op string
		c  *metrics.Counter
	}{
		{"catalog-union", &plan.Selections.CatalogUnion},
		{"dense-agg", &plan.Selections.DenseAgg},
		{"measure-agg", &plan.Selections.MeasureAgg},
		{"filtered-agg", &plan.Selections.FilteredAgg},
		{"fast-explore", &plan.Selections.FastExplore},
		{"tune-explore", &plan.Selections.TuneExplore},
		{"top", &plan.Selections.Top},
		{"evolve", &plan.Selections.Evolve},
		{"timeline", &plan.Selections.Timeline},
		{"events-sweep", &plan.Selections.EventsSweep},
		{"paths-frontier", &plan.Selections.PathsFront},
		{"trend-catalog", &plan.Selections.TrendCatalog},
		{"trend-scan", &plan.Selections.TrendScan},
	} {
		r.RegisterCounter("graphtempod_planner_selections_total", plannerHelp,
			sel.c, metrics.Label{Key: "op", Value: sel.op})
		plannerHelp = ""
	}
	r.RegisterCounter("graphtempod_plan_cache_total",
		"Plan cache lookups by result (a hit skips resolution and operator selection).",
		&plan.CacheHits, metrics.Label{Key: "result", Value: "hit"})
	r.RegisterCounter("graphtempod_plan_cache_total", "",
		&plan.CacheMisses, metrics.Label{Key: "result", Value: "miss"})
	r.RegisterCounter("graphtempod_planner_feedback_total",
		"Runtime observations recorded into the planner feedback loop.",
		&plan.Feedbacks.Cardinality, metrics.Label{Key: "kind", Value: "cardinality"})
	if s.series != nil {
		r.GaugeFunc("graphtempod_ingested_points", "Time points ingested.",
			func() float64 { return float64(s.series.Len()) })
		r.RegisterCounter("graphtempod_catalog_delta_applies_total",
			"Serving snapshots advanced in place by incremental delta application.",
			&s.deltaApplies)
		r.RegisterCounter("graphtempod_catalog_retro_applies_total",
			"Serving snapshots advanced in place by retroactive splice (dirty-range invalidation).",
			&s.retroApplies)
		r.GaugeFunc("graphtempod_history_cache_entries", "Reconstructed historical states resident.",
			func() float64 { return float64(s.hist.Stats().Entries) })
		r.GaugeFunc("graphtempod_history_cache_bytes", "Approximate bytes of reconstructed historical states.",
			func() float64 { return float64(s.hist.Stats().Bytes) })
		r.RegisterCounter("graphtempod_catalog_full_rebuilds_total",
			"Serving snapshots replaced by a from-scratch rebuild after the initial build.",
			&s.fullRebuilds)
		r.RegisterCounter("graphtempod_catalog_store_rebuilds_total",
			"Materialized stores rebuilt during delta application (attribute dictionary grew).",
			&s.storeRebuilds)
		s.visibility = r.Histogram("graphtempod_ingest_visibility_seconds",
			"Latency from ingest acknowledgement to the point being queryable.",
			[]float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1, 5})
	}
	if eng := s.storage; eng != nil {
		r.CounterFunc("graphtempod_storage_recovery_records_total",
			"Records recovered at boot: snapshot points plus replayed WAL records.",
			func() float64 { ri := eng.Recovery(); return float64(ri.SnapshotPoints + ri.WALRecords) })
		r.GaugeFunc("graphtempod_storage_recovery_seconds",
			"Wall-clock duration of boot recovery.",
			func() float64 { return eng.Recovery().Elapsed.Seconds() })
		r.GaugeFunc("graphtempod_storage_recovery_truncated_bytes",
			"Torn WAL tail bytes discarded at boot.",
			func() float64 { return float64(eng.Recovery().TruncatedBytes) })
		r.GaugeFunc("graphtempod_storage_snapshot_generation",
			"Current snapshot generation (also the active WAL segment number).",
			func() float64 { return float64(eng.Stats().Generation) })
		r.GaugeFunc("graphtempod_storage_txn_seq",
			"Transaction-time watermark: ingest records ever applied (the upper bound of AS OF).",
			func() float64 { return float64(eng.TxnSeq()) })
		r.CounterFunc("graphtempod_storage_wal_records_total", "WAL records appended since boot.",
			func() float64 { return float64(eng.Stats().WALRecords) })
		r.CounterFunc("graphtempod_storage_wal_bytes_total", "WAL bytes appended since boot.",
			func() float64 { return float64(eng.Stats().WALBytes) })
		r.CounterFunc("graphtempod_storage_fsyncs_total", "WAL fsync calls.",
			func() float64 { return float64(eng.Stats().Fsyncs) })
		r.CounterFunc("graphtempod_storage_coalesced_syncs_total",
			"Appends whose durability rode another append's fsync (group commit).",
			func() float64 { return float64(eng.Stats().CoalescedSyncs) })
		r.CounterFunc("graphtempod_storage_checkpoints_total",
			"Completed WAL-to-snapshot compactions.",
			func() float64 { return float64(eng.Stats().Checkpoints) })
		r.CounterFunc("graphtempod_storage_checkpoint_errors_total",
			"Checkpoint attempts that failed (serving continues on the previous generation).",
			func() float64 { return float64(eng.Stats().CheckpointErrors) })
		r.GaugeFunc("graphtempod_storage_last_checkpoint_ms",
			"Duration of the most recent successful checkpoint in milliseconds.",
			func() float64 { return eng.Stats().LastCheckpointMs })
	}
	r.GaugeFunc("graphtempod_uptime_seconds", "Seconds since server start.",
		func() float64 { return time.Since(s.started).Seconds() })
}

// reqCounter returns (registering on first use) the requests_total series
// for an endpoint/status pair.
func (s *Server) reqCounter(endpoint string, code int) *metrics.Counter {
	key := endpoint + "\x00" + strconv.Itoa(code)
	s.reqMu.Lock()
	defer s.reqMu.Unlock()
	c, ok := s.reqCount[key]
	if !ok {
		c = s.reg.Counter("graphtempod_requests_total", "Requests by endpoint and status code.",
			metrics.Label{Key: "endpoint", Value: endpoint},
			metrics.Label{Key: "code", Value: strconv.Itoa(code)})
		s.reqCount[key] = c
	}
	return c
}

func (s *Server) latencyHist(endpoint string) *metrics.Histogram {
	s.reqMu.Lock()
	defer s.reqMu.Unlock()
	h, ok := s.latency[endpoint]
	if !ok {
		h = s.reg.Histogram("graphtempod_request_seconds", "Request latency in seconds.", nil,
			metrics.Label{Key: "endpoint", Value: endpoint})
		s.latency[endpoint] = h
	}
	return h
}

func (s *Server) shedCounter(endpoint string) *metrics.Counter {
	s.reqMu.Lock()
	defer s.reqMu.Unlock()
	c, ok := s.shed[endpoint]
	if !ok {
		c = s.reg.Counter("graphtempod_shed_total", "Requests shed with 429 by admission control.",
			metrics.Label{Key: "endpoint", Value: endpoint})
		s.shed[endpoint] = c
	}
	return c
}

// routes mounts every endpoint with its middleware chain.
func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		st, err := s.current()
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		// ?gen=N lets ingest clients poll for a specific series generation
		// becoming queryable (static mode is always at its only generation).
		if q := r.URL.Query().Get("gen"); q != "" && s.series != nil {
			want, perr := strconv.Atoi(q)
			if perr != nil {
				http.Error(w, "gen must be an integer", http.StatusBadRequest)
				return
			}
			if st.gen < want {
				http.Error(w, fmt.Sprintf("at generation %d, waiting for %d", st.gen, want),
					http.StatusServiceUnavailable)
				return
			}
		}
		fmt.Fprintln(w, "ready")
	})
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.reg.WritePrometheus(w)
	})
	s.mux.Handle("POST /v1/aggregate", s.api("aggregate", serve(s, decodeAggregate, encodeAggregate)))
	s.mux.Handle("POST /v1/explore", s.api("explore", serve(s, decodeExplore, encodeExplore)))
	s.mux.Handle("POST /v1/tgql", s.api("tgql", serve(s, func(req *TGQLRequest) (query, error) { return decodeStatement(req.Query, req.AsOf) }, encodeTGQL)))
	s.mux.Handle("POST /v1/explain", s.api("explain", serve(s, decodeExplain, encodeExplain)))
	s.mux.Handle("POST /v1/ingest", s.api("ingest", s.handleIngest))
	// Cluster control plane: status/labels serve the router's health, lag
	// and shard-map probes, the WAL stream feeds replicas and the router's
	// mirror. They bypass admission so probes keep answering under load
	// and during drain.
	s.mux.HandleFunc("GET /v1/status", s.handleStatus)
	s.mux.HandleFunc("GET /v1/labels", s.handleLabels)
	s.mux.HandleFunc("GET /v1/wal/stream", s.handleWALStream)
}

// statusWriter captures the status code and byte count for logs/metrics,
// and carries the stage durations the handler records for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
	stages stages
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// apiHandler is an endpoint implementation: it returns (status, error);
// on error the middleware writes the JSON error envelope.
type apiHandler func(ctx context.Context, w *statusWriter, r *http.Request) (int, error)

// api wraps an endpoint in the full middleware chain:
// recover → access log + metrics → deadline → admission → handler.
func (s *Server) api(endpoint string, h apiHandler) http.Handler {
	weight := endpointWeight[endpoint]
	hist := s.latencyHist(endpoint)
	// Nearly every request ends 200: resolve that series once, and leave the
	// keyed lookup under reqMu to the other codes.
	okCount := s.reqCounter(endpoint, http.StatusOK)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		id := RequestID(r)
		sw.Header().Set("X-Request-Id", id)

		defer func() {
			if rec := recover(); rec != nil {
				s.panics.Inc()
				buf := make([]byte, 8<<10)
				buf = buf[:runtime.Stack(buf, false)]
				s.log.Error("handler panic", "endpoint", endpoint, "request_id", id, "panic", rec, "stack", string(buf))
				if sw.status == 0 {
					writeError(sw, http.StatusInternalServerError, fmt.Errorf("internal error"))
				}
			}
			elapsed := time.Since(start)
			hist.Observe(elapsed.Seconds())
			if sw.status == http.StatusOK {
				okCount.Inc()
			} else {
				s.reqCounter(endpoint, sw.status).Inc()
			}
			// Typed attrs: no boxing of the twelve values on every request.
			st := &sw.stages
			s.log.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("endpoint", endpoint), slog.String("method", r.Method), slog.String("path", r.URL.Path),
				slog.Int("status", sw.status), slog.Float64("ms", elapsedMs(elapsed)),
				slog.Int64("decode_us", st.decode.Microseconds()), slog.Int64("state_us", st.state.Microseconds()),
				slog.Int64("compile_us", st.compile.Microseconds()), slog.Int64("exec_us", st.exec.Microseconds()),
				slog.Int64("encode_us", st.encode.Microseconds()),
				slog.Int("bytes", sw.bytes), slog.String("remote", r.RemoteAddr), slog.String("request_id", id))
		}()

		ctx, cancel := context.WithTimeout(r.Context(), s.deadlineFor(r))
		defer cancel()

		if err := s.adm.acquire(ctx, weight); err != nil {
			if err == ErrOverloaded {
				s.shedCounter(endpoint).Inc()
				sw.Header().Set("Retry-After", "1")
				writeError(sw, http.StatusTooManyRequests, err)
				return
			}
			writeError(sw, statusForCtx(err), err)
			return
		}
		defer s.adm.release(weight)

		if status, err := h(ctx, sw, r); err != nil {
			writeError(sw, status, err)
		}
	})
}

// deadlineFor resolves the request deadline: the server cap, lowered by a
// client-supplied X-Deadline-Ms header when present and valid.
func (s *Server) deadlineFor(r *http.Request) time.Duration {
	d := s.cfg.RequestTimeout
	if h := r.Header.Get("X-Deadline-Ms"); h != "" {
		if ms, err := strconv.ParseInt(h, 10, 64); err == nil && ms > 0 {
			if cd := time.Duration(ms) * time.Millisecond; cd < d {
				d = cd
			}
		}
	}
	return d
}

// statusForCtx maps a context error to the HTTP status reported for a
// request abandoned on deadline or client disconnect.
func statusForCtx(err error) int {
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	return 499 // client closed request (nginx convention)
}

// errorBody is the unified JSON error envelope of every non-2xx API
// response — {"error":{"code","message"}} — shared verbatim by the
// cluster router so clients see one contract whichever tier answers.
type errorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail carries the stable machine-readable code (derived from the
// HTTP status) and the human-readable message.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorCode maps an HTTP status to its envelope code.
func ErrorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusConflict:
		return "conflict"
	case http.StatusRequestEntityTooLarge:
		return "body_too_large"
	case http.StatusTooManyRequests:
		return "overloaded"
	case 499:
		return "client_closed"
	case http.StatusServiceUnavailable:
		return "unavailable"
	case http.StatusGatewayTimeout:
		return "deadline_exceeded"
	}
	if status >= 500 {
		return "internal"
	}
	return "bad_request"
}

// WriteError writes the unified error envelope. Exported for the cluster
// router, which reuses it for errors it originates itself.
func WriteError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: ErrorDetail{Code: ErrorCode(status), Message: err.Error()}})
}

func writeError(w http.ResponseWriter, status int, err error) { WriteError(w, status, err) }

// writeJSON reflects v into the response; it serves the small fixed-shape
// replies. Answers that carry an aggregate graph go through writeGraphJSON.
func writeJSON(w http.ResponseWriter, v any) (int, error) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		return http.StatusInternalServerError, nil // headers already sent
	}
	return http.StatusOK, nil
}

// respBufs recycles the buffers graph-carrying answers are built in; one
// that grew past maxPooledResp is dropped instead of pinned in the pool.
var respBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledResp = 1 << 20

// writeGraphJSON builds a graph-carrying answer in a pooled buffer — open is
// the envelope up to and including `"graph":`, the encoder appends the graph,
// then the envelope closes — and writes it once with its Content-Length. The
// bytes are exactly what json.NewEncoder(w).Encode of the response struct
// (AggregateResponse, TGQLResponse) would send, and the return values are
// writeJSON's.
func writeGraphJSON(w http.ResponseWriter, open func(dst []byte) []byte, g *agg.Graph) (int, error) {
	bp := respBufs.Get().(*[]byte)
	buf := append(g.AppendJSON(open((*bp)[:0])), '}', '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	_, err := w.Write(buf)
	if cap(buf) <= maxPooledResp {
		*bp = buf
		respBufs.Put(bp)
	}
	if err != nil {
		return http.StatusInternalServerError, nil // headers already sent
	}
	return http.StatusOK, nil
}

// writeAggregate writes the AggregateResponse for g; elapsed is sampled by
// the caller, before the graph is encoded.
func writeAggregate(w http.ResponseWriter, source string, elapsed time.Duration, g *agg.Graph) (int, error) {
	return writeGraphJSON(w, func(dst []byte) []byte {
		dst = agg.AppendJSONString(append(dst, `{"source":`...), source)
		// Whole microseconds in milliseconds: never in the range (< 1e-6 or
		// ≥ 1e21) where encoding/json switches to exponent notation.
		dst = strconv.AppendFloat(append(dst, `,"elapsed_ms":`...), elapsedMs(elapsed), 'f', -1, 64)
		return append(dst, `,"graph":`...)
	}, g)
}
