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
// POST /v1/ingest; the first request to observe new time points moves the
// head serving state to the new graph and a successor of the old catalog
// built over it (Catalog.Advance, else Catalog.Rebuild), and a request
// keeps the (graph, catalog) pair it loaded for its whole run.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
	// CacheBytes sizes the head state's materialization catalog's serving
	// cache, and its plan and answer memo beside it (<= 0 selects the
	// catalog default).
	CacheBytes int64
	// HistoryCacheBytes sizes the LRU of reconstructed historical states
	// serving AS OF / VALID DURING queries, their memos and catalog result
	// caches included (<= 0 selects 256 MiB).
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
	hist    *lru.Cache[*plan.State]

	// cur is the head serving state; its Gen is the series generation
	// (number of ingested points) it was built from.
	cur       atomic.Pointer[plan.State]
	rebuildMu sync.Mutex

	draining atomic.Bool

	// metrics
	panics       metrics.Counter
	deltaApplies metrics.Counter
	retroApplies metrics.Counter
	fullRebuilds metrics.Counter
	reqMu        sync.Mutex
	reqCount     map[string]*metrics.Counter // endpoint\x00code
	latency      map[string]*latencyHists
	shed         map[string]*metrics.Counter
	started      time.Time
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
		hist:     newHistCache(cfg.HistoryCacheBytes),
		reqCount: make(map[string]*metrics.Counter),
		latency:  make(map[string]*latencyHists),
		shed:     make(map[string]*metrics.Counter),
		started:  time.Now(),
	}
	if cfg.Storage != nil {
		s.storage = cfg.Storage
		s.series = cfg.Storage.Series()
	}
	if cfg.Graph != nil {
		s.cur.Store(plan.NewState(cfg.Graph, s.newCatalog(cfg.Graph), -1))
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
// ingestion has moved past the snapshot's generation: Catalog.Advance
// returns a successor catalog over the new graph — wherever in valid time
// the new points landed — else, when the delta is refused (renumbered
// nodes, static back-fill), a counted Catalog.Rebuild. Either way the new
// state starts with an empty plan cache, queries that loaded the old state
// keep answering over the old graph with the old catalog, and the counters
// the successor continues keep /metrics monotonic. It returns an error
// (mapped to 503) while no data has been ingested yet.
func (s *Server) current() (*plan.State, error) {
	st := s.cur.Load()
	if s.series == nil {
		return st, nil
	}
	gen := s.series.Len()
	if gen == 0 {
		return nil, errNotReady
	}
	if st != nil && st.Gen == gen {
		return st, nil
	}
	s.rebuildMu.Lock()
	defer s.rebuildMu.Unlock()
	if st = s.cur.Load(); st != nil && st.Gen == s.series.Len() {
		return st, nil
	}
	gen = s.series.Len()
	g, err := s.series.Graph()
	if err != nil {
		return nil, err
	}
	var cat *materialize.Catalog
	if old := s.cur.Load(); old == nil {
		cat = s.newCatalog(g)
	} else {
		adv, err := old.Catalog.Advance(g)
		if err == nil {
			st = plan.NewState(g, adv.Catalog, gen)
			s.cur.Store(st)
			if adv.FirstDirty < old.Graph.Timeline().Len() {
				// A retroactive point landed inside the old timeline.
				s.retroApplies.Inc()
			} else {
				s.deltaApplies.Inc()
			}
			s.log.Info("serving state advanced", "points", gen,
				"new_points", adv.NewPoints, "first_dirty", adv.FirstDirty)
			return st, nil
		}
		s.log.Warn("catalog delta refused, rebuilding", "points", gen, "err", err)
		s.fullRebuilds.Inc()
		cat = old.Catalog.Rebuild(g)
	}
	st = plan.NewState(g, cat, gen)
	s.cur.Store(st)
	s.log.Info("serving state rebuilt", "points", gen, "nodes", g.NumNodes(), "edges", g.NumEdges())
	return st, nil
}

// catalogStats returns the head catalog's counters, which continue those
// of every catalog it succeeded.
func (s *Server) catalogStats() materialize.Stats {
	if st := s.cur.Load(); st != nil {
		return st.Catalog.Stats()
	}
	return materialize.Stats{}
}

// registerMetrics wires the serving metrics taxonomy:
//
//	graphtempod_requests_total{endpoint,code}   counter
//	graphtempod_request_seconds{endpoint}       histogram
//	graphtempod_stage_seconds{endpoint,stage}   histogram (admission … encode)
//	graphtempod_shed_total{endpoint}            counter (429 overflow)
//	graphtempod_inflight                        gauge (admitted weight)
//	graphtempod_admission_queue                 gauge
//	graphtempod_panics_total                    counter
//	graphtempod_catalog_answers_total{source}   counter (hit/miss by source)
//	graphtempod_catalog_cache_{entries,bytes}   gauges
//	graphtempod_graph_index_bytes{index}        gauge (points)
//	graphtempod_explorer_evaluations_total      counter (engine hot path)
//	graphtempod_planner_selections_total{op}    counter (planner choices)
//	graphtempod_plan_cache_total{result}        counter (hit/miss, memo_hit/memo_miss)
//	graphtempod_ingested_points                 gauge (stream mode)
//	graphtempod_catalog_delta_applies_total     counter (stream mode)
//	graphtempod_catalog_full_rebuilds_total     counter (stream mode)
//	graphtempod_history_anchor{s,_spacing,_bytes} gauges (stream mode)
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
				return float64(bytes(st.Graph))
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
		"Plan cache lookups by result (a hit skips resolution and operator selection; a memo_hit also skips execution).",
		&plan.CacheHits, metrics.Label{Key: "result", Value: "hit"})
	r.RegisterCounter("graphtempod_plan_cache_total", "",
		&plan.CacheMisses, metrics.Label{Key: "result", Value: "miss"})
	r.RegisterCounter("graphtempod_plan_cache_total", "",
		&plan.MemoHits, metrics.Label{Key: "result", Value: "memo_hit"})
	r.RegisterCounter("graphtempod_plan_cache_total", "",
		&plan.MemoMisses, metrics.Label{Key: "result", Value: "memo_miss"})
	if s.series != nil {
		r.GaugeFunc("graphtempod_ingested_points", "Time points ingested.",
			func() float64 { return float64(s.series.Len()) })
		r.RegisterCounter("graphtempod_catalog_delta_applies_total",
			"Serving states advanced to a successor catalog by a tail append.",
			&s.deltaApplies)
		r.RegisterCounter("graphtempod_catalog_retro_applies_total",
			"Serving states advanced to a successor catalog by a retroactive splice (fresh result cache).",
			&s.retroApplies)
		r.GaugeFunc("graphtempod_history_cache_entries", "Reconstructed historical states resident.",
			func() float64 { return float64(s.hist.Stats().Entries) })
		r.GaugeFunc("graphtempod_history_cache_bytes", "Approximate bytes of reconstructed historical states.",
			func() float64 { return float64(s.hist.Stats().Bytes) })
		r.GaugeFunc("graphtempod_history_anchors", "Graphs the series keeps for AS OF replays to resume from.",
			func() float64 { return float64(s.series.Anchors().Count) })
		r.GaugeFunc("graphtempod_history_anchor_spacing", "Transactions between the anchors the series keeps.",
			func() float64 { return float64(s.series.Anchors().Spacing) })
		r.GaugeFunc("graphtempod_history_anchor_bytes", "Estimated bytes the anchors hold apart: each one's timestamp arrays and the bitsets changed since the anchor before it.",
			func() float64 { return float64(s.series.Anchors().Bytes) })
		r.RegisterCounter("graphtempod_catalog_full_rebuilds_total",
			"Serving snapshots replaced by a from-scratch rebuild after the initial build.",
			&s.fullRebuilds)
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
			func() float64 { return float64(s.series.Txn()) })
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

// latencyHists is one endpoint's request_seconds histogram and its
// stage_seconds histograms, in stageNames order.
type latencyHists struct {
	request *metrics.Histogram
	stages  [len(stageNames)]*metrics.Histogram
}

// stageBuckets extend DefBuckets two powers of four down, to 6.25µs: a
// stage often takes a few microseconds.
var stageBuckets = append([]float64{0.00000625, 0.000025}, metrics.DefBuckets...)

// latencyHist returns (registering on first use) an endpoint's latency
// histograms.
func (s *Server) latencyHist(endpoint string) *latencyHists {
	s.reqMu.Lock()
	defer s.reqMu.Unlock()
	h, ok := s.latency[endpoint]
	if !ok {
		ep := metrics.Label{Key: "endpoint", Value: endpoint}
		h = &latencyHists{request: s.reg.Histogram("graphtempod_request_seconds", "Request latency in seconds.", nil, ep)}
		for i, name := range stageNames {
			h.stages[i] = s.reg.Histogram("graphtempod_stage_seconds",
				"Request wall time by pipeline stage, for the stages a request reached.", stageBuckets,
				ep, metrics.Label{Key: "stage", Value: name})
		}
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
			if st.Gen < want {
				http.Error(w, fmt.Sprintf("at generation %d, waiting for %d", st.Gen, want),
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
	op     string // the compiled plan's root operator
	memo   bool   // the answer was the plan's memoized one
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
		deadline := s.deadlineFor(r)

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
			hist.request.Observe(elapsed.Seconds())
			if sw.status == http.StatusOK {
				okCount.Inc()
			} else {
				s.reqCounter(endpoint, sw.status).Inc()
			}
			st := &sw.stages
			for i, d := range st.all() {
				if d > 0 {
					hist.stages[i].Observe(d.Seconds())
				}
			}
			// A request that used more than half its deadline is the slow-query
			// log: the same line, raised to WARN.
			level := slog.LevelInfo
			if elapsed > deadline/2 {
				level = slog.LevelWarn
			}
			// Typed attrs: no boxing of the values on every request. A
			// memoized answer's line ends in memo=hit; slog drops the empty
			// Attr every other line carries.
			var memo slog.Attr
			if sw.memo {
				memo = slog.String("memo", "hit")
			}
			s.log.LogAttrs(r.Context(), level, "request",
				slog.String("endpoint", endpoint), slog.String("method", r.Method), slog.String("path", r.URL.Path),
				slog.Int("status", sw.status), slog.Float64("ms", elapsedMs(elapsed)), slog.String("op", sw.op),
				slog.Int64("admit_us", st.admit.Microseconds()),
				slog.Int64("decode_us", st.decode.Microseconds()), slog.Int64("state_us", st.state.Microseconds()),
				slog.Int64("compile_us", st.compile.Microseconds()), slog.Int64("exec_us", st.exec.Microseconds()),
				slog.Int64("encode_us", st.encode.Microseconds()),
				slog.Int("bytes", sw.bytes), slog.String("remote", r.RemoteAddr), slog.String("request_id", id), memo)
		}()

		ctx, cancel := context.WithTimeout(r.Context(), deadline)
		defer cancel()

		err := s.adm.acquire(ctx, weight)
		sw.stages.admit = time.Since(start)
		if err != nil {
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
// client-supplied X-Deadline-Ms header when present, valid and below it. A
// header at or above the cap keeps the cap, so a value too large for a
// time.Duration cannot overflow into an instant expiry.
func (s *Server) deadlineFor(r *http.Request) time.Duration {
	d := s.cfg.RequestTimeout
	if h := r.Header.Get("X-Deadline-Ms"); h != "" {
		if ms, err := strconv.ParseInt(h, 10, 64); err == nil && ms > 0 && ms < d.Milliseconds() {
			d = time.Duration(ms) * time.Millisecond
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

// NewLogger returns the logger of a daemon's -log format: one JSON object
// per record for "json", slog's text handler otherwise.
func NewLogger(format string, w io.Writer) *slog.Logger {
	if format == "json" {
		return slog.New(slog.NewJSONHandler(w, nil))
	}
	return slog.New(slog.NewTextHandler(w, nil))
}

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
