package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/stream"
)

// Config configures a Router.
type Config struct {
	// Map is the cluster topology, shards in time order.
	Map *ShardMap
	// MaxLag is the maximum replication lag (in time points) a member may
	// have and still feed the mirror. 0 (the default) replicates only from
	// fully caught-up members.
	MaxLag int
	// ShardTimeout bounds each shard RPC: a status probe or an ingest
	// forward; <= 0 selects 10s.
	ShardTimeout time.Duration
	// RequestTimeout bounds a whole routed request, a mirror read or an
	// ingest; <= 0 selects 30s.
	RequestTimeout time.Duration
	// ProbeInterval is the health poll cadence; <= 0 selects 250ms.
	ProbeInterval time.Duration
	// CacheBytes sizes the mirror server's materialization cache.
	CacheBytes int64
	// Client is the HTTP client for shard RPCs, health probes and
	// replication; nil selects a default without a global timeout.
	Client *http.Client
	// Logger receives lifecycle and access logs; nil selects slog.Default.
	Logger *slog.Logger
}

// Router fronts the shard processes: it answers every read from its mirror
// (a full WAL-replicated copy of every shard served by an embedded
// single-node server) and forwards ingests to the tail shard's primary.
type Router struct {
	cfg    Config
	log    *slog.Logger
	client *http.Client
	health *health
	mux    *http.ServeMux
	reg    *metrics.Registry

	// The mirror: the concatenation of every shard's stream in shard
	// (= time) order, advanced by the tail follower. applyMu serializes
	// appends; starts[i] is the global index of shard i's first point and
	// is fixed at startup for frozen shards.
	mseries *stream.Series
	msrv    *server.Server
	applyMu sync.Mutex
	starts  []int

	cancel   context.CancelFunc
	wg       sync.WaitGroup
	draining bool
	drainMu  sync.Mutex

	// Requests answered by serving route, and ingests refused with 503.
	mirrorReqs, ingestReqs metrics.Counter
	unavailable            metrics.Counter
}

// New builds the router: it probes every shard for schema and watermarks,
// replays the frozen shards into the mirror, starts the tail follower and
// health loop, and mounts the routes. It fails fast when a shard is
// unreachable or the shards disagree on the attribute schema.
func New(cfg Config) (*Router, error) {
	if cfg.Map == nil || len(cfg.Map.Shards) == 0 {
		return nil, fmt.Errorf("cluster: no shard map")
	}
	if cfg.ShardTimeout <= 0 {
		cfg.ShardTimeout = 10 * time.Second
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 250 * time.Millisecond
	}
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	rt := &Router{
		cfg:    cfg,
		log:    log,
		client: client,
		health: newHealth(cfg.Map, client, cfg.ShardTimeout),
		mux:    http.NewServeMux(),
		reg:    metrics.NewRegistry(),
	}

	ctx, cancel := context.WithCancel(context.Background())
	rt.cancel = cancel
	rt.health.probe(ctx)

	if err := rt.buildMirror(ctx); err != nil {
		cancel()
		return nil, err
	}

	rt.wg.Add(2)
	go func() { defer rt.wg.Done(); rt.health.run(ctx, cfg.ProbeInterval) }()
	tail := cfg.Map.Tail()
	follower := rt.shardFollower(tail)
	follower.WaitMs = 1000
	go func() { defer rt.wg.Done(); follower.Run(ctx) }()

	rt.registerMetrics()
	rt.routes()
	log.Info("router ready", "shards", len(cfg.Map.Shards), "points", rt.mseries.Len(),
		"frozen_points", rt.starts[tail])
	return rt, nil
}

// buildMirror pins the shard schema and boundaries and replays every
// frozen shard's stream into the mirror series, in shard order.
func (rt *Router) buildMirror(ctx context.Context) error {
	shards := rt.cfg.Map.Shards
	var attrs []core.AttrSpec
	var attrSig string
	points := make([]int, len(shards))
	for i, sh := range shards {
		st, err := rt.anyStatus(ctx, sh)
		if err != nil {
			return fmt.Errorf("cluster: shard %s: %w", sh.Name, err)
		}
		if st.Mode == "static" {
			return fmt.Errorf("cluster: shard %s runs in static mode and cannot stream its WAL", sh.Name)
		}
		var sig strings.Builder
		var as []core.AttrSpec
		for _, a := range st.Attrs {
			kind := core.Static
			if a.Kind == core.TimeVarying.String() {
				kind = core.TimeVarying
			}
			as = append(as, core.AttrSpec{Name: a.Name, Kind: kind})
			sig.WriteString(a.Name + "\x00" + a.Kind + "\x00")
		}
		if i == 0 {
			attrs, attrSig = as, sig.String()
		} else if sig.String() != attrSig {
			return fmt.Errorf("cluster: shard %s attribute schema %v disagrees with shard %s",
				sh.Name, st.Attrs, shards[0].Name)
		}
		points[i] = st.Points
	}
	rt.mseries = stream.New(attrs...)
	rt.starts = make([]int, len(shards))
	for i := range shards {
		rt.starts[i] = rt.mseries.Len()
		if i == rt.cfg.Map.Tail() {
			break // the tail is replayed by the background follower
		}
		pinned := points[i]
		f := rt.shardFollower(i)
		for rt.mseries.Len()-rt.starts[i] < pinned {
			n, err := f.Poll(ctx)
			if err != nil {
				return fmt.Errorf("cluster: replaying frozen shard %s: %w", shards[i].Name, err)
			}
			if n == 0 {
				return fmt.Errorf("cluster: frozen shard %s stalled at %d/%d points",
					shards[i].Name, rt.mseries.Len()-rt.starts[i], pinned)
			}
		}
		if got := rt.mseries.Len() - rt.starts[i]; got != pinned {
			return fmt.Errorf("cluster: frozen shard %s grew during replay (%d points, pinned %d); only the tail shard may ingest",
				shards[i].Name, got, pinned)
		}
	}
	srv, err := server.New(server.Config{
		Series:         rt.mseries,
		CacheBytes:     rt.cfg.CacheBytes,
		RequestTimeout: rt.cfg.RequestTimeout,
		Logger:         rt.log.With("component", "mirror"),
		ShardName:      "mirror",
		Role:           server.RoleReplica,
	})
	if err != nil {
		return err
	}
	rt.msrv = srv
	return nil
}

// shardFollower builds the replication client that feeds shard i's
// records into the mirror. Frozen shards replay once at startup; the tail
// shard's follower runs for the router's lifetime, surviving primary
// failure by picking any live member.
func (rt *Router) shardFollower(i int) *Follower {
	sh := rt.cfg.Map.Shards[i]
	return &Follower{
		Pick: func() (string, error) {
			cands := rt.health.candidates(sh, rt.cfg.MaxLag)
			return cands[0].URL, nil
		},
		Apply: func(label string, snap stream.Snapshot, before string) (int, error) {
			rt.applyMu.Lock()
			defer rt.applyMu.Unlock()
			return rt.mseries.AppendAt(label, snap, before)
		},
		Len: func() int {
			rt.applyMu.Lock()
			defer rt.applyMu.Unlock()
			return rt.mseries.Len() - rt.starts[i]
		},
		Client: rt.client,
		Log:    rt.log.With("shard", sh.Name),
	}
}

// anyStatus fetches /v1/status from the first answering member of a shard.
func (rt *Router) anyStatus(ctx context.Context, sh Shard) (*server.StatusResponse, error) {
	var lastErr error
	for _, mem := range sh.Members {
		rctx, cancel := context.WithTimeout(ctx, rt.cfg.ShardTimeout)
		req, err := http.NewRequestWithContext(rctx, http.MethodGet, mem.URL+"/v1/status", nil)
		if err != nil {
			cancel()
			return nil, err
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			cancel()
			lastErr = err
			continue
		}
		var st server.StatusResponse
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		cancel()
		if err != nil {
			lastErr = err
			continue
		}
		return &st, nil
	}
	return nil, fmt.Errorf("no member answered /v1/status: %w", lastErr)
}

// requestIDKey carries a request's X-Request-Id to the ingest forward.
type requestIDKey struct{}

// Handler returns the router's root handler. Every request is traced under
// one id — the client's X-Request-Id, else one minted here at the edge —
// echoed on the response and forwarded on every hop the request makes: the
// mirror reads it off the request (toMirror), the ingest forward takes it
// from the context (post).
func (rt *Router) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := server.RequestID(r)
		r.Header.Set("X-Request-Id", id)
		w.Header().Set("X-Request-Id", id)
		rt.mux.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id)))
	})
}

// Registry returns the router's own metrics registry (the mirror server
// keeps its own; /metrics renders both).
func (rt *Router) Registry() *metrics.Registry { return rt.reg }

// BeginDrain flips /readyz to failing and drains the mirror.
func (rt *Router) BeginDrain() {
	rt.drainMu.Lock()
	rt.draining = true
	rt.drainMu.Unlock()
	rt.msrv.BeginDrain()
}

func (rt *Router) isDraining() bool {
	rt.drainMu.Lock()
	defer rt.drainMu.Unlock()
	return rt.draining
}

// Close stops the health and replication loops.
func (rt *Router) Close() {
	rt.cancel()
	rt.wg.Wait()
}

// ---- watermarks ---------------------------------------------------------

// globalHigh is the cluster's high-water point count: the frozen prefix
// plus the tail shard's highest member watermark (which may be ahead of
// the mirror by the replication lag).
func (rt *Router) globalHigh() int {
	tail := rt.cfg.Map.Tail()
	high := 0
	for _, mem := range rt.cfg.Map.Shards[tail].Members {
		if st := rt.health.member(mem.URL); st.Points > high {
			high = st.Points
		}
	}
	if applied := rt.mseries.Len() - rt.starts[tail]; applied > high {
		high = applied
	}
	return rt.starts[tail] + high
}

// mirrorLag is how many points the mirror is behind the cluster
// high-water mark; mirror-served reads are stale by at most this much.
func (rt *Router) mirrorLag() int {
	if lag := rt.globalHigh() - rt.mseries.Len(); lag > 0 {
		return lag
	}
	return 0
}

// ---- routes -------------------------------------------------------------

func (rt *Router) routes() {
	rt.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	rt.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if rt.isDraining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		// ?gen=N waits on the GLOBAL point count reaching N in the mirror,
		// so ingest clients can poll routed writes becoming readable.
		if q := r.URL.Query().Get("gen"); q != "" {
			want, err := strconv.Atoi(q)
			if err != nil {
				http.Error(w, "gen must be an integer", http.StatusBadRequest)
				return
			}
			if n := rt.mseries.Len(); n < want {
				http.Error(w, fmt.Sprintf("mirror at %d points, waiting for %d", n, want),
					http.StatusServiceUnavailable)
				return
			}
		}
		fmt.Fprintln(w, "ready")
	})
	rt.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		rt.reg.WritePrometheus(w)
		rt.msrv.Registry().WritePrometheus(w)
	})
	rt.mux.HandleFunc("POST /v1/ingest", rt.handleIngest)
	rt.mux.HandleFunc("GET /v1/status", rt.handleStatus)
	rt.mux.HandleFunc("GET /v1/cluster/status", rt.handleClusterStatus)
	// Every read is the mirror's: it is a full replica with the complete
	// single-node engine behind it — catalog and prefix sums included — so
	// aggregates, exploration, TGQL (the whole-timeline analytics too),
	// explain, the global timeline and even a global WAL stream (for
	// chained followers) come byte-identical to a single node, and frozen
	// history stays readable with every member of its shard down.
	for _, route := range []string{
		"POST /v1/aggregate", "POST /v1/explore", "POST /v1/tgql", "POST /v1/explain",
		"GET /v1/labels", "GET /v1/wal/stream",
	} {
		rt.mux.HandleFunc(route, rt.toMirror)
	}
}

func (rt *Router) registerMetrics() {
	rt.reg.RegisterCounter("graphtempo_router_requests_total", "Requests answered by serving route.",
		&rt.mirrorReqs, metrics.Label{Key: "route", Value: "mirror"})
	rt.reg.RegisterCounter("graphtempo_router_requests_total", "",
		&rt.ingestReqs, metrics.Label{Key: "route", Value: "ingest"})
	rt.reg.RegisterCounter("graphtempo_router_unavailable_total",
		"Ingests refused with 503 because the tail primary did not answer.", &rt.unavailable)
	rt.reg.GaugeFunc("graphtempo_router_mirror_lag_points",
		"Points the mirror is behind the cluster high-water mark.",
		func() float64 { return float64(rt.mirrorLag()) })
	rt.reg.GaugeFunc("graphtempo_router_points",
		"Global time points applied to the mirror.",
		func() float64 { return float64(rt.mseries.Len()) })
	for _, sh := range rt.cfg.Map.Shards {
		for _, mem := range sh.Members {
			mem := mem
			rt.reg.GaugeFunc("graphtempo_router_member_up",
				"1 when the member's last health probe succeeded.",
				func() float64 {
					if rt.health.member(mem.URL).Alive {
						return 1
					}
					return 0
				},
				metrics.Label{Key: "shard", Value: sh.Name},
				metrics.Label{Key: "url", Value: mem.URL})
		}
	}
}

// toMirror delegates a request to the embedded mirror server.
func (rt *Router) toMirror(w http.ResponseWriter, r *http.Request) {
	rt.mirrorReqs.Inc()
	w.Header().Set("X-Gt-Route", "mirror")
	w.Header().Set("X-Gt-Lag", strconv.Itoa(rt.mirrorLag()))
	rt.msrv.Handler().ServeHTTP(w, r)
}

// ---- ingest -------------------------------------------------------------

// handleIngest forwards the write to the tail shard's primary — never a
// replica — and rewrites the shard-local point counts in the response to
// global ones. The forward is sent once: a transport error may come after
// the primary applied the write, and a resend would turn that applied write
// into a duplicate-label 400. A dead primary means 503 + Retry-After; the
// cluster never silently promotes a writer.
func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, server.DefaultMaxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			server.WriteError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds the %d-byte limit", mbe.Limit))
			return
		}
		server.WriteError(w, http.StatusBadRequest, fmt.Errorf("reading request body: %w", err))
		return
	}
	tail := rt.cfg.Map.Tail()
	primary := rt.cfg.Map.Shards[tail].Primary()
	ctx, cancel := context.WithTimeout(r.Context(), min(rt.cfg.RequestTimeout, rt.cfg.ShardTimeout))
	defer cancel()
	status, data, err := rt.post(ctx, primary.URL+"/v1/ingest", body)
	if err != nil {
		rt.unavailable.Inc()
		w.Header().Set("Retry-After", "1")
		server.WriteError(w, http.StatusServiceUnavailable,
			fmt.Errorf("tail shard %s primary is unreachable: %w", rt.cfg.Map.Shards[tail].Name, err))
		return
	}
	if status != http.StatusOK {
		if status >= 500 {
			rt.unavailable.Inc()
			w.Header().Set("Retry-After", "1")
			server.WriteError(w, http.StatusServiceUnavailable, errors.New(envelopeMessage(data, status)))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		w.Write(data)
		return
	}
	var ir server.IngestResponse
	if err := json.Unmarshal(data, &ir); err != nil {
		server.WriteError(w, http.StatusInternalServerError, fmt.Errorf("bad shard ingest response: %w", err))
		return
	}
	ir.Points += rt.starts[tail]
	ir.Visible += rt.starts[tail]
	// The shard acked its local transaction sequence; the mirror's global
	// journal has the frozen prefix in front, so the global AS OF handle is
	// offset by the tail shard's start.
	ir.Txn += rt.starts[tail]
	rt.ingestReqs.Inc()
	writeJSON(w, ir)
}

// post sends the ingest forward; the reply is read whole.
func (rt *Router) post(ctx context.Context, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id, ok := ctx.Value(requestIDKey{}).(string); ok {
		req.Header.Set("X-Request-Id", id)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}

// envelopeMessage extracts the message from a shard's JSON error
// envelope, falling back to the raw body.
func envelopeMessage(data []byte, status int) string {
	var eb struct {
		Error server.ErrorDetail `json:"error"`
	}
	if err := json.Unmarshal(data, &eb); err == nil && eb.Error.Message != "" {
		return eb.Error.Message
	}
	return fmt.Sprintf("status %d: %s", status, bytes.TrimSpace(data))
}

// ---- status -------------------------------------------------------------

// RouterStatus is the router's GET /v1/status body.
type RouterStatus struct {
	Build     string `json:"build"`
	Role      string `json:"role"` // always "router"
	Shards    int    `json:"shards"`
	Points    int    `json:"points"`     // applied to the mirror
	Txn       int    `json:"txn"`        // mirror transaction watermark (global AS OF bound)
	HighWater int    `json:"high_water"` // cluster-wide ingested points
	MirrorLag int    `json:"mirror_lag"`
	Draining  bool   `json:"draining"`
}

func (rt *Router) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, RouterStatus{
		Build:     server.BuildString(),
		Role:      "router",
		Shards:    len(rt.cfg.Map.Shards),
		Points:    rt.mseries.Len(),
		Txn:       rt.mseries.Txn(),
		HighWater: rt.globalHigh(),
		MirrorLag: rt.mirrorLag(),
		Draining:  rt.isDraining(),
	})
}

// ShardStatus is one shard's entry in GET /v1/cluster/status: its pinned
// global range start, high-water point count and the live member view.
type ShardStatus struct {
	Name    string         `json:"name"`
	Start   int            `json:"start"`
	Points  int            `json:"points"`
	Frozen  bool           `json:"frozen"`
	Members []MemberHealth `json:"members"`
}

// ClusterStatus is the GET /v1/cluster/status body: the full topology,
// member health and replication watermarks.
type ClusterStatus struct {
	Shards       []ShardStatus `json:"shards"`
	GlobalPoints int           `json:"global_points"`
	MirrorPoints int           `json:"mirror_points"`
	// MirrorTxn is the mirror's transaction watermark: the highest global
	// AS OF position the router can currently answer.
	MirrorTxn int `json:"mirror_txn"`
	MirrorLag int `json:"mirror_lag"`
}

func (rt *Router) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	tail := rt.cfg.Map.Tail()
	out := ClusterStatus{
		GlobalPoints: rt.globalHigh(),
		MirrorPoints: rt.mseries.Len(),
		MirrorTxn:    rt.mseries.Txn(),
		MirrorLag:    rt.mirrorLag(),
	}
	for i, sh := range rt.cfg.Map.Shards {
		ss := ShardStatus{Name: sh.Name, Start: rt.starts[i], Frozen: i != tail}
		for _, mem := range sh.Members {
			st := rt.health.member(mem.URL)
			st.URL, st.Role = mem.URL, mem.Role // filled even before the first probe lands
			if st.Points > ss.Points {
				ss.Points = st.Points
			}
			ss.Members = append(ss.Members, st)
		}
		out.Shards = append(out.Shards, ss)
	}
	writeJSON(w, out)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
