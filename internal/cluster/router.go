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
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/stream"
)

// Config configures a Router.
type Config struct {
	// Map is the cluster topology, shards in time order.
	Map *ShardMap
	// MaxLag is the maximum replication lag (in time points) a replica may
	// have and still serve reads. 0 (the default) routes only to fully
	// caught-up members.
	MaxLag int
	// ShardTimeout bounds each shard RPC attempt; <= 0 selects 10s.
	ShardTimeout time.Duration
	// RequestTimeout bounds a whole routed request across its retries;
	// <= 0 selects 30s.
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

// Router fronts the shard processes: it scatters decomposable aggregates
// into per-shard partials and merges them exactly, answers everything
// else from its mirror (a full WAL-replicated copy of every shard served
// by an embedded single-node server), forwards ingests to the tail
// shard's primary, and fails reads over to caught-up replicas.
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
	byName  map[string]int // shard name -> index

	// label -> global index cache over the mirror timeline.
	tlMu     sync.Mutex
	tlLabels []string
	tlIndex  map[string]int
	tlN      int

	cancel   context.CancelFunc
	wg       sync.WaitGroup
	draining bool
	drainMu  sync.Mutex

	routeMu     sync.Mutex
	routeCounts map[string]*metrics.Counter
	failovers   metrics.Counter
	unavailable metrics.Counter
}

// shardError is a routed request's terminal error: the HTTP status the
// shard tier produced (or 503 when no member answered) and the message to
// surface. 4xx statuses are authoritative client errors; everything else
// is retried across members first.
type shardError struct {
	status int
	msg    string
}

func (e *shardError) Error() string { return e.msg }

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
		cfg:         cfg,
		log:         log,
		client:      client,
		health:      newHealth(cfg.Map, client, cfg.ShardTimeout),
		mux:         http.NewServeMux(),
		reg:         metrics.NewRegistry(),
		byName:      make(map[string]int),
		routeCounts: make(map[string]*metrics.Counter),
	}
	for i, sh := range cfg.Map.Shards {
		rt.byName[sh.Name] = i
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
		Series:     rt.mseries,
		CacheBytes: rt.cfg.CacheBytes,
		Logger:     rt.log.With("component", "mirror"),
		ShardName:  "mirror",
		Role:       server.RoleReplica,
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

// requestIDKey carries a request's X-Request-Id to the outbound shard hops.
type requestIDKey struct{}

// Handler returns the router's root handler. Every request is traced under
// one id — the client's X-Request-Id, else one minted here at the edge —
// echoed on the response and forwarded on every hop the request makes: the
// mirror reads it off the request (toMirror), shard posts take it from the
// context (post).
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

// ---- timeline -----------------------------------------------------------

// timeline returns the mirror's global label list and label->index map,
// refreshed when replication has appended points.
func (rt *Router) timeline() ([]string, map[string]int) {
	rt.tlMu.Lock()
	defer rt.tlMu.Unlock()
	if n := rt.mseries.Len(); n != rt.tlN {
		rt.tlLabels = rt.mseries.Labels()
		rt.tlIndex = make(map[string]int, n)
		for i, l := range rt.tlLabels {
			rt.tlIndex[l] = i
		}
		rt.tlN = n
	}
	return rt.tlLabels, rt.tlIndex
}

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
	rt.mux.HandleFunc("POST /v1/aggregate", rt.handleAggregate)
	rt.mux.HandleFunc("POST /v1/ingest", rt.handleIngest)
	rt.mux.HandleFunc("GET /v1/status", rt.handleStatus)
	rt.mux.HandleFunc("GET /v1/cluster/status", rt.handleClusterStatus)
	// Everything non-decomposable is the mirror's: it is a full replica
	// with the complete single-node engine behind it, so exploration,
	// TGQL, explain, partials, the global timeline and even a global WAL
	// stream (for chained followers) come for free and byte-identical.
	// That includes the analytics statements (EVENTS/PATHS/TREND) on
	// /v1/tgql: they traverse the whole timeline, so shard-local partials
	// cannot compose an answer, while the mirror holds every point.
	for _, route := range []string{
		"POST /v1/explore", "POST /v1/tgql", "POST /v1/explain",
		"POST /v1/partial/aggregate", "GET /v1/labels", "GET /v1/wal/stream",
	} {
		rt.mux.HandleFunc(route, func(w http.ResponseWriter, r *http.Request) {
			rt.toMirror(w, r, nil)
		})
	}
}

func (rt *Router) registerMetrics() {
	rt.reg.RegisterCounter("graphtempo_router_failovers_total",
		"Shard requests retried against another member after a failure.", &rt.failovers)
	rt.reg.RegisterCounter("graphtempo_router_unavailable_total",
		"Requests shed with 503 because a shard had no live member.", &rt.unavailable)
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

// routeCounter counts answered requests by serving route
// (scatter / mirror / ingest).
func (rt *Router) routeCounter(route string) *metrics.Counter {
	rt.routeMu.Lock()
	defer rt.routeMu.Unlock()
	c, ok := rt.routeCounts[route]
	if !ok {
		c = rt.reg.Counter("graphtempo_router_requests_total",
			"Requests answered by serving route.",
			metrics.Label{Key: "route", Value: route})
		rt.routeCounts[route] = c
	}
	return c
}

// toMirror delegates a request to the embedded mirror server, replaying
// the already-consumed body when the routing decision had to read it.
func (rt *Router) toMirror(w http.ResponseWriter, r *http.Request, body []byte) {
	rt.routeCounter("mirror").Inc()
	w.Header().Set("X-Gt-Route", "mirror")
	w.Header().Set("X-Gt-Lag", strconv.Itoa(rt.mirrorLag()))
	if body != nil {
		r = r.Clone(r.Context())
		r.Body = io.NopCloser(bytes.NewReader(body))
		r.ContentLength = int64(len(body))
	}
	rt.msrv.Handler().ServeHTTP(w, r)
}

// readBody slurps the request body (the routing decision needs it, and a
// mirror fallback must be able to replay it).
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, fmt.Errorf("reading request body: %w", err))
		return nil, false
	}
	return body, true
}

// ---- aggregate routing --------------------------------------------------

func (rt *Router) handleAggregate(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	var req server.AggregateRequest
	if err := server.DecodeJSON(bytes.NewReader(body), &req); err != nil {
		rt.toMirror(w, r, body) // the mirror produces the canonical 400
		return
	}
	if req.AsOf != 0 {
		// Time travel never scatters: the shards serve their heads only,
		// while the mirror holds the full global transaction journal and
		// reconstructs any AS OF position from it.
		rt.toMirror(w, r, body)
		return
	}
	slices, ok := rt.slicesFor(req)
	if !ok {
		// Non-decomposable (intersection/difference, explicit point sets)
		// or not resolvable against the pinned timeline: the mirror is the
		// exactness backstop for all of it, errors included.
		rt.toMirror(w, r, body)
		return
	}
	p, err := plan.CompileScatter(plan.ScatterQuery{
		Op: req.Op, Attrs: req.Attrs, Kind: req.Kind, Slices: slices,
	}, rt)
	if err != nil {
		rt.toMirror(w, r, body)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
	defer cancel()
	start := time.Now()
	res, err := p.Execute(ctx)
	if err != nil {
		rt.writeRoutedError(w, err)
		return
	}
	rt.routeCounter("scatter").Inc()
	w.Header().Set("X-Gt-Route", "scatter")
	w.Header().Set("X-Gt-Shards", strconv.Itoa(len(slices)))
	server.WriteAggregate(w, fmt.Sprintf("scatter(%d)", len(slices)), time.Since(start), res.Merged)
}

// slicesFor decides whether an aggregate decomposes across the shards
// and, if so, clips its interval operand(s) to each shard's time range.
// Union aggregates decompose fully: presence-anywhere over a point set is
// exact under per-shard union merge (DIST entity sets union, ALL weights
// sum over the disjoint shard pieces). Project has intersection semantics
// — an entity must appear in EVERY point of the interval — which does not
// merge by union, so it scatters only when the whole interval lands in
// one shard (a single partial merges as the identity). ok=false means
// "send it to the mirror" — everything else, explicit point sets, and
// anything that does not resolve against the mirror timeline (so error
// messages stay canonical).
func (rt *Router) slicesFor(req server.AggregateRequest) ([]plan.ShardSlice, bool) {
	if req.Op != "project" && req.Op != "union" {
		return nil, false
	}
	if len(req.Interval.Points) > 0 || len(req.Interval2.Points) > 0 {
		return nil, false
	}
	if req.Interval.From == "" {
		return nil, false
	}
	labels, index := rt.timeline()
	resolve := func(sp server.IntervalSpec) (int, int, bool) {
		lo, ok := index[sp.From]
		if !ok {
			return 0, 0, false
		}
		hi := lo
		if sp.To != "" {
			if hi, ok = index[sp.To]; !ok {
				return 0, 0, false
			}
		}
		return lo, hi, hi >= lo
	}
	lo, hi, ok := resolve(req.Interval)
	if !ok {
		return nil, false
	}
	blo, bhi := -1, -1
	if req.Op == "union" {
		if req.Interval2.From == "" {
			return nil, false
		}
		if blo, bhi, ok = resolve(req.Interval2); !ok {
			return nil, false
		}
	} else if req.Interval2.From != "" || req.Interval2.To != "" {
		return nil, false
	}
	clip := func(qlo, qhi, s, e int) (int, int) {
		if qlo < 0 {
			return -1, -1
		}
		f, t := max(qlo, s), min(qhi, e-1)
		if f > t {
			return -1, -1
		}
		return f, t
	}
	n := len(labels)
	var slices []plan.ShardSlice
	for i, sh := range rt.cfg.Map.Shards {
		s, e := rt.starts[i], n
		if i+1 < len(rt.starts) {
			e = rt.starts[i+1]
		}
		aF, aT := clip(lo, hi, s, e)
		bF, bT := clip(blo, bhi, s, e)
		switch {
		case req.Op == "project":
			if aF >= 0 {
				slices = append(slices, plan.ShardSlice{Shard: sh.Name, Op: "project",
					AFrom: labels[aF], ATo: labels[aT]})
			}
		case aF >= 0 && bF >= 0:
			slices = append(slices, plan.ShardSlice{Shard: sh.Name, Op: "union",
				AFrom: labels[aF], ATo: labels[aT], BFrom: labels[bF], BTo: labels[bT]})
		case aF >= 0:
			// One operand piece: union(A,A) is presence-anywhere over the
			// piece (union point sets dedupe), keeping union semantics —
			// "project" would demand presence in every point instead.
			slices = append(slices, plan.ShardSlice{Shard: sh.Name, Op: "union",
				AFrom: labels[aF], ATo: labels[aT], BFrom: labels[aF], BTo: labels[aT]})
		case bF >= 0:
			slices = append(slices, plan.ShardSlice{Shard: sh.Name, Op: "union",
				AFrom: labels[bF], ATo: labels[bT], BFrom: labels[bF], BTo: labels[bT]})
		}
	}
	if req.Op == "project" && len(slices) > 1 {
		return nil, false // intersection semantics: multi-shard project is the mirror's
	}
	return slices, len(slices) > 0
}

// Partial implements plan.Scatterer: execute one shard slice as a
// POST /v1/partial/aggregate against the slice's shard, with member
// failover.
func (rt *Router) Partial(ctx context.Context, slice plan.ShardSlice, attrs []string, kind string) (*plan.PartialResult, error) {
	i, ok := rt.byName[slice.Shard]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown shard %q", slice.Shard)
	}
	req := server.AggregateRequest{
		Op:       slice.Op,
		Interval: server.IntervalSpec{From: slice.AFrom, To: slice.ATo},
		Attrs:    attrs,
		Kind:     kind,
	}
	if slice.BFrom != "" {
		req.Interval2 = server.IntervalSpec{From: slice.BFrom, To: slice.BTo}
	}
	var resp server.PartialAggregateResponse
	if err := rt.doShard(ctx, i, "/v1/partial/aggregate", req, &resp); err != nil {
		return nil, err
	}
	if resp.Partial != nil {
		resp.Partial.Source = slice.Shard + ":" + resp.Partial.Source
	}
	return resp.Partial, nil
}

// doShard posts a JSON request to a shard, trying its members in
// candidate order (primary, then caught-up replicas, with a short
// backoff between attempts). 4xx answers are authoritative and returned
// immediately; transport errors, 5xx and 429 fail over to the next
// member. When every member fails the result is a 503-mapped shardError.
func (rt *Router) doShard(ctx context.Context, shard int, path string, in, out any) error {
	sh := rt.cfg.Map.Shards[shard]
	payload, err := json.Marshal(in)
	if err != nil {
		return err
	}
	var lastErr error
	for attempt, mem := range rt.health.candidates(sh, rt.cfg.MaxLag) {
		if attempt > 0 {
			rt.failovers.Inc()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(time.Duration(attempt) * 50 * time.Millisecond):
			}
		}
		actx, cancel := context.WithTimeout(ctx, rt.cfg.ShardTimeout)
		status, data, err := rt.post(actx, mem.URL+path, payload)
		cancel()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			lastErr = fmt.Errorf("%s: %w", mem.URL, err)
			continue
		}
		if status == http.StatusOK {
			return json.Unmarshal(data, out)
		}
		msg := envelopeMessage(data, status)
		if status >= 400 && status < 500 && status != http.StatusTooManyRequests {
			return &shardError{status: status, msg: msg}
		}
		lastErr = fmt.Errorf("%s: status %d: %s", mem.URL, status, msg)
	}
	return &shardError{
		status: http.StatusServiceUnavailable,
		msg:    fmt.Sprintf("shard %s has no live member: %v", sh.Name, lastErr),
	}
}

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

// writeRoutedError maps a scatter execution error onto the wire: shard
// 4xx pass through, unavailability becomes 503 + Retry-After, deadlines
// become 504 — always in the unified error envelope.
func (rt *Router) writeRoutedError(w http.ResponseWriter, err error) {
	var se *shardError
	if errors.As(err, &se) {
		if se.status >= 500 || se.status == http.StatusTooManyRequests {
			rt.unavailable.Inc()
			w.Header().Set("Retry-After", "1")
			server.WriteError(w, http.StatusServiceUnavailable, errors.New(se.msg))
			return
		}
		server.WriteError(w, se.status, errors.New(se.msg))
		return
	}
	if errors.Is(err, context.DeadlineExceeded) {
		server.WriteError(w, http.StatusGatewayTimeout, err)
		return
	}
	server.WriteError(w, http.StatusInternalServerError, err)
}

// ---- ingest -------------------------------------------------------------

// handleIngest forwards the write to the tail shard's primary — never a
// replica — and rewrites the shard-local point counts in the response to
// global ones. A dead primary means the write is refused with 503; the
// cluster never silently promotes a writer.
func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	tail := rt.cfg.Map.Tail()
	primary := rt.cfg.Map.Shards[tail].Primary()
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
	defer cancel()
	var status int
	var data []byte
	var err error
	for attempt := 0; attempt < 2; attempt++ {
		if attempt > 0 {
			rt.failovers.Inc()
			select {
			case <-ctx.Done():
			case <-time.After(50 * time.Millisecond):
			}
		}
		actx, acancel := context.WithTimeout(ctx, rt.cfg.ShardTimeout)
		status, data, err = rt.post(actx, primary.URL+"/v1/ingest", body)
		acancel()
		if err == nil {
			break
		}
	}
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
	rt.routeCounter("ingest").Inc()
	writeJSON(w, ir)
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
