package server

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/tgql"
)

// This file is the read pipeline. Every question the paper asks reaches the
// engine as one plan.Logical, so every query endpoint is a decoder (its wire
// struct → query, with the endpoint's own validation; an error is a 400) and
// an encoder (answer → the endpoint's reply bytes), and serve owns everything
// between them. A span, a check or a counter that should apply to every query
// has this one place to go.

// query is what a decoder lowers its wire request to.
type query struct {
	// stmt carries the logical plan to compile (Node) and whether to stop
	// there and render it (Explain); the JSON endpoints fill in Node alone.
	// Node is nil only for TGQL's STATS and COARSEN, which have no logical
	// plan: serve skips compile and execute, and the TGQL encoder computes
	// them over the serving graph (tgql.Statement.Result) — the pipeline's
	// one side door.
	stmt tgql.Statement
	text string // TGQL source: resolution errors carry line:col
}

// answer is what serve hands an encoder.
type answer struct {
	g    *core.Graph  // the head serving graph; a plan carries its own
	plan *plan.Plan   // nil when the query has no logical node
	res  *plan.Result // nil for compile-only requests
	// elapsed is the reply's elapsed_ms: the time this request's execute
	// step took — ≈ 0 for an answer the plan memoized — and nothing else. The other stages are the access log's
	// fields; the latency histogram covers the whole request.
	elapsed time.Duration
}

// encoder writes one endpoint's reply.
type encoder func(w http.ResponseWriter, q query, a answer) (int, error)

// stages is where one request's wall time went, in pipeline order. admit
// is the wait for admission; reads fill the other five, and an ingest's exec
// is validate → WAL → AppendAt and its state the advance (or rebuild) that
// made the point visible. A stage the request never reached reads 0.
type stages struct{ admit, decode, state, compile, exec, encode time.Duration }

// stageNames label graphtempod_stage_seconds, in the order of stages.all.
var stageNames = [...]string{"admission", "decode", "state", "compile", "exec", "encode"}

func (st *stages) all() [len(stageNames)]time.Duration {
	return [...]time.Duration{st.admit, st.decode, st.state, st.compile, st.exec, st.encode}
}

// stageClock attributes wall time to stages: each lap is the time since the
// previous one.
type stageClock struct{ last time.Time }

func (c *stageClock) lap() time.Duration {
	now := time.Now()
	d := now.Sub(c.last)
	c.last = now
	return d
}

// errPartialAnalytics is the typed rejection of a whole-timeline statement
// on a partial (time-range shard) daemon.
var errPartialAnalytics = errors.New(
	"analytics statements traverse the whole timeline and cannot be served by a time-range shard; query the router's mirror")

// wholeTimeline reports whether a statement's answer spans the whole
// timeline by construction — the evolution-analytics family. A daemon
// serving one time-range shard (Config.Partial) must not answer it: a
// shard-local result would be silently wrong, and the router serves these
// from its mirror. EXPLAIN of such a statement lowers to the same node.
func wholeTimeline(node plan.Logical) bool {
	switch node.(type) {
	case *plan.Events, *plan.Paths, *plan.Trend:
		return true
	}
	return false
}

// serve is the one request pipeline behind every query endpoint — body →
// serving state → partial-shard guard → plan.Compile (plan cache) → the
// plan's answer (memoized on the state) → reply; R is the endpoint's wire
// request struct.
func serve[R any](s *Server, decode func(*R) (query, error), encode encoder) apiHandler {
	return func(ctx context.Context, w *statusWriter, r *http.Request) (int, error) {
		clock := stageClock{last: time.Now()}
		var (
			req R
			q   query
		)
		status, err := s.decodeJSON(w, r, &req)
		if err == nil {
			status = http.StatusBadRequest
			q, err = decode(&req)
		}
		w.stages.decode = clock.lap()
		if err != nil {
			return status, err
		}
		st, err := s.current()
		w.stages.state = clock.lap()
		if err != nil {
			return http.StatusServiceUnavailable, err
		}
		if s.cfg.Partial && wholeTimeline(q.stmt.Node) {
			return http.StatusBadRequest, errPartialAnalytics
		}
		// A request whose deadline passed while it was decoded or waited for
		// the state is abandoned here, whether or not it would go on to
		// execute; Execute polls ctx from then on.
		if err := ctx.Err(); err != nil {
			return statusForCtx(err), err
		}
		a := answer{g: st.Graph}
		if q.stmt.Node != nil {
			// The plan cache is the serving state's own; s resolves AS OF /
			// VALID DURING states, each with a cache of its own.
			a.plan, err = plan.Compile(plan.Env{Graph: st.Graph, Catalog: st.Catalog, Query: q.text,
				Cache: st.Plans, History: s}, q.stmt.Node)
			w.stages.compile = clock.lap()
			if err != nil {
				return http.StatusBadRequest, err
			}
			w.op = a.plan.Op()
			if q.stmt.Runs() {
				if q.stmt.Analyze { // EXPLAIN ANALYZE measures the operator itself
					a.res, err = a.plan.Execute(ctx)
				} else {
					a.res, w.memo, err = a.plan.Answer(ctx)
				}
				a.elapsed = clock.lap()
				w.stages.exec = a.elapsed
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					return statusForCtx(err), err
				} else if err != nil {
					return http.StatusBadRequest, err // the engine refused: the client's fault
				}
			}
		}
		status, err = encode(w, q, a)
		w.stages.encode = clock.lap()
		return status, err
	}
}

// elapsedMs renders a duration the way every elapsed_ms field does: whole
// microseconds, in milliseconds.
func elapsedMs(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// Minted request ids are a per-process prefix plus a sequence number.
var (
	requestPrefix = strconv.FormatInt(time.Now().UnixNano(), 36) + "-"
	requestSeq    atomic.Uint64
)

// RequestID returns the id a request is traced under: the X-Request-Id the
// client (or an upstream router hop) sent, else one minted here, at the
// edge. It is echoed on the response and printed on the access-log and panic
// lines, and the router forwards it on its shard and mirror hops, so one id
// follows a request across processes.
func RequestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); id != "" && len(id) <= 128 {
		return id
	}
	return requestPrefix + strconv.FormatUint(requestSeq.Add(1), 36)
}
