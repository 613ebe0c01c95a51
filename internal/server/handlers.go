package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/explore"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/tgql"
)

// errNotReady is returned while a stream-mode server has no data yet.
var errNotReady = errors.New("server: no time points ingested yet")

// errTrailingData rejects a body that goes on after its request object.
var errTrailingData = errors.New("unexpected data after the request object")

// decodeStrict decodes one request object from r into v: a field v does
// not declare is an error, and so is anything but whitespace after the
// object.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	_, err := dec.Token()
	var mbe *http.MaxBytesError
	switch {
	case errors.Is(err, io.EOF):
		return nil
	case errors.As(err, &mbe):
		return err
	}
	return errTrailingData
}

// decodeJSON decodes the request body into v with decodeStrict, enforcing the
// configured body size limit. A body over the limit maps to a structured
// 413 with the limit surfaced in the message; any other decode failure is
// the client's fault (400).
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds the %d-byte limit", mbe.Limit)
		}
		return http.StatusBadRequest, fmt.Errorf("bad request body: %w", err)
	}
	return 0, nil
}

// IntervalSpec selects a set of time points by label: either a contiguous
// range {"from": "t0", "to": "t2"} (to defaults to from, i.e. one point)
// or an explicit point set {"points": ["t0", "t2"]}.
type IntervalSpec struct {
	From   string   `json:"from,omitempty"`
	To     string   `json:"to,omitempty"`
	Points []string `json:"points,omitempty"`
}

// ref lowers the wire spec into the planner's symbolic interval ref;
// resolution against the timeline happens at plan compile.
func (sp IntervalSpec) ref() plan.IntervalRef {
	return plan.IntervalRef{From: sp.From, To: sp.To, Points: sp.Points}
}

// AggregateRequest asks for the aggregate graph of a temporal operator
// applied to one or two intervals.
type AggregateRequest struct {
	// Op is one of project, union, intersection, difference.
	Op        string       `json:"op"`
	Interval  IntervalSpec `json:"interval"`
	Interval2 IntervalSpec `json:"interval2,omitempty"`
	Attrs     []string     `json:"attrs"`
	// Kind is dist (default) or all.
	Kind string `json:"kind,omitempty"`
	// AsOf evaluates the query against the graph as of this transaction
	// (the txn acknowledged by an earlier ingest); 0 is the live head.
	AsOf int `json:"as_of,omitempty"`
}

// AggregateResponse carries the aggregate graph and how it was derived. The
// daemons write these bytes with writeAggregate rather than reflecting over
// the struct; it is the contract clients decode.
type AggregateResponse struct {
	// Source is the materialization catalog's derivation (scratch, cached,
	// t-distributive, d-distributive).
	Source string `json:"source"`
	// ElapsedMs is the time the compiled plan took to execute. Decoding and
	// compiling the request and encoding and sending the graph are not in
	// it; the request log and the latency histogram cover the whole request.
	ElapsedMs float64         `json:"elapsed_ms"`
	Graph     json.RawMessage `json:"graph"`
}

func decodeAggregate(req *AggregateRequest) (query, error) {
	return query{stmt: tgql.Statement{Node: &plan.Aggregate{
		Op:    plan.TemporalOp{Op: req.Op, A: req.Interval.ref(), B: req.Interval2.ref()},
		Attrs: req.Attrs,
		Kind:  req.Kind,
		AsOf:  plan.TxnRef{Txn: req.AsOf},
	}}}, nil
}

func encodeAggregate(w http.ResponseWriter, _ query, a answer) (int, error) {
	return writeAggregate(w, a.res.AggSource.String(), a.elapsed, a.res.Agg)
}

// ExploreRequest asks for minimal/maximal interval pairs with at least K
// events (§3 exploration; Table 1 monotone cases use the same engine).
type ExploreRequest struct {
	// Event is stability, growth or shrinkage.
	Event string `json:"event"`
	// Semantics is union (minimal pairs) or intersection (maximal pairs).
	Semantics string `json:"semantics"`
	// Extend is old or new — which side of the pair grows.
	Extend string   `json:"extend"`
	K      int64    `json:"k"`
	Attrs  []string `json:"attrs"`
	// Kind is dist (default) or all.
	Kind string `json:"kind,omitempty"`
	// Result selects the measured quantity: edges (default) or nodes, or
	// one aggregate entity via NodeTuple / EdgeFrom+EdgeTo.
	Result    string   `json:"result,omitempty"`
	NodeTuple []string `json:"node_tuple,omitempty"`
	EdgeFrom  []string `json:"edge_from,omitempty"`
	EdgeTo    []string `json:"edge_to,omitempty"`
	// AsOf evaluates the exploration against the graph as of this
	// transaction; 0 is the live head.
	AsOf int `json:"as_of,omitempty"`
}

// ExplorePair is one reported interval pair.
type ExplorePair struct {
	Old    string `json:"old"`
	New    string `json:"new"`
	Result int64  `json:"result"`
}

// ExploreResponse lists the pairs found for threshold K together with the
// number of candidate evaluations the traversal performed.
type ExploreResponse struct {
	K           int64         `json:"k"`
	Pairs       []ExplorePair `json:"pairs"`
	Evaluations int           `json:"evaluations"`
	ElapsedMs   float64       `json:"elapsed_ms"`
}

func decodeExplore(req *ExploreRequest) (query, error) {
	// The wire API requires an explicit threshold (TGQL's K AUTO
	// initialization is a REPL convenience).
	if req.K < 1 {
		return query{}, fmt.Errorf("k must be >= 1, got %d", req.K)
	}
	return query{stmt: tgql.Statement{Node: &plan.Explore{
		Event:     req.Event,
		Attrs:     req.Attrs,
		Kind:      req.Kind,
		Semantics: req.Semantics,
		Extend:    req.Extend,
		Result:    req.Result,
		NodeTuple: req.NodeTuple,
		EdgeFrom:  req.EdgeFrom,
		EdgeTo:    req.EdgeTo,
		K:         req.K,
		AsOf:      plan.TxnRef{Txn: req.AsOf},
	}}}, nil
}

// explorePairs renders interval pairs in their wire form.
func explorePairs(pairs []explore.Pair) []ExplorePair {
	out := make([]ExplorePair, len(pairs))
	for i, p := range pairs {
		out[i] = ExplorePair{Old: p.Old.String(), New: p.New.String(), Result: p.Result}
	}
	return out
}

func encodeExplore(w http.ResponseWriter, _ query, a answer) (int, error) {
	return writeJSON(w, ExploreResponse{
		K:           a.res.K,
		Pairs:       explorePairs(a.res.Pairs),
		Evaluations: a.res.Evaluations,
		ElapsedMs:   elapsedMs(a.elapsed),
	})
}

// TGQLRequest runs one TGQL statement.
type TGQLRequest struct {
	Query string `json:"query"`
	// AsOf is shorthand for suffixing the statement with AS OF <txn>.
	AsOf int `json:"as_of,omitempty"`
}

// TGQLResponse carries the rendered result plus structured payloads when
// the statement produced them (an aggregate's text and graph are written by
// writeGraphJSON, byte for byte what this struct would encode to).
type TGQLResponse struct {
	Text  string          `json:"text"`
	Graph json.RawMessage `json:"graph,omitempty"`
	Pairs []ExplorePair   `json:"pairs,omitempty"`
	K     int64           `json:"k,omitempty"`
}

// decodeStatement lowers the statement both TGQL endpoints carry: parsed
// once, with the wire-level as_of shorthand appended as its AS OF clause, so
// both spellings share one grammar, one plan-cache keyspace and one error
// path (a statement that already carries AS OF plus the wire field is a
// duplicate-clause parse error).
func decodeStatement(text string, asOf int) (query, error) {
	if text == "" {
		return query{}, fmt.Errorf("query required")
	}
	if asOf > 0 {
		text = fmt.Sprintf("%s AS OF %d", text, asOf)
	}
	stmt, err := tgql.Lower(text)
	return query{stmt: stmt, text: text}, err
}

func encodeTGQL(w http.ResponseWriter, q query, a answer) (int, error) {
	res, err := q.stmt.Result(a.g, a.plan, a.res)
	if err != nil {
		return http.StatusBadRequest, err
	}
	if res.Agg != nil {
		// An aggregate statement sets no other payload: text, then graph.
		return writeGraphJSON(w, func(dst []byte) []byte {
			return append(res.Agg.AppendJSONText(append(dst, `{"text":`...)), `,"graph":`...)
		}, res.Agg)
	}
	resp := TGQLResponse{Text: res.String(), Pairs: explorePairs(res.Pairs)}
	if res.Pairs != nil {
		resp.K = res.K
	}
	return writeJSON(w, resp)
}

// ExplainRequest asks for the physical plan of one TGQL statement without
// executing it. A leading EXPLAIN keyword in the query is accepted; EXPLAIN
// ANALYZE, which executes, is a 400 here and answers on /v1/tgql.
type ExplainRequest struct {
	Query string `json:"query"`
	// AsOf is shorthand for suffixing the statement with AS OF <txn>.
	AsOf int `json:"as_of,omitempty"`
}

// ExplainResponse carries the rendered plan tree: the canonical logical
// query, the selected operators, and their cost/engine attributes.
type ExplainResponse struct {
	Plan string `json:"plan"`
}

// errExplainAnalyze is /v1/explain's answer to a statement it would have
// to execute.
var errExplainAnalyze = errors.New("EXPLAIN ANALYZE executes the statement; POST it to /v1/tgql")

func decodeExplain(req *ExplainRequest) (query, error) {
	q, err := decodeStatement(req.Query, req.AsOf)
	if err == nil {
		err = q.stmt.NoPlan
		if q.stmt.Analyze {
			err = errExplainAnalyze
		}
	}
	q.stmt.Explain = true
	return q, err
}

func encodeExplain(w http.ResponseWriter, _ query, a answer) (int, error) {
	return writeJSON(w, ExplainResponse{Plan: a.plan.Explain()})
}

// IngestNode and IngestEdge are the wire forms of one node and one
// interaction of an ingested snapshot: the series' own records, so a
// decoded request is the batch AppendAt takes.
type (
	IngestNode = stream.NodeRecord
	IngestEdge = stream.EdgeRecord
)

// IngestRequest appends one time point to a stream-mode server. Before,
// when set, names an existing time-point label the new point is inserted
// before in valid-time order — a retroactive (late-arriving) batch; the
// default is a tail append.
type IngestRequest struct {
	Label  string       `json:"label"`
	Before string       `json:"before,omitempty"`
	Nodes  []IngestNode `json:"nodes"`
	Edges  []IngestEdge `json:"edges"`
}

// IngestResponse reports the series length after the append, the serving
// generation the write is visible at, and the transaction sequence the
// write was assigned — the handle AS OF queries replay to. Visible >=
// Points means the point is already queryable; clients wanting a later
// batch can poll GET /readyz?gen=N.
type IngestResponse struct {
	Points  int `json:"points"`
	Visible int `json:"visible"`
	Txn     int `json:"txn"`
}

func (s *Server) handleIngest(ctx context.Context, w *statusWriter, r *http.Request) (int, error) {
	if s.series == nil {
		return http.StatusConflict, fmt.Errorf("server runs in static mode; ingestion is disabled")
	}
	if s.role() == RoleReplica {
		return http.StatusConflict, fmt.Errorf("shard replica: ingestion is driven by WAL replication; write to the primary")
	}
	clock := stageClock{last: time.Now()}
	var req IngestRequest
	status, err := s.decodeJSON(w, r, &req)
	w.stages.decode = clock.lap()
	if err != nil {
		return status, err
	}
	if req.Label == "" {
		return http.StatusBadRequest, fmt.Errorf("label required")
	}
	snap := stream.Snapshot{Nodes: req.Nodes, Edges: req.Edges}
	// AppendAt validates the batch and places it at the tail or before
	// req.Before — through the storage engine when there is one, so the WAL
	// append (and, under -fsync=always, the sync) precedes the
	// acknowledgement. A WAL failure is the server's fault, not the client's.
	if s.storage != nil {
		_, err = s.storage.AppendAt(req.Label, snap, req.Before)
	} else {
		_, err = s.series.AppendAt(req.Label, snap, req.Before)
	}
	w.stages.exec = clock.lap()
	if err != nil {
		if errors.Is(err, storage.ErrWAL) {
			return http.StatusInternalServerError, err
		}
		return http.StatusBadRequest, err
	}
	// Every ingest record creates exactly one time point, so the series
	// length doubles as the transaction sequence this write landed at.
	points := s.series.Len()
	// Fold the delta into the serving state inline so the acknowledgement
	// already carries the visible generation; the state stage times it.
	visible := 0
	st, err := s.current()
	w.stages.state = clock.lap()
	if err == nil {
		visible = st.Gen
	} else {
		s.log.Warn("ingest accepted but serving state not advanced", "err", err)
	}
	status, err = writeJSON(w, IngestResponse{Points: points, Visible: visible, Txn: points})
	w.stages.encode = clock.lap()
	return status, err
}
