package server

import (
	"net/http"

	"repro/internal/analytics"
	"repro/internal/plan"
	"repro/internal/tgql"
)

// This file holds the wire forms of the evolution-analytics statement
// family (EVENTS, PATHS, TREND) over dedicated JSON endpoints. The
// statements traverse the whole timeline by construction, so a daemon
// serving one time-range shard of a cluster rejects them (serve's
// wholeTimeline guard); the router answers them from its mirror instead.

// EventsRequest asks for evolution-event classification of every attribute
// group between consecutive width-w windows (POST /v1/events).
type EventsRequest struct {
	Attrs []string `json:"attrs"`
	// Kind is dist (default) or all.
	Kind string `json:"kind,omitempty"`
	// Width is the tiling window width in time points; 0 selects 1.
	Width int `json:"width,omitempty"`
	// Min drops rows whose change magnitude (Gr+Shr) is below it.
	Min int64 `json:"min,omitempty"`
	// AsOf evaluates against the graph as of this transaction; 0 is head.
	AsOf int `json:"as_of,omitempty"`
}

// EventsResponse carries the classified rows.
type EventsResponse struct {
	ElapsedMs float64                 `json:"elapsed_ms"`
	Events    *analytics.EventsResult `json:"events"`
}

func decodeEvents(req *EventsRequest) (query, error) {
	return query{stmt: tgql.Statement{Node: &plan.Events{
		Kind:  req.Kind,
		Attrs: req.Attrs,
		Width: req.Width,
		Min:   req.Min,
		AsOf:  plan.TxnRef{Txn: req.AsOf},
	}}}, nil
}

func encodeEvents(w http.ResponseWriter, _ query, a answer) (int, error) {
	return writeJSON(w, EventsResponse{ElapsedMs: elapsedMs(a.elapsed), Events: a.res.Events})
}

// PathsRequest asks for time-respecting reachability (POST /v1/paths).
type PathsRequest struct {
	// Mode is earliest (default) or fastest.
	Mode string   `json:"mode,omitempty"`
	From []string `json:"from"`
	To   []string `json:"to"`
	// During restricts departures and traversal to a contiguous window;
	// absent means the whole timeline.
	During IntervalSpec `json:"during,omitempty"`
	AsOf   int          `json:"as_of,omitempty"`
}

// PathsResponse carries per-target arrivals.
type PathsResponse struct {
	ElapsedMs float64                `json:"elapsed_ms"`
	Paths     *analytics.PathsResult `json:"paths"`
}

func decodePaths(req *PathsRequest) (query, error) {
	return query{stmt: tgql.Statement{Node: &plan.Paths{
		Mode:   req.Mode,
		From:   req.From,
		To:     req.To,
		During: req.During.ref(),
		AsOf:   plan.TxnRef{Txn: req.AsOf},
	}}}, nil
}

func encodePaths(w http.ResponseWriter, _ query, a answer) (int, error) {
	return writeJSON(w, PathsResponse{ElapsedMs: elapsedMs(a.elapsed), Paths: a.res.Paths})
}

// TrendRequest asks for per-group sliding-window appearance series
// (POST /v1/trend).
type TrendRequest struct {
	Attrs []string `json:"attrs"`
	// Kind is dist (default) or all.
	Kind string `json:"kind,omitempty"`
	// Width is the sliding window width in time points; 0 selects 1.
	Width int `json:"width,omitempty"`
	AsOf  int `json:"as_of,omitempty"`
}

// TrendResponse carries the per-group series.
type TrendResponse struct {
	ElapsedMs float64                `json:"elapsed_ms"`
	Trend     *analytics.TrendResult `json:"trend"`
}

func decodeTrend(req *TrendRequest) (query, error) {
	return query{stmt: tgql.Statement{Node: &plan.Trend{
		Kind:  req.Kind,
		Attrs: req.Attrs,
		Width: req.Width,
		AsOf:  plan.TxnRef{Txn: req.AsOf},
	}}}, nil
}

func encodeTrend(w http.ResponseWriter, _ query, a answer) (int, error) {
	return writeJSON(w, TrendResponse{ElapsedMs: elapsedMs(a.elapsed), Trend: a.res.Trend})
}
