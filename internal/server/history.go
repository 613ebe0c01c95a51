package server

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/lru"
	"repro/internal/materialize"
	"repro/internal/plan"
)

// This file implements plan.HistoryResolver over the server's transaction
// log: AS OF queries reconstruct the graph as of a transaction — in durable
// and plain stream mode alike, the series resumes its nearest in-memory
// anchor at or below it and folds in the journal's records after that —
// and VALID DURING restrictions window a base state. Every
// reconstructed state is a plan.State with its own catalog and plan cache,
// so repeated audit queries against one position are as cheap as queries
// against the head, and all of it sits behind a byte-budgeted LRU:
// historical states are immutable (a transaction prefix never changes, even
// under retroactive ingest), so entries never need invalidation — only
// eviction under memory pressure.

// headTxn returns the current transaction watermark: the number of ingest
// records ever applied. Zero in static mode, which has no transaction log.
func (s *Server) headTxn() int {
	if s.series != nil {
		return s.series.Txn()
	}
	return 0
}

// histBytes estimates the resident footprint of one reconstructed state for
// the LRU budget: graph columns, the timeline, one varying schema's
// tuple-code rows (agg.Schema.Codes), which the state's scans build and
// keep, and the budgets of its plan and answer memo and of its catalog's
// result cache. A state holds no per-point stores.
func histBytes(st *plan.State) int64 {
	g := st.Graph
	attrs := int64(len(g.Attrs()))
	if attrs == 0 {
		attrs = 1
	}
	points := int64(g.Timeline().Len())
	if points == 0 {
		points = 1
	}
	return 4096 + st.Plans.MaxBytes() + st.Catalog.MaxBytes() +
		int64(g.NumNodes())*(16+8*attrs) + // labels, per-attr columns
		int64(g.NumEdges())*24 + // endpoints + time
		points*256 + // timeline
		points*int64(g.NumNodes())*8 // tuple-code rows
}

// histDo answers from the history LRU, reconstructing the state on a miss.
// Concurrent requests for the same key share one reconstruction via the
// cache's flight dedup. A reconstructed state's catalog result cache gets a
// 64th of the history budget, in one shard, and its plan and answer memo
// the same (plan.NewState); histBytes charges both.
func (s *Server) histDo(key string, build func() (*core.Graph, error)) (*plan.State, error) {
	st, _, err := s.hist.Do(key, histBytes, func() (*plan.State, error) {
		g, err := build()
		if err != nil {
			return nil, err
		}
		cfg := materialize.CatalogConfig{MaxBytes: s.hist.MaxBytes() / 64, Shards: 1}
		return plan.NewState(g, materialize.NewCatalogWith(g, cfg), 0), nil
	})
	return st, err
}

// StateAt implements plan.HistoryResolver: the serving state as of
// transaction txn. Txn 0 (and the current watermark) resolve to the live
// head state itself, so AS OF <head> costs nothing extra and is
// byte-identical to a plain query. Earlier positions are reconstructed and
// cached.
func (s *Server) StateAt(txn int) (*plan.State, error) {
	head := s.headTxn()
	if txn == 0 || txn == head {
		st, err := s.current()
		if err != nil {
			return nil, err
		}
		// Accept the live state only when it is exactly the asked-for
		// transaction (a concurrent ingest may have advanced past it).
		if txn == 0 || st.Gen == txn {
			return st, nil
		}
	}
	if s.series == nil {
		return nil, fmt.Errorf("static mode has no transaction log")
	}
	if txn < 1 || txn > head {
		return nil, fmt.Errorf("transaction %d is out of range [1, %d]", txn, head)
	}
	return s.histDo("txn="+strconv.Itoa(txn), func() (*core.Graph, error) {
		return s.series.ReplayTo(txn)
	})
}

// WindowAt implements plan.HistoryResolver: the state as of txn restricted
// to the valid-time window [from, to]. Windowed states are cached under
// their own keys so audit dashboards sweeping a fixed window across
// transactions (or windows across one transaction) stay warm.
func (s *Server) WindowAt(txn, from, to int) (*plan.State, error) {
	if txn == 0 {
		txn = s.headTxn()
	}
	key := "txn=" + strconv.Itoa(txn) + "|valid=" + strconv.Itoa(from) + "-" + strconv.Itoa(to)
	return s.histDo(key, func() (*core.Graph, error) {
		base, err := s.StateAt(txn)
		if err != nil {
			return nil, err
		}
		return core.Window(base.Graph, from, to)
	})
}

// newHistCache sizes the history LRU from the config (<= 0 selects 256 MiB).
func newHistCache(bytes int64) *lru.Cache[*plan.State] {
	if bytes <= 0 {
		bytes = 256 << 20
	}
	return lru.New[*plan.State](lru.Config{MaxBytes: bytes})
}
