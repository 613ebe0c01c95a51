package server

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/lru"
	"repro/internal/plan"
)

// This file implements plan.HistoryResolver over the server's transaction
// log: AS OF queries reconstruct the graph as of a WAL position (durable
// mode replays snapshot + partial WAL; plain stream mode replays the
// in-memory journal), VALID DURING restrictions window a base state. Every
// reconstructed state gets its own materialization catalog and plan cache
// so repeated audit queries against the same position are as cheap as
// queries against the head, and all of it sits behind a byte-budgeted LRU:
// historical states are immutable (a transaction prefix never changes, even
// under retroactive ingest), so entries never need invalidation — only
// eviction under memory pressure.

// headTxn returns the current transaction watermark: the number of ingest
// records ever applied. Zero in static mode, which has no transaction log.
func (s *Server) headTxn() int {
	if s.storage != nil {
		return s.storage.TxnSeq()
	}
	if s.series != nil {
		return s.series.Txn()
	}
	return 0
}

// histBytes estimates the resident footprint of one reconstructed state for
// the LRU budget: graph columns, the catalog's per-point schema arrays and
// one varying schema's tuple-code rows (agg.Schema.Codes), which the
// state's scans build and keep.
func histBytes(st plan.HistState) int64 {
	g := st.Graph
	if g == nil {
		return 4096
	}
	attrs := int64(len(g.Attrs()))
	if attrs == 0 {
		attrs = 1
	}
	points := int64(g.Timeline().Len())
	if points == 0 {
		points = 1
	}
	return 4096 +
		int64(g.NumNodes())*(16+8*attrs) + // labels, per-attr columns
		int64(g.NumEdges())*24 + // endpoints + time
		points*256 + // timeline + per-point store rows
		points*int64(g.NumNodes())*8 // tuple-code rows
}

// histDo answers from the history LRU, reconstructing (graph, catalog,
// plan cache) on a miss. Concurrent requests for the same key share one
// reconstruction via the cache's flight dedup.
func (s *Server) histDo(key string, build func() (*core.Graph, error)) (plan.HistState, error) {
	st, _, err := s.hist.Do(key, histBytes, func() (plan.HistState, error) {
		g, err := build()
		if err != nil {
			return plan.HistState{}, err
		}
		return plan.HistState{Graph: g, Catalog: s.newCatalog(g), Plans: plan.NewCache(0)}, nil
	})
	return st, err
}

// replayTo reconstructs the graph as of transaction txn. Durable mode uses
// the engine's bounded replay (snapshot resume + partial WAL when the
// covered prefix allows it); plain stream mode replays the series journal.
func (s *Server) replayTo(txn int) (*core.Graph, error) {
	if s.storage != nil {
		g, _, err := s.storage.ReplayTo(txn)
		return g, err
	}
	return s.series.ReplayTo(txn)
}

// StateAt implements plan.HistoryResolver: the serving state as of
// transaction txn. Txn 0 (and the current watermark) resolve to the live
// head — same graph, catalog and plan cache the latest-state path serves,
// so AS OF <head> costs nothing extra and is byte-identical to a plain
// query. Earlier positions are reconstructed and cached.
func (s *Server) StateAt(txn int) (plan.HistState, error) {
	head := s.headTxn()
	if txn == 0 || txn == head {
		st, err := s.current()
		if err != nil {
			return plan.HistState{}, err
		}
		// Accept the live state only when it is exactly the asked-for
		// transaction (a concurrent ingest may have advanced past it).
		if txn == 0 || st.gen == txn {
			return plan.HistState{Graph: st.g, Catalog: st.cat, Plans: s.plans}, nil
		}
	}
	if s.series == nil {
		return plan.HistState{}, fmt.Errorf("static mode has no transaction log")
	}
	if txn < 1 || txn > head {
		return plan.HistState{}, fmt.Errorf("transaction %d is out of range [1, %d]", txn, head)
	}
	return s.histDo("txn="+strconv.Itoa(txn), func() (*core.Graph, error) {
		return s.replayTo(txn)
	})
}

// WindowAt implements plan.HistoryResolver: the state as of txn restricted
// to the valid-time window [from, to]. Windowed states are cached under
// their own keys so audit dashboards sweeping a fixed window across
// transactions (or windows across one transaction) stay warm.
func (s *Server) WindowAt(txn, from, to int) (plan.HistState, error) {
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
func newHistCache(bytes int64) *lru.Cache[plan.HistState] {
	if bytes <= 0 {
		bytes = 256 << 20
	}
	return lru.New[plan.HistState](lru.Config{MaxBytes: bytes})
}
