package agg

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/ops"
)

// ctxChunk is the number of entity ids a shard worker processes between
// cancellation probes. Small enough that an expired deadline stops the
// scan within microseconds, large enough that the atomic load amortizes to
// nothing against per-entity work.
const ctxChunk = 8192

// AggregateParallelCtx computes the same result as Aggregate using several
// goroutines. The view's node and edge id spaces are split into contiguous
// shards, each worker aggregates its shards into a private partial graph,
// and the partials are merged. Sharding by entity is correct for both
// kinds: ALL weights are pure sums, and DIST deduplication is per entity,
// so no entity's appearances are split across workers.
//
// workers ≤ 0 selects GOMAXPROCS. With one worker — or when the view
// selects fewer than ParallelMinEntities entities, where goroutine spawn
// and merge overhead dominate — it runs the serial engine. Workers check
// ctx between chunks of ctxChunk entity ids and abandon the scan once the
// deadline expires or the context is canceled, returning ctx.Err() instead
// of a result; a nil error guarantees the complete graph.
func AggregateParallelCtx(ctx context.Context, v *ops.View, s *Schema, kind Kind, workers int) (*Graph, error) {
	if v.Graph() != s.g {
		panic("agg: view and schema built on different graphs")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := aggregateParallelInner(ctx, v, s, kind, workers)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// aggregateParallelInner is AggregateParallelCtx's engine. With a
// cancelable ctx the result may be partial — callers must discard it when
// ctx.Err() != nil.
func aggregateParallelInner(ctx context.Context, v *ops.View, s *Schema, kind Kind, workers int) *Graph {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || v.NumNodes()+v.NumEdges() < parallelMinEntities {
		return aggregateSerialCtx(ctx, v, s, kind, nil)
	}
	g := s.g
	parts := make([]*Graph, workers)
	var wg sync.WaitGroup
	// Shards are id ranges cut at word boundaries of the selection bitsets,
	// so no two workers read the same word.
	nodeShard := ((g.NumNodes()+workers-1)/workers + 63) &^ 63
	edgeShard := ((g.NumEdges()+workers-1)/workers + 63) &^ 63
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			part := &Graph{Schema: s, Kind: kind}
			parts[w] = part
			nLo, nHi := min(w*nodeShard, g.NumNodes()), min((w+1)*nodeShard, g.NumNodes())
			eLo, eHi := min(w*edgeShard, g.NumEdges()), min((w+1)*edgeShard, g.NumEdges())
			aggregateRangeCtx(ctx, v, s, kind, nil, part, nLo, nHi, eLo, eHi)
		}(w)
	}
	wg.Wait()
	if ctx.Err() != nil {
		return nil
	}
	var nNodes, nEdges int
	for _, part := range parts {
		nNodes += len(part.Nodes)
		nEdges += len(part.Edges)
	}
	out := &Graph{
		Schema: s,
		Kind:   kind,
		Nodes:  make(map[Tuple]int64, nNodes),
		Edges:  make(map[EdgeKey]int64, nEdges),
	}
	for _, part := range parts {
		out.Merge(part)
	}
	return out
}

// aggregateSerialCtx is the single-worker engine with the same chunked
// cancellation probes as the shard workers.
func aggregateSerialCtx(ctx context.Context, v *ops.View, s *Schema, kind Kind, filter Filter) *Graph {
	ag := &Graph{Schema: s, Kind: kind}
	aggregateRangeCtx(ctx, v, s, kind, filter, ag, 0, s.g.NumNodes(), 0, s.g.NumEdges())
	if ctx.Err() != nil {
		return nil
	}
	return ag
}

// aggregateRangeCtx aggregates the entity id ranges into ag, probing ctx
// between chunks. On cancellation the partial accumulation is abandoned
// (ag may be incomplete; callers discard it).
func aggregateRangeCtx(ctx context.Context, v *ops.View, s *Schema, kind Kind, filter Filter, ag *Graph, nLo, nHi, eLo, eHi int) {
	done := ctx.Done()
	canceled := func() bool {
		if done == nil {
			return false
		}
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	sc := s.getScratch()
	defer s.putScratch(sc)
	if !aggregateDense(v, s, kind, filter, sc, nLo, nHi, eLo, eHi, canceled) {
		return
	}
	ag.Nodes = make(map[Tuple]int64, sc.nodes.Len())
	for i := range sc.nodes.Len() {
		c, w := sc.nodes.Entry(i)
		ag.Nodes[Tuple(c)] = w
	}
	d := s.domain
	ag.Edges = make(map[EdgeKey]int64, sc.edges.Len())
	for i := range sc.edges.Len() {
		c, w := sc.edges.Entry(i)
		ag.Edges[EdgeKey{Tuple(c / d), Tuple(c % d)}] = w
	}
}

// aggregateDense accumulates the id ranges into the scratch with the kernel
// the call takes — one tuple per node for an unfiltered static schema, the
// time-major scan otherwise — and reports whether it ran to completion.
func aggregateDense(v *ops.View, s *Schema, kind Kind, filter Filter, sc *denseScratch, nLo, nHi, eLo, eHi int, canceled func() bool) bool {
	if !s.allStatic || filter != nil {
		return denseVarying(v, s, kind, filter, sc, nLo, nHi, eLo, eHi, canceled)
	}
	for lo := nLo; lo < nHi; lo += ctxChunk {
		if canceled() {
			return false
		}
		denseStatic(v, s, kind, sc, lo, min(lo+ctxChunk, nHi), 0, 0)
	}
	for lo := eLo; lo < eHi; lo += ctxChunk {
		if canceled() {
			return false
		}
		denseStatic(v, s, kind, sc, 0, 0, lo, min(lo+ctxChunk, eHi))
	}
	return true
}
