package agg

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/metrics"
	"repro/internal/ops"
)

// KernelSelections counts which engine served each top-level Aggregate /
// AggregateParallel call: the flat-array dense kernel, the static-schema
// map kernel, or the general time-varying map kernel. The serving layer
// registers these under one metric family so the kernel mix of live
// traffic is observable; they are package-level because kernel selection
// happens deep inside the library where no registry is in scope.
var KernelSelections struct {
	Dense   metrics.Counter
	Static  metrics.Counter
	Varying metrics.Counter
}

// countKernel records the engine chosen for one aggregation call.
func countKernel(s *Schema) {
	switch {
	case s.denseEligible():
		KernelSelections.Dense.Inc()
	case s.allStatic:
		KernelSelections.Static.Inc()
	default:
		KernelSelections.Varying.Inc()
	}
}

// ctxChunk is the number of entity ids a shard worker processes between
// cancellation probes. Small enough that an expired deadline stops the
// scan within microseconds, large enough that the atomic load amortizes to
// nothing against per-entity work.
const ctxChunk = 8192

// AggregateParallelCtx is AggregateParallel with cooperative cancellation:
// shard workers check ctx between chunks of ctxChunk entity ids and abandon
// the scan once the deadline expires or the context is canceled, returning
// ctx.Err() instead of a result. A nil error guarantees the same graph
// AggregateParallel would produce.
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

// aggregateParallelInner is the shared engine behind AggregateParallel and
// AggregateParallelCtx. With a cancelable ctx the result may be partial —
// callers must discard it when ctx.Err() != nil.
func aggregateParallelInner(ctx context.Context, v *ops.View, s *Schema, kind Kind, workers int) *Graph {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || v.NumNodes()+v.NumEdges() < parallelMinEntities {
		countKernel(s)
		return aggregateSerialCtx(ctx, v, s, kind)
	}
	countKernel(s)
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
			aggregateRangeCtx(ctx, v, s, kind, part, nLo, nHi, eLo, eHi)
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
func aggregateSerialCtx(ctx context.Context, v *ops.View, s *Schema, kind Kind) *Graph {
	ag := &Graph{Schema: s, Kind: kind}
	aggregateRangeCtx(ctx, v, s, kind, ag, 0, s.g.NumNodes(), 0, s.g.NumEdges())
	if ctx.Err() != nil {
		return nil
	}
	return ag
}

// aggregateRangeCtx aggregates the entity id ranges into ag, probing ctx
// between chunks. On cancellation the partial accumulation is abandoned
// (ag may be incomplete; callers discard it).
func aggregateRangeCtx(ctx context.Context, v *ops.View, s *Schema, kind Kind, ag *Graph, nLo, nHi, eLo, eHi int) {
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
	if s.denseEligible() {
		sc := s.getScratch()
		if aggregateDense(v, s, kind, sc, nLo, nHi, eLo, eHi, canceled) {
			d := int64(s.domain)
			ag.Nodes = make(map[Tuple]int64, len(sc.nodeTouched))
			for _, c := range sc.nodeTouched {
				ag.Nodes[Tuple(c)] = sc.nodeW[c]
			}
			ag.Edges = make(map[EdgeKey]int64, len(sc.edgeTouched))
			for _, c := range sc.edgeTouched {
				code := int64(c)
				ag.Edges[EdgeKey{Tuple(code / d), Tuple(code % d)}] = sc.edgeW[c]
			}
		}
		s.putScratch(sc)
		return
	}
	if ag.Nodes == nil {
		ag.Nodes = make(map[Tuple]int64)
		ag.Edges = make(map[EdgeKey]int64)
	}
	kernel := func(nLo, nHi, eLo, eHi int) { aggregateVaryingRange(v, s, kind, nil, ag, nLo, nHi, eLo, eHi) }
	if s.allStatic {
		kernel = func(nLo, nHi, eLo, eHi int) { aggregateStaticRange(v, s, kind, ag, nLo, nHi, eLo, eHi) }
	}
	for lo := nLo; lo < nHi; lo += ctxChunk {
		if canceled() {
			return
		}
		kernel(lo, min(lo+ctxChunk, nHi), 0, 0)
	}
	for lo := eLo; lo < eHi; lo += ctxChunk {
		if canceled() {
			return
		}
		kernel(0, 0, lo, min(lo+ctxChunk, eHi))
	}
}

// aggregateDense accumulates the id ranges into the scratch with the dense
// kernel the schema takes — one tuple per node for a static schema, the
// time-major scan otherwise — and reports whether it ran to completion.
func aggregateDense(v *ops.View, s *Schema, kind Kind, sc *denseScratch, nLo, nHi, eLo, eHi int, canceled func() bool) bool {
	if !s.allStatic {
		return denseVarying(v, s, kind, sc, nLo, nHi, eLo, eHi, canceled)
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
