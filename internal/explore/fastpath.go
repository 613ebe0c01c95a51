package explore

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/evolution"
	"repro/internal/ops"
	"repro/internal/timeline"
)

// This file implements the exploration fast path: incremental interval
// views plus parallel candidate evaluation.
//
// The seed traversals rebuild every candidate pair from scratch — a
// selector-driven entity scan (StabilityView/DifferenceView is O(|V|+|E|)
// with a per-entity interval test) followed by a fresh aggregation. But the
// candidates of one reference point form a chain where each step extends
// the moving side by exactly one time point, so the entity selection of
// step extra+1 is a single word-level OrWith/AndWith away from step extra.
// The fast path keeps one ops.IncrementalView per side of each reference
// point and advances them with ExtendUnion/ExtendIntersect, combining the
// two sides through a reusable ops.PairView.
//
// To parallelize without changing observable behaviour, the traversal is
// run depth-synchronously: at depth d every still-active reference point
// evaluates its extra=d candidate (the tasks are independent — each touches
// only its own reference point's views), then the prune rules of §3.2/§3.3
// are applied serially in reference-point order. Which candidates exist at
// depth d depends only on depth<d outcomes, so the set of evaluated
// candidates — and with it Evaluations — is identical to the serial seed
// traversal, and emitting at most one pair per reference point in
// reference-point order reproduces the exact output ordering.
//
// Equivalence with the selector path (proved value-for-value by the
// property tests in ops/incremental_test.go): a union-extended side
// accumulates {x : τ(x) ∩ T ≠ ∅} = Exists(T); an intersection-extended
// side accumulates {x : T ⊆ τ(x)} = ForAll(T); a fixed single-point side is
// the same under both, matching sel().
//
// A measure that weighs edges combines edges alone (ops.NewEdgePairView):
// no node side, no Definition 2.5 rescue. On an all-static schema the
// combined view is not aggregated either: the mask evaluator (measure.go)
// counts it.

// refState is the traversal state of one reference point i: the two sides
// of its current candidate (Told anchored at i, Tnew anchored at i+1; the
// side selected by Extend moves outward one point per depth), the extension
// reached so far and the evaluation target for the current depth. A
// refState is only ever touched by one worker per depth.
type refState struct {
	i      int
	oldIV  *ops.IncrementalView
	newIV  *ops.IncrementalView
	active bool

	extra  int // extension currently applied to the moving side
	target int // extension to reach before evaluating
	r      int64

	best  *Pair      // iExplore: last candidate that stayed ≥ k
	cands []fastCand // Naive: every evaluated candidate
}

type fastCand struct {
	extra int
	r     int64
}

// fastRun holds one traversal's shared context: one PairView per worker, the
// per-reference-point states, all reading the graph's point index, and the
// mask evaluator (nil on a schema with a time-varying attribute).
type fastRun struct {
	ex      *Explorer
	event   Event
	sem     Semantics
	ext     Extend
	workers int
	masks   *masks
	pvs     []*ops.PairView
	refs    []*refState
}

func (ex *Explorer) newFastRun(event Event, sem Semantics, ext Extend) *fastRun {
	g := ex.Graph
	workers := ex.Workers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 0 {
		workers = 1
	}
	fr := &fastRun{ex: ex, event: event, sem: sem, ext: ext, workers: workers, masks: ex.masks()}
	newPairView := ops.NewPairView
	if !ex.Result.nodes {
		newPairView = ops.NewEdgePairView
	}
	fr.pvs = make([]*ops.PairView, workers)
	for w := range fr.pvs {
		fr.pvs[w] = newPairView(g)
	}
	n := g.Timeline().Len()
	if n < 2 {
		return fr
	}
	fr.refs = make([]*refState, n-1)
	for i := range fr.refs {
		fr.refs[i] = &refState{
			i:      i,
			oldIV:  ops.NewIncrementalView(g, timeline.Time(i)),
			newIV:  ops.NewIncrementalView(g, timeline.Time(i+1)),
			active: true,
		}
	}
	return fr
}

// maxExtra is the largest valid extension of reference point i within the
// timeline (mirrors the bounds checks of pairAt).
func (fr *fastRun) maxExtra(i int) int {
	if fr.ext == ExtendNew {
		return fr.ex.Graph.Timeline().Len() - 2 - i
	}
	return i
}

// process advances one reference point to its target extension and
// evaluates the resulting candidate into rs.r, reporting whether it had to
// compute (false on a memo hit). A hit leaves the incremental views where
// they are — the catch-up loop advances them lazily on the next computed
// candidate. Safe to call concurrently for distinct reference points as
// long as each worker owns its PairView: the masks are read-only,
// agg.Aggregate draws scratch from the schema's internal pool, and the memo
// cache is itself concurrency-safe.
func (fr *fastRun) process(rs *refState, pv *ops.PairView) bool {
	var oldSel, newSel ops.Sel
	if fr.ex.Memo != nil {
		oldIv, newIv, _ := fr.ex.pairAt(rs.i, fr.ext, rs.target)
		oldSel, newSel = sel(oldIv, fr.sem), sel(newIv, fr.sem)
		if r, ok := fr.ex.Memo.lookup(fr.event, oldSel, newSel); ok {
			rs.r = r
			return false
		}
	}
	for rs.extra < rs.target {
		rs.extra++
		var iv *ops.IncrementalView
		var t timeline.Time
		if fr.ext == ExtendNew {
			iv, t = rs.newIV, timeline.Time(rs.i+1+rs.extra)
		} else {
			iv, t = rs.oldIV, timeline.Time(rs.i-rs.extra)
		}
		if fr.sem == IntersectionSemantics {
			iv.ExtendIntersect(t)
		} else {
			iv.ExtendUnion(t)
		}
	}
	var v *ops.View
	switch fr.event {
	case evolution.Stability:
		v = pv.Stability(rs.oldIV, rs.newIV)
	case evolution.Growth:
		v = pv.Difference(rs.newIV, rs.oldIV)
	case evolution.Shrinkage:
		v = pv.Difference(rs.oldIV, rs.newIV)
	default:
		panic("explore: unknown event")
	}
	rs.r = fr.ex.measure(fr.masks, v)
	if fr.ex.Memo != nil {
		fr.ex.Memo.store(fr.event, oldSel, newSel, rs.r)
	}
	return true
}

// run evaluates the given candidates, fanning out to the bounded worker
// pool when it pays off, and charges the computed ones (memo hits are
// free) to Evaluations. Tasks are handed out through an atomic cursor;
// each worker reuses its own PairView.
func (fr *fastRun) run(tasks []*refState) {
	w := fr.workers
	if w > len(tasks) {
		w = len(tasks)
	}
	if w <= 1 {
		pv := fr.pvs[0]
		for _, rs := range tasks {
			if fr.ex.canceled() {
				return
			}
			if fr.process(rs, pv) {
				fr.ex.Evaluations++
				TotalEvaluations.Inc()
			}
		}
		return
	}
	var next, computed int64
	var wg sync.WaitGroup
	for wi := 0; wi < w; wi++ {
		wg.Add(1)
		go func(pv *ops.PairView) {
			defer wg.Done()
			for {
				if fr.ex.canceled() {
					return
				}
				t := int(atomic.AddInt64(&next, 1)) - 1
				if t >= len(tasks) {
					return
				}
				if fr.process(tasks[t], pv) {
					atomic.AddInt64(&computed, 1)
				}
			}
		}(fr.pvs[wi])
	}
	wg.Wait()
	fr.ex.Evaluations += int(computed)
	TotalEvaluations.Add(computed)
}

// collect assembles the output in reference-point order — every traversal
// emits at most one pair per reference point, so this reproduces the seed
// traversals' append order exactly.
func (fr *fastRun) collect(results []*Pair) []Pair {
	var out []Pair
	for _, p := range results {
		if p != nil {
			out = append(out, *p)
		}
	}
	return out
}

// atDepth gathers the active reference points that have a valid candidate
// at extension depth, deactivating those that ran off the timeline, and
// sets their evaluation target.
func (fr *fastRun) atDepth(depth int) []*refState {
	var tasks []*refState
	for _, rs := range fr.refs {
		if !rs.active {
			continue
		}
		if depth > fr.maxExtra(rs.i) {
			rs.active = false
			continue
		}
		rs.target = depth
		tasks = append(tasks, rs)
	}
	return tasks
}

// pair materializes the candidate intervals of rs at its current target via
// the same constructor the seed path uses.
func (fr *fastRun) pair(rs *refState) *Pair {
	old, new, _ := fr.ex.pairAt(rs.i, fr.ext, rs.target)
	return &Pair{Old: old, New: new, Result: rs.r}
}

// uExplore is the fast-path U-Explore: depth-synchronous minimal-pair
// search, pruning a reference point as soon as its result reaches k.
func (fr *fastRun) uExplore(k int64) []Pair {
	results := make([]*Pair, len(fr.refs))
	for depth := 0; ; depth++ {
		tasks := fr.atDepth(depth)
		if len(tasks) == 0 {
			break
		}
		fr.run(tasks)
		if fr.ex.canceled() {
			return nil
		}
		for _, rs := range tasks {
			if rs.r >= k {
				results[rs.i] = fr.pair(rs)
				rs.active = false
			}
		}
	}
	return fr.collect(results)
}

// iExplore is the fast-path I-Explore: keep extending while the result
// stays ≥ k; the last surviving extension per reference point is maximal.
func (fr *fastRun) iExplore(k int64) []Pair {
	results := make([]*Pair, len(fr.refs))
	for depth := 0; ; depth++ {
		tasks := fr.atDepth(depth)
		if len(tasks) == 0 {
			break
		}
		fr.run(tasks)
		if fr.ex.canceled() {
			return nil
		}
		for _, rs := range tasks {
			if rs.r < k {
				rs.active = false
				continue
			}
			results[rs.i] = fr.pair(rs)
		}
	}
	return fr.collect(results)
}

// checkBase evaluates only the consecutive-point pairs (depth 0), all of
// them independent and evaluated in one parallel wave.
func (fr *fastRun) checkBase(k int64) []Pair {
	results := make([]*Pair, len(fr.refs))
	tasks := fr.atDepth(0)
	fr.run(tasks)
	if fr.ex.canceled() {
		return nil
	}
	for _, rs := range tasks {
		if rs.r >= k {
			results[rs.i] = fr.pair(rs)
		}
	}
	return fr.collect(results)
}

// checkLongest evaluates one fully-extended candidate per reference point;
// each task fast-forwards its moving side to the timeline boundary (a chain
// of word-level extends) before its single evaluation.
func (fr *fastRun) checkLongest(k int64) []Pair {
	results := make([]*Pair, len(fr.refs))
	var tasks []*refState
	for _, rs := range fr.refs {
		rs.target = fr.maxExtra(rs.i)
		tasks = append(tasks, rs)
	}
	fr.run(tasks)
	if fr.ex.canceled() {
		return nil
	}
	for _, rs := range tasks {
		if rs.r >= k {
			results[rs.i] = fr.pair(rs)
		}
	}
	return fr.collect(results)
}

// naive exhaustively evaluates every extension of every reference point,
// then selects minimal/maximal pairs from the recorded results — the same
// candidates, count and output as the seed Naive.
func (fr *fastRun) naive(sem Semantics, k int64) []Pair {
	results := make([]*Pair, len(fr.refs))
	for depth := 0; ; depth++ {
		tasks := fr.atDepth(depth)
		if len(tasks) == 0 {
			break
		}
		fr.run(tasks)
		for _, rs := range tasks {
			rs.cands = append(rs.cands, fastCand{extra: depth, r: rs.r})
		}
	}
	for _, rs := range fr.refs {
		var hit *fastCand
		if sem == UnionSemantics {
			for c := range rs.cands { // minimal: shortest qualifying extension
				if rs.cands[c].r >= k {
					hit = &rs.cands[c]
					break
				}
			}
		} else {
			for c := len(rs.cands) - 1; c >= 0; c-- { // maximal: longest
				if rs.cands[c].r >= k {
					hit = &rs.cands[c]
					break
				}
			}
		}
		if hit != nil {
			rs.target = hit.extra
			rs.r = hit.r
			results[rs.i] = fr.pair(rs)
		}
	}
	return fr.collect(results)
}
