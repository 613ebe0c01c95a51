// Package explore implements GraphTempo's evolution exploration (§3): given
// a threshold k, find the minimal (union semantics) or maximal
// (intersection semantics) interval pairs between which at least k events
// of stability, growth or shrinkage occur.
//
// A candidate pair always keeps one end fixed at a base time point (the
// reference point) and extends the other end through the union or
// intersection semi-lattice (§3.1). The twelve combinations of
// event × semantics × extension side are the rows of the paper's Table 1;
// each maps to one of four traversals:
//
//   - uExplore: monotonically increasing — grow the extension until the
//     result reaches k, emit that minimal pair, prune the reference point
//     (the paper's U-Explore).
//   - iExplore: monotonically decreasing — grow the extension while the
//     result stays ≥ k, emit the largest surviving pair (the paper's
//     I-Explore with its candidate-set bookkeeping collapsed).
//   - checkBase: monotonically decreasing in the extension — extension
//     cannot help, so only the base (consecutive-point) pairs are checked
//     (§3.3: growth with union semantics extending Told, and the
//     symmetric shrinkage case).
//   - checkLongest: monotonically increasing in the extension — the
//     longest possible extension alone decides (§3.3: growth with
//     intersection semantics extending Told, and the symmetric shrinkage
//     case).
//
// Monotonicity (Lemmas 3.3, 3.9, 3.10) — and hence the exactness of the
// pruned traversals versus exhaustive search — is guaranteed for static
// aggregation attributes; for intersection semantics on stability the
// Distinct kind is additionally required, because ALL counts appearances
// over the combined interval T1 ∪ T2, which keeps growing as the entity
// set shrinks. These are exactly the settings of the paper's §5.2
// experiments (gender aggregation, distinct edge counts).
package explore

import (
	"context"
	"fmt"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/evolution"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/timeline"
)

// TotalEvaluations counts candidate-pair evaluations across every Explorer
// in the process (memo hits excluded, matching the Evaluations field). The
// serving layer registers it so exploration cost is visible per scrape
// without touching the per-run counters.
var TotalEvaluations metrics.Counter

// Event aliases the evolution event classes: stability, growth, shrinkage.
type Event = evolution.Class

// Semantics selects how the extended interval is interpreted (§3.1).
type Semantics int

const (
	// UnionSemantics: the extended interval contains entities existing at
	// any of its points; minimal interval pairs are sought (Def. 3.4).
	UnionSemantics Semantics = iota
	// IntersectionSemantics: the extended interval contains entities
	// existing at all of its points; maximal interval pairs are sought
	// (Def. 3.5).
	IntersectionSemantics
)

// String returns "∪" or "∩".
func (s Semantics) String() string {
	if s == UnionSemantics {
		return "∪"
	}
	return "∩"
}

// Extend selects which side of the pair is extended; the other side is the
// fixed reference point.
type Extend int

const (
	// ExtendOld grows Told leftward (Tnew is the reference point).
	ExtendOld Extend = iota
	// ExtendNew grows Tnew rightward (Told is the reference point).
	ExtendNew
)

// String returns "old" or "new".
func (e Extend) String() string {
	if e == ExtendOld {
		return "old"
	}
	return "new"
}

// Pair is one reported interval pair with the measured result.
type Pair struct {
	Old, New timeline.Interval
	Result   int64
}

// String renders a pair like "[2001,2009] → 2010 (1200 events)".
func (p Pair) String() string {
	return fmt.Sprintf("%s → %s (%d events)", p.Old, p.New, p.Result)
}

// Explorer runs exploration over one base graph with a fixed aggregation
// schema, count kind and measure.
type Explorer struct {
	Graph  *core.Graph
	Schema *agg.Schema
	Kind   agg.Kind
	Result Measure

	// Evaluations counts candidate-pair evaluations performed by the
	// most recent Explore or Naive call; it is the cost metric of the
	// pruning ablation. The fast path evaluates exactly the candidates
	// the seed traversal would, so the count is engine-independent.
	Evaluations int

	// NoFastPath forces the seed evaluation engine (selector views plus a
	// fresh aggregation per candidate) instead of the incremental-view fast
	// path and the mask evaluator of an all-static schema — for
	// Explore/Naive, InitK and TopEdgeTuples. Used by ablations and
	// equivalence tests.
	NoFastPath bool

	// memo, set only for the duration of TuneK, caches candidate
	// evaluations across its runs (the §3.5 tuning loop re-evaluates
	// mostly the same candidates at every threshold). Memo hits are not
	// charged to Evaluations.
	memo *evalMemo

	// ctx is the cancellation context of the current ExploreCtx run (nil
	// outside one). Traversal loops poll it between candidate evaluations
	// so deadline-expired requests stop burning CPU.
	ctx context.Context
}

// canceled reports whether the current run's context has expired.
func (ex *Explorer) canceled() bool {
	return ex.ctx != nil && ex.ctx.Err() != nil
}

// ExploreCtx is Explore with cooperative cancellation: the traversal polls
// ctx between candidate evaluations and abandons the run once the deadline
// expires, returning ctx.Err() instead of a pair set. A nil error
// guarantees the same pairs Explore would report.
func (ex *Explorer) ExploreCtx(ctx context.Context, event Event, sem Semantics, ext Extend, k int64) ([]Pair, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ex.ctx = ctx
	defer func() { ex.ctx = nil }()
	pairs := ex.Explore(event, sem, ext, k)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return pairs, nil
}

// eval computes result(G) for the aggregate graph of the event between the
// two selectors, consulting the memo (when set) first. m is the run's mask
// evaluator (Explorer.masks); nil takes the seed path.
func (ex *Explorer) eval(m *masks, event Event, old, new ops.Sel) int64 {
	if ex.memo != nil {
		if r, ok := ex.memo.lookup(event, old, new); ok {
			return r
		}
	}
	ex.Evaluations++
	TotalEvaluations.Inc()
	var v *ops.View
	switch event {
	case evolution.Stability:
		v = ops.StabilityView(ex.Graph, old, new)
	case evolution.Growth:
		v = ops.DifferenceView(ex.Graph, new, old)
	case evolution.Shrinkage:
		v = ops.DifferenceView(ex.Graph, old, new)
	default:
		panic("explore: unknown event")
	}
	r := ex.measure(m, v)
	if ex.memo != nil {
		ex.memo.store(event, old, new, r)
	}
	return r
}

// sel wraps an interval with the side's semantics: a union-extended side
// uses Exists, an intersection-extended side uses ForAll. A single point is
// the same under both.
func sel(iv timeline.Interval, sem Semantics) ops.Sel {
	if sem == IntersectionSemantics {
		return ops.ForAll(iv)
	}
	return ops.Exists(iv)
}

// Explore finds the minimal (union semantics) or maximal (intersection
// semantics) interval pairs with at least k events, using the pruned
// traversal of Table 1 for the given event and extension side.
func (ex *Explorer) Explore(event Event, sem Semantics, ext Extend, k int64) []Pair {
	ex.Evaluations = 0
	at := ex.candidates(event, sem, ext)
	switch traversalFor(event, sem, ext) {
	case travU:
		return ex.uExplore(at, ext, k)
	case travI:
		return ex.iExplore(at, ext, k)
	case travBase:
		return ex.checkBase(at, ext, k)
	default:
		return ex.checkLongest(at, ext, k)
	}
}

// candidateFunc returns result(G) for reference point i's candidate at
// extension extra, whose intervals (pairAt) are old and new. The
// traversals visit reference points in order and each point's extensions
// in increasing order.
type candidateFunc func(i, extra int, old, new timeline.Interval) int64

// candidates returns the run's candidate evaluator: the fast path's
// incremental views (fastpath.go), or under NoFastPath the seed engine,
// which rebuilds every candidate from its selectors.
func (ex *Explorer) candidates(event Event, sem Semantics, ext Extend) candidateFunc {
	if !ex.NoFastPath {
		return ex.newFastRun(event, sem, ext).eval
	}
	return func(_, _ int, old, new timeline.Interval) int64 {
		return ex.eval(nil, event, sel(old, sem), sel(new, sem))
	}
}

type traversal int

const (
	travU traversal = iota
	travI
	travBase
	travLongest
)

// TraversalName names the Table 1 traversal serving the given
// event × semantics × extension combination, for plan explanation:
// "U-Explore", "I-Explore", "check-base" or "check-longest".
func TraversalName(event Event, sem Semantics, ext Extend) string {
	switch traversalFor(event, sem, ext) {
	case travU:
		return "U-Explore"
	case travI:
		return "I-Explore"
	case travBase:
		return "check-base"
	default:
		return "check-longest"
	}
}

// traversalFor encodes Table 1.
func traversalFor(event Event, sem Semantics, ext Extend) traversal {
	switch event {
	case evolution.Stability:
		// Stability is symmetric: union semantics is monotonically
		// increasing (U-Explore), intersection decreasing (I-Explore),
		// whichever side is extended.
		if sem == UnionSemantics {
			return travU
		}
		return travI
	case evolution.Growth:
		// Growth studies Tnew − Told (Lemmas 3.9, 3.10).
		if sem == UnionSemantics {
			if ext == ExtendNew {
				return travU // Tnew(∪) − Told: increasing
			}
			return travBase // Tnew − Told(∪): decreasing
		}
		if ext == ExtendOld {
			return travLongest // Tnew − Told(∩): increasing
		}
		return travI // Tnew(∩) − Told: decreasing
	default: // Shrinkage studies Told − Tnew, mirroring growth.
		if sem == UnionSemantics {
			if ext == ExtendOld {
				return travU // Told(∪) − Tnew: increasing
			}
			return travBase // Told − Tnew(∪): decreasing
		}
		if ext == ExtendNew {
			return travLongest // Told − Tnew(∩): increasing
		}
		return travI // Told(∩) − Tnew: decreasing
	}
}

// pairAt builds the (old, new) intervals of the candidate anchored at base
// pair (T_i, T_{i+1}) with the extended side grown by steps extra points.
func (ex *Explorer) pairAt(i int, ext Extend, extra int) (timeline.Interval, timeline.Interval, bool) {
	tl := ex.Graph.Timeline()
	if ext == ExtendNew {
		to := i + 1 + extra
		if to >= tl.Len() {
			return timeline.Interval{}, timeline.Interval{}, false
		}
		return tl.Point(timeline.Time(i)), tl.Range(timeline.Time(i+1), timeline.Time(to)), true
	}
	from := i - extra
	if from < 0 {
		return timeline.Interval{}, timeline.Interval{}, false
	}
	return tl.Range(timeline.Time(from), timeline.Time(i)), tl.Point(timeline.Time(i + 1)), true
}

// lastExtra is the largest extension of reference point i that pairAt
// accepts: up to the timeline's last point (new) or its first (old).
func (ex *Explorer) lastExtra(i int, ext Extend) int {
	if ext == ExtendNew {
		return ex.Graph.Timeline().Len() - 2 - i
	}
	return i
}

// uExplore implements U-Explore (§3.2): starting from each consecutive
// pair, extend until the (monotonically increasing) result reaches k and
// report that minimal pair.
func (ex *Explorer) uExplore(at candidateFunc, ext Extend, k int64) []Pair {
	var out []Pair
	n := ex.Graph.Timeline().Len()
	for i := 0; i < n-1; i++ {
		for extra := 0; ; extra++ {
			if ex.canceled() {
				return nil
			}
			old, new, ok := ex.pairAt(i, ext, extra)
			if !ok {
				break
			}
			if r := at(i, extra, old, new); r >= k {
				out = append(out, Pair{Old: old, New: new, Result: r})
				break // prune: minimal pair found for this reference point
			}
		}
	}
	return out
}

// iExplore implements I-Explore (§3.2): starting from each consecutive
// pair, keep extending while the (monotonically decreasing) result stays
// ≥ k; the last surviving extension is the maximal pair.
func (ex *Explorer) iExplore(at candidateFunc, ext Extend, k int64) []Pair {
	var out []Pair
	n := ex.Graph.Timeline().Len()
	for i := 0; i < n-1; i++ {
		var best *Pair
		for extra := 0; ; extra++ {
			if ex.canceled() {
				return nil
			}
			old, new, ok := ex.pairAt(i, ext, extra)
			if !ok {
				break
			}
			r := at(i, extra, old, new)
			if r < k {
				break // prune: all further extensions are ≤ this result
			}
			best = &Pair{Old: old, New: new, Result: r}
		}
		if best != nil {
			out = append(out, *best)
		}
	}
	return out
}

// checkBase handles the cases where extension is monotonically decreasing
// under union semantics: only the consecutive-point pairs can be minimal.
func (ex *Explorer) checkBase(at candidateFunc, ext Extend, k int64) []Pair {
	var out []Pair
	n := ex.Graph.Timeline().Len()
	for i := 0; i < n-1; i++ {
		if ex.canceled() {
			return nil
		}
		old, new, _ := ex.pairAt(i, ext, 0)
		if r := at(i, 0, old, new); r >= k {
			out = append(out, Pair{Old: old, New: new, Result: r})
		}
	}
	return out
}

// checkLongest handles the cases where extension is monotonically
// increasing under intersection semantics: for each reference point the
// longest possible extension alone is the candidate maximal pair.
func (ex *Explorer) checkLongest(at candidateFunc, ext Extend, k int64) []Pair {
	var out []Pair
	n := ex.Graph.Timeline().Len()
	for i := 0; i < n-1; i++ {
		if ex.canceled() {
			return nil
		}
		extra := ex.lastExtra(i, ext)
		old, new, _ := ex.pairAt(i, ext, extra)
		if r := at(i, extra, old, new); r >= k {
			out = append(out, Pair{Old: old, New: new, Result: r})
		}
	}
	return out
}

// Naive exhaustively evaluates every extension of every reference point and
// selects minimal (union semantics) or maximal (intersection semantics)
// pairs directly from the definitions 3.4/3.5. It is the correctness
// baseline for the pruned traversals and the ablation comparator.
func (ex *Explorer) Naive(event Event, sem Semantics, ext Extend, k int64) []Pair {
	ex.Evaluations = 0
	at := ex.candidates(event, sem, ext)
	var out []Pair
	n := ex.Graph.Timeline().Len()
	for i := 0; i < n-1; i++ {
		type cand struct {
			pair Pair
			hit  bool
		}
		var cands []cand
		for extra := 0; ; extra++ {
			old, new, ok := ex.pairAt(i, ext, extra)
			if !ok {
				break
			}
			r := at(i, extra, old, new)
			cands = append(cands, cand{Pair{Old: old, New: new, Result: r}, r >= k})
		}
		if sem == UnionSemantics {
			// Minimal: the shortest qualifying extension.
			for _, c := range cands {
				if c.hit {
					out = append(out, c.pair)
					break
				}
			}
		} else {
			// Maximal: the longest qualifying extension.
			for j := len(cands) - 1; j >= 0; j-- {
				if cands[j].hit {
					out = append(out, cands[j].pair)
					break
				}
			}
		}
	}
	return out
}

// InitK computes the §3.5 initialization values for the threshold: the
// minimum and maximum result over all consecutive-point pairs of the
// event's aggregate graph. For a monotonically increasing traversal the
// paper starts from the minimum and increases it; for a decreasing one,
// from the maximum downwards.
func (ex *Explorer) InitK(event Event) (min, max int64) {
	tl := ex.Graph.Timeline()
	n := tl.Len()
	m := ex.masks()
	first := true
	for i := 0; i < n-1; i++ {
		old := ops.Exists(tl.Point(timeline.Time(i)))
		new := ops.Exists(tl.Point(timeline.Time(i + 1)))
		r := ex.eval(m, event, old, new)
		if first || r < min {
			min = r
		}
		if first || r > max {
			max = r
		}
		first = false
	}
	return min, max
}
