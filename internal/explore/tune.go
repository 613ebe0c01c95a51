package explore

import "context"

// TuneKCtx is TuneK with cooperative cancellation: every exploration run
// in the tuning loop polls ctx between candidate evaluations and the loop
// is abandoned once the deadline expires, returning ctx.Err() instead of a
// threshold. A nil error guarantees the same (k, pairs) TuneK reports.
func (ex *Explorer) TuneKCtx(ctx context.Context, event Event, sem Semantics, ext Extend, minPairs int) (int64, []Pair, error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	ex.ctx = ctx
	defer func() { ex.ctx = nil }()
	k, pairs := ex.TuneK(event, sem, ext, minPairs)
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	return k, pairs, nil
}

// TuneK automates §3.5's threshold tuning loop. The paper initializes k
// from the consecutive-pair weights (InitK) and then "gradually" raises a
// minimum-based threshold or lowers a maximum-based one until the result
// set is interesting. TuneK runs that loop to its endpoint: it returns the
// LARGEST k at which the exploration still reports at least minPairs
// interval pairs, together with those pairs.
//
// The number of reported pairs is non-increasing in k for every traversal
// (a pair that satisfies ≥ k events satisfies any smaller threshold), so
// the search is an exponential ramp-up followed by binary search. When
// even k = 1 yields fewer than minPairs pairs, it returns k = 0 and nil.
func (ex *Explorer) TuneK(event Event, sem Semantics, ext Extend, minPairs int) (int64, []Pair) {
	if minPairs < 1 {
		minPairs = 1
	}
	// The runs at different thresholds walk overlapping candidate chains;
	// memoize them for the duration of the loop (a test may install its
	// own memo first to inspect it).
	if ex.memo == nil {
		ex.memo = newEvalMemo()
		defer func() { ex.memo = nil }()
	}
	run := func(k int64) []Pair { return ex.Explore(event, sem, ext, k) }

	best := run(1)
	if len(best) < minPairs {
		return 0, nil
	}
	lo := int64(1) // invariant: run(lo) has ≥ minPairs
	hi := int64(2)
	for {
		pairs := run(hi)
		if len(pairs) < minPairs {
			break
		}
		best = pairs
		lo = hi
		if hi > (1 << 61) {
			break
		}
		hi *= 2
	}
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		pairs := run(mid)
		if len(pairs) >= minPairs {
			best = pairs
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, best
}
