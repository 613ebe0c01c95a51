package explore

import (
	"repro/internal/evolution"
	"repro/internal/ops"
)

// evalMemo is TuneK's cache of candidate-pair evaluation results, shared
// across the exploration runs of one tuning loop. The repeated-query
// structure it exploits is the threshold-tuning loop of §3.5: TuneK re-runs
// the same traversal at many thresholds, and every run walks largely the
// same candidate chains — result(G) for a candidate does not depend on k,
// only on which candidates get evaluated. A memo hit skips both view
// construction and aggregation.
//
// The memo key is the (event, selector, selector) triple; results are tied
// to the owning explorer's graph, schema, kind and measure. Because it
// changes Evaluations (hits are not recharged), no run outside TuneK has
// one: a plain Explore reports the engine-independent counts the
// equivalence tests assert. It lives for one tuning loop, whose candidates
// number at most n(n-1)/2 per traversal over n time points, so it is a
// plain map.
type evalMemo struct {
	results map[string]int64
	hits    int
}

func newEvalMemo() *evalMemo { return &evalMemo{results: make(map[string]int64)} }

// memoStats is what tests read of a memo.
type memoStats struct{ Hits int }

func (m *evalMemo) stats() memoStats { return memoStats{Hits: m.hits} }

// selKey renders one selector compactly, normalizing the semantics flag:
// over ≤ 1 time point Exists and ForAll select identically, so both map to
// the Exists form and a fixed point reached through either semi-lattice
// shares its entry.
func selKey(b []byte, s ops.Sel) []byte {
	if s.ForAll && s.Interval.Len() > 1 {
		b = append(b, 'A')
	} else {
		b = append(b, 'E')
	}
	return append(b, s.Interval.String()...)
}

// memoKey builds the cache key for one candidate evaluation.
func memoKey(event Event, old, new ops.Sel) string {
	b := make([]byte, 0, 48)
	switch event {
	case evolution.Stability:
		b = append(b, 's')
	case evolution.Growth:
		b = append(b, 'g')
	default:
		b = append(b, 'r')
	}
	b = selKey(b, old)
	b = append(b, '|')
	b = selKey(b, new)
	return string(b)
}

// lookup returns the memoized result for a candidate, if present.
func (m *evalMemo) lookup(event Event, old, new ops.Sel) (int64, bool) {
	r, ok := m.results[memoKey(event, old, new)]
	if ok {
		m.hits++
	}
	return r, ok
}

// store records a computed result.
func (m *evalMemo) store(event Event, old, new ops.Sel, r int64) {
	m.results[memoKey(event, old, new)] = r
}
