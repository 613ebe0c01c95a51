package explore

import (
	"repro/internal/evolution"
	"repro/internal/lru"
	"repro/internal/ops"
)

// EvalMemo is an opt-in cache of candidate-pair evaluation results, shared
// across exploration runs. The repeated-query structure it exploits is the
// threshold-tuning loop of §3.5: TuneK re-runs the same traversal at many
// thresholds, and every run walks largely the same candidate chains —
// result(G) for a candidate does not depend on k, only on which candidates
// get evaluated. A memo hit skips both view construction and aggregation.
//
// The memo key is the (event, selector, selector) triple; results are tied
// to the owning explorer's graph, schema, kind and measure, so a
// memo must not be shared between explorers measuring different things.
// Because it changes Evaluations (hits are not recharged), the memo is
// strictly opt-in: a nil Memo preserves the engine-independent counts the
// equivalence tests assert.
type EvalMemo struct {
	cache *lru.Cache[int64]
}

// NewEvalMemo returns a memo with the given byte budget (<= 0 selects the
// lru default). Entries are tiny — the budget mostly bounds key storage.
func NewEvalMemo(maxBytes int64) *EvalMemo {
	return &EvalMemo{cache: lru.New[int64](lru.Config{MaxBytes: maxBytes})}
}

// Purge empties the memo. Call it before reusing a memo after changing the
// explorer's schema, kind or measure.
func (m *EvalMemo) Purge() { m.cache.Purge() }

// Stats exposes the underlying cache counters.
func (m *EvalMemo) Stats() lru.Stats { return m.cache.Stats() }

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
func (m *EvalMemo) lookup(event Event, old, new ops.Sel) (int64, bool) {
	return m.cache.Get(memoKey(event, old, new))
}

// store records a computed result. The charged size approximates the key
// header plus the value; lru adds its own per-entry overhead.
func (m *EvalMemo) store(event Event, old, new ops.Sel, r int64) {
	m.cache.Put(memoKey(event, old, new), r, 8)
}
