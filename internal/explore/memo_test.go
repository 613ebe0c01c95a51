package explore

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/evolution"
)

// TestQuickMemoMatchesUnmemoized checks across random graphs and all 12
// Table 1 cases that a memoized explorer returns exactly the pairs of an
// unmemoized one (on both engines), and that re-running the same traversal
// against a warm memo performs zero new evaluations.
func TestQuickMemoMatchesUnmemoized(t *testing.T) {
	events := []Event{evolution.Stability, evolution.Growth, evolution.Shrinkage}
	sems := []Semantics{UnionSemantics, IntersectionSemantics}
	exts := []Extend{ExtendOld, ExtendNew}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ex := anyExplorer(r)
		if ex == nil {
			return true
		}
		_, max := ex.InitK(events[r.Intn(len(events))])
		k := int64(1)
		if max > 0 {
			k = 1 + r.Int63n(max+1)
		}
		for _, ev := range events {
			for _, sem := range sems {
				for _, ext := range exts {
					ex.memo = nil
					want := ex.Explore(ev, sem, ext, k)
					wantEvals := ex.Evaluations

					for _, noFast := range []bool{false, true} {
						ex.NoFastPath = noFast
						ex.memo = newEvalMemo()
						got := ex.Explore(ev, sem, ext, k)
						if !samePairs(got, want) || ex.Evaluations != wantEvals {
							return false
						}
						// Warm re-run: every candidate hits the memo.
						again := ex.Explore(ev, sem, ext, k)
						if !samePairs(again, want) || ex.Evaluations != 0 {
							return false
						}
					}
					ex.NoFastPath = false
					ex.memo = nil
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestMemoSharedAcrossEngines checks key compatibility: results stored by
// the seed engine are hits for the fast path and vice versa, including the
// ForAll/Exists normalization for single-point intervals.
func TestMemoSharedAcrossEngines(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var ex *Explorer
	for ex == nil {
		ex = anyExplorer(r)
	}
	for _, sem := range []Semantics{UnionSemantics, IntersectionSemantics} {
		ex.memo = newEvalMemo()
		ex.NoFastPath = true
		want := ex.Explore(evolution.Stability, sem, ExtendNew, 2)
		ex.NoFastPath = false
		got := ex.Explore(evolution.Stability, sem, ExtendNew, 2)
		if !samePairs(got, want) {
			t.Fatalf("sem %v: fast path disagrees after seed warm-up", sem)
		}
		if ex.Evaluations != 0 {
			t.Errorf("sem %v: fast path recomputed %d candidates the seed engine memoized", sem, ex.Evaluations)
		}
		if len(ex.memo.results) == 0 {
			t.Errorf("sem %v: the seed engine memoized nothing", sem)
		}
	}
}

// TestTuneKMemoized checks that TuneK's automatic memo does not change its
// answer and does reduce the total number of evaluations.
func TestTuneKMemoized(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var ex *Explorer
	for ex == nil {
		ex = anyExplorer(r)
	}
	// Reference: run the tuning loop with memoization disabled by pinning a
	// pre-purged memo... instead, emulate the unmemoized loop manually.
	type outcome struct {
		k     int64
		pairs []Pair
	}
	unmemoized := func() (outcome, int) {
		total := 0
		run := func(k int64) []Pair {
			p := ex.Explore(evolution.Growth, UnionSemantics, ExtendNew, k)
			total += ex.Evaluations
			return p
		}
		best := run(1)
		if len(best) < 1 {
			return outcome{}, total
		}
		lo, hi := int64(1), int64(2)
		for {
			pairs := run(hi)
			if len(pairs) < 1 {
				break
			}
			best, lo = pairs, hi
			if hi > (1 << 61) {
				break
			}
			hi *= 2
		}
		for lo+1 < hi {
			mid := lo + (hi-lo)/2
			if pairs := run(mid); len(pairs) >= 1 {
				best, lo = pairs, mid
			} else {
				hi = mid
			}
		}
		return outcome{lo, best}, total
	}
	want, rawEvals := unmemoized()

	ex.memo = nil
	k, pairs := ex.TuneK(evolution.Growth, UnionSemantics, ExtendNew, 1)
	if ex.memo != nil {
		t.Error("TuneK leaked its temporary memo")
	}
	if k != want.k || !samePairs(pairs, want.pairs) {
		t.Fatalf("TuneK = (%d, %v), want (%d, %v)", k, pairs, want.k, want.pairs)
	}
	// The memoized loop cannot evaluate more candidates than the raw loop,
	// and unless the loop ended after one run it should evaluate fewer.
	memo := newEvalMemo()
	ex.memo = memo
	ex.TuneK(evolution.Growth, UnionSemantics, ExtendNew, 1)
	st := memo.stats()
	if want.k > 1 && st.Hits == 0 {
		t.Errorf("tuning loop produced no memo hits (raw evals %d, stats %+v)", rawEvals, st)
	}
	ex.memo = nil
}
