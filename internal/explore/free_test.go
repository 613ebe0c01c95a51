package explore

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/evolution"
	"repro/internal/ops"
	"repro/internal/timeline"
)

func TestExploreFreeStabilityFixture(t *testing.T) {
	ex := fixtureExplorer(t)
	tl := ex.Graph.Timeline()
	// k=2 stable edges: only pairs containing both t0 and t1 on opposite
	// sides qualify; the Pareto-minimal one is (t0, t1).
	got := ex.ExploreFree(evolution.Stability, UnionSemantics, 2)
	assertPairs(t, got, Pair{Old: tl.Point(0), New: tl.Point(1), Result: 2})

	// k=1 with intersection semantics: maximal pairs. The widest
	// qualifying pairs are (t0, [t1,t2]) and ([t0,t1], t2), each keeping
	// u2→u4 (ForAll semantics on both sides).
	max := ex.ExploreFree(evolution.Stability, IntersectionSemantics, 1)
	if len(max) != 2 {
		t.Fatalf("maximal pairs = %v", pairStrings(max))
	}
	for _, p := range max {
		if p.Old.Len()+p.New.Len() != 3 {
			t.Errorf("pair %v does not cover the whole timeline", p)
		}
	}
}

func TestExploreFreeShrinkageBothSidesExtended(t *testing.T) {
	// The anchored strategies cannot produce a pair with BOTH sides longer
	// than a point; the free search can. Shrinkage with k=3 on the fixture
	// needs old = [t0,t1] against t2 (u1→u2, u1→u3, u1→u4 all gone).
	ex := fixtureExplorer(t)
	tl := ex.Graph.Timeline()
	got := ex.ExploreFree(evolution.Shrinkage, UnionSemantics, 3)
	assertPairs(t, got, Pair{Old: tl.Range(0, 1), New: tl.Point(2), Result: 3})
}

func TestQuickExploreFreeSound(t *testing.T) {
	// Soundness of the Pareto filter: every reported pair qualifies, and
	// for union semantics no qualifying strict sub-pair exists (verified
	// by direct re-evaluation).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ex := staticExplorer(r)
		if ex == nil {
			return true
		}
		_, max := ex.InitK(evolution.Shrinkage)
		if max == 0 {
			return true
		}
		k := 1 + r.Int63n(max)
		pairs := ex.ExploreFree(evolution.Shrinkage, UnionSemantics, k)
		tl := ex.Graph.Timeline()
		for _, p := range pairs {
			if p.Result < k {
				return false
			}
			// Shrinking either side by one point must disqualify or be
			// impossible (single-point side) — a spot check of
			// minimality on the four one-step sub-pairs.
			check := func(old, new timeline.Interval) bool {
				return ex.eval(nil, evolution.Shrinkage, ops.Exists(old), ops.Exists(new)) < k
			}
			if p.Old.Len() > 1 {
				if !check(tl.Range(p.Old.Min()+1, p.Old.Max()), p.New) ||
					!check(tl.Range(p.Old.Min(), p.Old.Max()-1), p.New) {
					return false
				}
			}
			if p.New.Len() > 1 {
				if !check(p.Old, tl.Range(p.New.Min()+1, p.New.Max())) ||
					!check(p.Old, tl.Range(p.New.Min(), p.New.Max()-1)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestExploreFreeWithIndex: the free sweep on the mask evaluator (an
// all-static schema) agrees with the seed evaluator, in pairs and in
// Evaluations, for every measure, kind and event — on the short timelines
// an O(n⁴) sweep with a quadratic Pareto filter is meant for.
func TestExploreFreeWithIndex(t *testing.T) {
	for _, c := range measureCases(t) {
		if c.s.Graph().Timeline().Len() > 8 {
			continue
		}
		for _, ev := range []Event{evolution.Stability, evolution.Growth, evolution.Shrinkage} {
			for _, sem := range []Semantics{UnionSemantics, IntersectionSemantics} {
				fast, seed := c.pair()
				a := fast.ExploreFree(ev, sem, 1)
				b := seed.ExploreFree(ev, sem, 1)
				if !samePairs(a, b) || fast.Evaluations != seed.Evaluations {
					t.Errorf("%s %v %v: masks %v (%d evals) ≠ seed %v (%d)", c.name, ev, sem,
						pairStrings(a), fast.Evaluations, pairStrings(b), seed.Evaluations)
				}
			}
		}
	}
}
