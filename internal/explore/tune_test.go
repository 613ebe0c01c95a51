package explore

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/evolution"
)

func TestTuneKOnFixture(t *testing.T) {
	ex := fixtureExplorer(t)
	// Stability results on consecutive pairs are 2 and 1; the largest k
	// with ≥1 minimal pair is 2 (achieved by (t0, t1)).
	k, pairs := ex.TuneK(evolution.Stability, UnionSemantics, ExtendNew, 1)
	if k != 2 {
		t.Errorf("TuneK = %d, want 2", k)
	}
	if len(pairs) != 1 || pairs[0].Result != 2 {
		t.Errorf("pairs = %v", pairStrings(pairs))
	}
	// Requiring 2 pairs forces k down to 1 (both consecutive pairs).
	k2, pairs2 := ex.TuneK(evolution.Stability, UnionSemantics, ExtendNew, 2)
	if k2 != 1 || len(pairs2) < 2 {
		t.Errorf("TuneK(minPairs=2) = %d with %d pairs", k2, len(pairs2))
	}
}

func TestTuneKUnsatisfiable(t *testing.T) {
	ex := fixtureExplorer(t)
	// There are at most 2 reference points; 5 pairs can never be found.
	k, pairs := ex.TuneK(evolution.Stability, UnionSemantics, ExtendNew, 5)
	if k != 0 || pairs != nil {
		t.Errorf("TuneK = %d, %v, want 0, nil", k, pairStrings(pairs))
	}
}

func TestQuickTuneKIsMaximal(t *testing.T) {
	// TuneK must return a k with ≥ minPairs pairs such that k+1 yields
	// fewer than minPairs.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ex := staticExplorer(r)
		if ex == nil {
			return true
		}
		events := []Event{evolution.Stability, evolution.Growth, evolution.Shrinkage}
		ev := events[r.Intn(len(events))]
		sem := Semantics(r.Intn(2))
		ext := Extend(r.Intn(2))
		minPairs := 1 + r.Intn(2)
		k, pairs := ex.TuneK(ev, sem, ext, minPairs)
		if k == 0 {
			return len(ex.Explore(ev, sem, ext, 1)) < minPairs
		}
		if len(pairs) < minPairs {
			return false
		}
		return len(ex.Explore(ev, sem, ext, k+1)) < minPairs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestTuneKWithIndexedExplorer: TuneK and its memo on the mask evaluator
// return the seed path's threshold and pairs, for every measure and kind,
// extension side and minimum pair count.
func TestTuneKWithIndexedExplorer(t *testing.T) {
	for _, c := range measureCases(t) {
		for _, ext := range allExts {
			for minPairs := 1; minPairs <= 2; minPairs++ {
				fast, seed := c.pair()
				kF, pF := fast.TuneK(evolution.Shrinkage, UnionSemantics, ext, minPairs)
				kS, pS := seed.TuneK(evolution.Shrinkage, UnionSemantics, ext, minPairs)
				if kF != kS || !samePairs(pF, pS) {
					t.Errorf("%s %v min %d: masks TuneK (%d, %v) ≠ seed (%d, %v)",
						c.name, ext, minPairs, kF, pairStrings(pF), kS, pairStrings(pS))
				}
			}
		}
	}
}
