package explore

import (
	"repro/internal/timeline"
)

// The paper's Definition 3.6 asks for interval pairs without fixing a
// reference point, but its strategies anchor one side because the
// difference operator is non-monotonic when BOTH sides extend (§3.3).
// ExploreFree completes the problem definition: it enumerates every pair
// of contiguous, non-overlapping intervals (Told entirely before Tnew) and
// reports the Pareto-minimal (union semantics) or Pareto-maximal
// (intersection semantics) qualifying pairs:
//
//   - minimal: no qualifying pair (A', B') with A' ⊆ A and B' ⊆ B other
//     than (A, B) itself;
//   - maximal: no qualifying strict super-pair.
//
// The search is exhaustive — O(n⁴) evaluations over n base points — so it
// is intended for the moderate timelines of the paper's datasets (n = 21
// and n = 6), or for all-static schemas, whose bitmask evaluations make
// even the DBLP-scale sweep cheap.
func (ex *Explorer) ExploreFree(event Event, sem Semantics, k int64) []Pair {
	ex.Evaluations = 0
	tl := ex.Graph.Timeline()
	n := tl.Len()
	m := ex.masks()

	type cand struct {
		a1, a2, b1, b2 int // old = [a1,a2], new = [b1,b2]
		result         int64
	}
	var qualifying []cand
	for a1 := 0; a1 < n-1; a1++ {
		for a2 := a1; a2 < n-1; a2++ {
			old := tl.Range(timeline.Time(a1), timeline.Time(a2))
			oldSel := sel(old, sem)
			for b1 := a2 + 1; b1 < n; b1++ {
				for b2 := b1; b2 < n; b2++ {
					new := tl.Range(timeline.Time(b1), timeline.Time(b2))
					if r := ex.eval(m, event, oldSel, sel(new, sem)); r >= k {
						qualifying = append(qualifying, cand{a1, a2, b1, b2, r})
					}
				}
			}
		}
	}

	// subPair reports whether p's intervals are contained in q's.
	subPair := func(p, q cand) bool {
		return p.a1 >= q.a1 && p.a2 <= q.a2 && p.b1 >= q.b1 && p.b2 <= q.b2
	}
	var out []Pair
	for i, p := range qualifying {
		keep := true
		for j, q := range qualifying {
			if i == j {
				continue
			}
			if sem == UnionSemantics {
				// Minimal: drop p when a qualifying strict sub-pair exists.
				if subPair(q, p) && q != p {
					keep = false
					break
				}
			} else {
				// Maximal: drop p when a qualifying strict super-pair exists.
				if subPair(p, q) && q != p {
					keep = false
					break
				}
			}
		}
		if keep {
			out = append(out, Pair{
				Old:    tl.Range(timeline.Time(p.a1), timeline.Time(p.a2)),
				New:    tl.Range(timeline.Time(p.b1), timeline.Time(p.b2)),
				Result: p.result,
			})
		}
	}
	return out
}
