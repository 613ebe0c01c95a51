// Package analytics implements GraphTempo's evolution-analytics
// workloads: the EVENTS, PATHS and TREND statement families.
//
// Each family ships as a production engine and a reference oracle that must
// agree to the byte on every input:
//
//   - EVENTS classifies attribute groups into stability / growth /
//     shrinkage events between consecutive width-w windows of the timeline
//     (the TempoGRAPHer exploration, built on internal/evolution's
//     tuple-appearance semantics). EventsSweep answers every step from one
//     pass over the nodes: evolution.TileSweep's flat accumulators, plus
//     the row rendering here.
//   - PATHS answers time-respecting reachability between node sets within
//     a window: earliest-arrival and fastest (shortest-duration) paths.
//     The frontier engine builds a per-point out-adjacency in CSR form
//     from the graph's point index columns and sweeps it once in time
//     order per departure, walking slices.
//   - TREND computes per-group weight series over a sliding width-w
//     window with an integer least-squares direction classification. The
//     catalog engine composes each window from the materialize catalog's
//     prefix sums in O(windows) vector operations; the scan engine builds
//     the series directly from the base graph.
//
// The Naive* functions in naive.go are deliberately dumb second
// implementations (per-point set scans, monotone fixpoints) used as
// equivalence oracles by tests, benchmarks and the analytics-e2e CI job.
// Choosing between the two TREND engines is the planner's job
// (internal/plan); this package only computes.
package analytics

import (
	"strconv"

	"repro/internal/timeline"
)

// Event class labels, shared by EVENTS rows and the oracles.
const (
	ClassGrowth    = "growth"
	ClassShrinkage = "shrinkage"
	ClassStability = "stability"
)

// classOf labels a weight triple: whichever of growth/shrinkage dominates
// names the event; balance (including pure stability) is stability.
func classOf(gr, shr int64) string {
	switch {
	case gr > shr:
		return ClassGrowth
	case shr > gr:
		return ClassShrinkage
	default:
		return ClassStability
	}
}

// numWindows returns how many width-w tiles cover a T-point timeline.
func numWindows(T, w int) int {
	if T <= 0 {
		return 0
	}
	return (T + w - 1) / w
}

// tileBounds returns the inclusive time bounds of tile j under width w on a
// T-point timeline (the last tile may be short).
func tileBounds(j, w, T int) (lo, hi int) {
	lo = j * w
	hi = lo + w - 1
	if hi > T-1 {
		hi = T - 1
	}
	return lo, hi
}

// windowLabel renders the inclusive label range of a window.
func windowLabel(tl *timeline.Timeline, lo, hi int) string {
	if lo == hi {
		return tl.Label(timeline.Time(lo))
	}
	return tl.Label(timeline.Time(lo)) + ".." + tl.Label(timeline.Time(hi))
}

// slopeOf fits an integer least-squares line through (j, series[j]) and
// returns the rendered slope plus its direction. The numerator and
// denominator are exact integers, so the direction is exact and the
// rendered float is bit-identical across engines:
//
//	num = n·Σ(j·s_j) − Σj·Σs_j,  den = n·Σj² − (Σj)²,  slope = num/den
func slopeOf(series []int64) (slope string, direction string) {
	n := int64(len(series))
	if n < 2 {
		return "0", "flat"
	}
	var sumJ, sumJJ, sumS, sumJS int64
	for j, s := range series {
		jj := int64(j)
		sumJ += jj
		sumJJ += jj * jj
		sumS += s
		sumJS += jj * s
	}
	num := n*sumJS - sumJ*sumS
	den := n*sumJJ - sumJ*sumJ
	dir := "flat"
	if num > 0 {
		dir = "up"
	} else if num < 0 {
		dir = "down"
	}
	return strconv.FormatFloat(float64(num)/float64(den), 'g', -1, 64), dir
}
