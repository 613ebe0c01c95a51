package analytics

import (
	"sort"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/materialize"
	"repro/internal/timeline"
)

// TrendSpec parameterizes one TREND computation: for every attribute group
// the weight series over the sliding window [j, j+Width-1] (stride 1) is
// built, then classified by the sign of its integer least-squares slope.
// With kind All a window's weight is the group's appearance count inside
// it; with kind Distinct it is the number of distinct entities exhibiting
// the group's tuple inside it.
type TrendSpec struct {
	Schema *agg.Schema
	Kind   agg.Kind
	Width  int
	Filter agg.Filter
}

// width returns the normalized window width (at least 1).
func (s TrendSpec) width() int {
	if s.Width < 1 {
		return 1
	}
	return s.Width
}

// TrendRow is one group's series and classification.
type TrendRow struct {
	Group     string  `json:"group"`
	Series    []int64 `json:"series"`
	Slope     string  `json:"slope"`
	Direction string  `json:"direction"`
}

// TrendResult is a full TREND answer: rows ordered by group label.
type TrendResult struct {
	Width   int        `json:"width"`
	Windows int        `json:"windows"`
	Rows    []TrendRow `json:"rows"`
}

// trendWindows returns the number of sliding-window positions.
func trendWindows(T, w int) int { return max(T-w+1, 0) }

// TrendCatalog answers an ALL-kind unfiltered TREND through the
// materialization catalog: each window position is one prefix-sum
// composition (UnionAll), so the whole series costs O(windows) vector
// operations instead of a base-graph scan — the §4.3 T-distributive reuse
// applied to a sliding window.
func TrendCatalog(cat *materialize.Catalog, g *core.Graph, spec TrendSpec) (*TrendResult, error) {
	tl := g.Timeline()
	w := spec.width()
	nw := trendWindows(tl.Len(), w)
	out := &TrendResult{Width: w, Windows: nw}
	if nw == 0 {
		return out, nil
	}
	attrs := spec.Schema.Attrs()
	series := make(map[agg.Tuple][]int64)
	for j := 0; j < nw; j++ {
		iv := tl.Range(timeline.Time(j), timeline.Time(j+w-1))
		ag, _, err := cat.UnionAll(iv, attrs...)
		if err != nil {
			return nil, err
		}
		for tu, weight := range ag.Nodes {
			s := series[tu]
			if s == nil {
				s = make([]int64, nw)
				series[tu] = s
			}
			s[j] = weight
		}
	}
	out.Rows = trendRows(spec.Schema, series)
	return out, nil
}

// TrendScan answers a TREND directly from the base graph: one pass over
// the entities collects per-point (All) or per-window-coverage (Distinct)
// contributions, then sliding sums produce every series.
func TrendScan(g *core.Graph, spec TrendSpec) *TrendResult {
	tl := g.Timeline()
	w := spec.width()
	T := tl.Len()
	nw := trendWindows(T, w)
	out := &TrendResult{Width: w, Windows: nw}
	if nw == 0 {
		return out
	}
	series := make(map[agg.Tuple][]int64)
	if spec.Kind == agg.All {
		// Per-point appearance counts, then one sliding sum per group.
		points := make(map[agg.Tuple][]int64)
		for n := 0; n < g.NumNodes(); n++ {
			id := core.NodeID(n)
			g.NodeTau(id).ForEach(func(t int) {
				if spec.Filter != nil && !spec.Filter(id, timeline.Time(t)) {
					return
				}
				tu := agg.Tuple(spec.Schema.Codes(timeline.Time(t))[id])
				if tu < 0 {
					return
				}
				p := points[tu]
				if p == nil {
					p = make([]int64, T)
					points[tu] = p
				}
				p[t]++
			})
		}
		for tu, p := range points {
			s := make([]int64, nw)
			var sum int64
			for t := 0; t < w; t++ {
				sum += p[t]
			}
			s[0] = sum
			for j := 1; j < nw; j++ {
				sum += p[j+w-1] - p[j-1]
				s[j] = sum
			}
			series[tu] = s
		}
	} else {
		// Distinct entities per window: each entity covers, per tuple, the
		// union of window-start intervals [t-w+1, t] over its appearance
		// times; merged intervals become +1/−1 marks on a difference array.
		diff := make(map[agg.Tuple][]int64)
		times := make(map[agg.Tuple][]int)
		for n := 0; n < g.NumNodes(); n++ {
			id := core.NodeID(n)
			clear(times)
			g.NodeTau(id).ForEach(func(t int) {
				if spec.Filter != nil && !spec.Filter(id, timeline.Time(t)) {
					return
				}
				tu := agg.Tuple(spec.Schema.Codes(timeline.Time(t))[id])
				if tu < 0 {
					return
				}
				times[tu] = append(times[tu], t)
			})
			for tu, ts := range times {
				d := diff[tu]
				if d == nil {
					d = make([]int64, nw+1)
					diff[tu] = d
				}
				// ts is ascending (ForEach order); [t-w+1, t] intervals for
				// consecutive t1 < t2 overlap exactly when t2-t1 <= w.
				runLo := ts[0]
				prev := ts[0]
				flush := func(lo, hi int) {
					a, b := clampInt(lo-w+1, 0, nw-1), clampInt(hi, 0, nw-1)
					if lo-w+1 > nw-1 || hi < 0 {
						return
					}
					d[a]++
					d[b+1]--
				}
				for _, t := range ts[1:] {
					if t-prev > w {
						flush(runLo, prev)
						runLo = t
					}
					prev = t
				}
				flush(runLo, prev)
			}
		}
		for tu, d := range diff {
			s := make([]int64, nw)
			var sum int64
			zero := true
			for j := 0; j < nw; j++ {
				sum += d[j]
				s[j] = sum
				if sum != 0 {
					zero = false
				}
			}
			if !zero {
				series[tu] = s
			}
		}
	}
	out.Rows = trendRows(spec.Schema, series)
	return out
}

// trendRows renders and orders the series map.
func trendRows(schema *agg.Schema, series map[agg.Tuple][]int64) []TrendRow {
	rows := make([]TrendRow, 0, len(series))
	for tu, s := range series {
		slope, dir := slopeOf(s)
		rows = append(rows, TrendRow{
			Group:     schema.Label(tu),
			Series:    s,
			Slope:     slope,
			Direction: dir,
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Group < rows[j].Group })
	return rows
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
