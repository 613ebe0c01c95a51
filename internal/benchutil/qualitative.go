package benchutil

import (
	"fmt"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/evolution"
	"repro/internal/explore"
	"repro/internal/tgql"
	"repro/internal/timeline"
)

// This file regenerates the dataset-statistics tables (Tables 3–4) and the
// qualitative figures of §5.2 (Figs. 12–14).

// StatsTable renders per-time-point node/edge counts (Tables 3 and 4).
func StatsTable(id, title string, g *core.Graph) *tgql.Table {
	t := &tgql.Table{ID: id, Title: title, Header: []string{"#TP", "#Nodes", "#Edges"}}
	stats := core.ComputeStats(g)
	for i, label := range stats.Labels {
		t.Add(label, fmt.Sprintf("%d", stats.Nodes[i]), fmt.Sprintf("%d", stats.Edges[i]))
	}
	return t
}

// Fig12 aggregates the evolution graph on gender for high-activity
// authors (#publications > minPubs) between told and tnew, reporting the
// St/Gr/Shr distribution of nodes and of edges (Fig. 12a: 2010 vs the
// 2000s; Fig. 12b: 2020 vs the 2010s).
func Fig12(id, title string, g *core.Graph, told, tnew timeline.Interval, minPubs int) *tgql.Table {
	gender := g.MustAttr("gender")
	pubs := g.MustAttr("publications")
	s := agg.MustSchema(g, gender)
	highActivity := func(n core.NodeID, t timeline.Time) bool {
		v := g.VaryingValue(pubs, n, t)
		if v < 0 {
			return false
		}
		var count int
		fmt.Sscanf(g.Dict(pubs).Value(v), "%d", &count)
		return count > minPubs
	}
	ev := evolution.Aggregate(g, told, tnew, s, agg.Distinct, highActivity)

	t := &tgql.Table{ID: id, Title: title,
		Header: []string{"entity", "St", "Gr", "Shr", "stable%"}}
	for _, tu := range ev.SortedNodes() {
		w := ev.Nodes[tu]
		t.Add("nodes "+ev.Schema.Label(tu),
			fmt.Sprintf("%d", w.St), fmt.Sprintf("%d", w.Gr), fmt.Sprintf("%d", w.Shr),
			pct(w.St, w.Total()))
	}
	for _, k := range ev.SortedEdges() {
		w := ev.Edges[k]
		t.Add("edges "+ev.Schema.Label(k.From)+"→"+ev.Schema.Label(k.To),
			fmt.Sprintf("%d", w.St), fmt.Sprintf("%d", w.Gr), fmt.Sprintf("%d", w.Shr),
			pct(w.St, w.Total()))
	}
	return t
}

func pct(part, total int64) string {
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(total))
}

// ExplorationSpec configures one §5.2 exploration experiment (one subplot
// of Fig. 13 or Fig. 14): an event type explored for a specific aggregate
// edge tuple (female-female in the paper) at three thresholds derived from
// the §3.5 initialization.
type ExplorationSpec struct {
	Event     explore.Event
	Semantics explore.Semantics
	Extend    explore.Extend
	// KFactors scale w_th (the max result over consecutive pairs for
	// increasing traversals, min for decreasing ones) into the three
	// thresholds, e.g. {1.0, 0.5, small} for stability.
	KFactors [3]float64
}

// FigExploration runs one exploration experiment for the edge tuple
// (from → to) on the given static attribute and reports, per threshold,
// the pairs found and the evaluation counts of the pruned strategy versus
// the naive baseline.
func FigExploration(id, title string, g *core.Graph, attr string, from, to []string, spec ExplorationSpec) *tgql.Table {
	s := schemaFor(g, attr)
	result, err := explore.EdgeTuple(s, from, to)
	if err != nil {
		panic(err)
	}
	ex := &explore.Explorer{Graph: g, Schema: s, Kind: agg.Distinct, Result: result}

	minR, maxR := ex.InitK(spec.Event)
	wth := maxR
	if traversalIsDecreasingInit(spec) {
		wth = minR
	}
	if wth < 1 {
		wth = 1
	}

	t := &tgql.Table{ID: id, Title: title,
		Header: []string{"k", "pairs", "evals(pruned)", "evals(naive)", "examples"}}
	for _, f := range spec.KFactors {
		k := int64(float64(wth) * f)
		if k < 1 {
			k = 1
		}
		pairs := ex.Explore(spec.Event, spec.Semantics, spec.Extend, k)
		pruned := ex.Evaluations
		_ = ex.Naive(spec.Event, spec.Semantics, spec.Extend, k)
		naive := ex.Evaluations
		t.Add(fmt.Sprintf("%d", k), fmt.Sprintf("%d", len(pairs)),
			fmt.Sprintf("%d", pruned), fmt.Sprintf("%d", naive), examplePairs(pairs, 3))
	}
	return t
}

// traversalIsDecreasingInit reports whether the §3.5 initialization should
// start from the minimum (growing thresholds) rather than the maximum.
func traversalIsDecreasingInit(spec ExplorationSpec) bool {
	// The paper grows k for shrinkage (min-based) and shrinks it for
	// stability and growth (max-based) in §5.2.
	return spec.Event == evolution.Shrinkage
}

func examplePairs(pairs []explore.Pair, max int) string {
	if len(pairs) == 0 {
		return "-"
	}
	out := ""
	for i, p := range pairs {
		if i == max {
			out += " …"
			break
		}
		if i > 0 {
			out += "; "
		}
		out += p.String()
	}
	return out
}

// PaperExplorations returns the three §5.2 exploration cases in paper
// order: maximal stability (intersection), minimal growth (union), and
// minimal shrinkage (union).
func PaperExplorations() []ExplorationSpec {
	return []ExplorationSpec{
		{Event: evolution.Stability, Semantics: explore.IntersectionSemantics,
			Extend: explore.ExtendNew, KFactors: [3]float64{0.02, 0.5, 1.0}},
		{Event: evolution.Growth, Semantics: explore.UnionSemantics,
			Extend: explore.ExtendNew, KFactors: [3]float64{0.1, 0.5, 1.0}},
		{Event: evolution.Shrinkage, Semantics: explore.UnionSemantics,
			Extend: explore.ExtendOld, KFactors: [3]float64{1.0, 5.0, 20.0}},
	}
}
