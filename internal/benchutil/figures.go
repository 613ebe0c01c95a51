package benchutil

import (
	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/materialize"
	"repro/internal/ops"
	"repro/internal/timeline"
)

// This file regenerates the performance figures of §5.1 (Figs. 5–11).
// Each function takes the dataset graph (DBLP or MovieLens, possibly
// scaled) and measures the same workloads the paper plots.

// schemaFor builds an aggregation schema for a named attribute combination.
func schemaFor(g *core.Graph, names ...string) *agg.Schema {
	s, err := agg.ByName(g, names...)
	if err != nil {
		panic(err)
	}
	return s
}

// Fig5 measures DIST aggregation time per attribute combination at every
// time point. combos lists the attribute-name combinations to plot (the
// paper uses G, P, G+P for DBLP and G, A, O, R, G+A, G+A+R, G+A+O+R for
// MovieLens).
func Fig5(id, title string, g *core.Graph, combos [][]string) *Experiment {
	e := &Experiment{ID: id, Title: title, XLabel: "time point"}
	schemas := make([]*agg.Schema, len(combos))
	for i, c := range combos {
		e.Series = append(e.Series, comboLabel(c))
		schemas[i] = schemaFor(g, c...)
	}
	tl := g.Timeline()
	for t := 0; t < tl.Len(); t++ {
		v := ops.At(g, timeline.Time(t))
		vals := make([]float64, len(schemas))
		for i, s := range schemas {
			vals[i] = timed(func() { agg.Aggregate(v, s, agg.Distinct) })
		}
		e.Add(tl.Label(timeline.Time(t)), vals...)
	}
	return e
}

func comboLabel(names []string) string {
	label := ""
	for i, n := range names {
		if i > 0 {
			label += "+"
		}
		label += string(n[0])
	}
	return label
}

// Fig6 measures union + aggregation while extending the interval
// [t0, t0+i]: operator time, then DIST and ALL aggregation time for a
// static and a time-varying attribute (Fig. 6a–d).
func Fig6(id, title string, g *core.Graph, staticAttr, varyingAttr string) *Experiment {
	e, add := distAllExperiment(id, title, "interval end", g, staticAttr, varyingAttr)
	tl := g.Timeline()
	for x := 1; x < tl.Len(); x++ {
		iv := tl.Range(0, timeline.Time(x))
		add(tl.Label(timeline.Time(x)), func() *ops.View { return ops.Union(g, iv, iv) })
	}
	return e
}

// distAllExperiment is the table of Figs. 6, 8 and 9 and the function that
// adds one row to it: the time of op, then of DIST and ALL aggregation of
// its view on the static and on the time-varying attribute.
func distAllExperiment(id, title, xlabel string, g *core.Graph, staticAttr, varyingAttr string) (*Experiment, func(label string, op func() *ops.View)) {
	e := &Experiment{
		ID: id, Title: title, XLabel: xlabel,
		Series: []string{"op", staticAttr[:1] + ":DIST", staticAttr[:1] + ":ALL",
			varyingAttr[:1] + ":DIST", varyingAttr[:1] + ":ALL"},
	}
	sStatic := schemaFor(g, staticAttr)
	sVarying := schemaFor(g, varyingAttr)
	return e, func(label string, op func() *ops.View) {
		var v *ops.View
		opTime := timed(func() { v = op() })
		e.Add(label,
			opTime,
			timed(func() { agg.Aggregate(v, sStatic, agg.Distinct) }),
			timed(func() { agg.Aggregate(v, sStatic, agg.All) }),
			timed(func() { agg.Aggregate(v, sVarying, agg.Distinct) }),
			timed(func() { agg.Aggregate(v, sVarying, agg.All) }),
		)
	}
}

// Fig7 measures intersection + DIST aggregation while extending the
// interval [t0, t0+i] with intersection semantics (entities existing at
// every point). Like the paper, it stops at the longest interval with at
// least one common edge.
func Fig7(id, title string, g *core.Graph, staticAttr, varyingAttr string) *Experiment {
	e := &Experiment{
		ID: id, Title: title, XLabel: "interval end",
		Series: []string{"op", staticAttr[:1] + ":DIST", varyingAttr[:1] + ":DIST"},
	}
	sStatic := schemaFor(g, staticAttr)
	sVarying := schemaFor(g, varyingAttr)
	tl := g.Timeline()
	for x := 1; x < tl.Len(); x++ {
		iv := tl.Range(0, timeline.Time(x))
		var v *ops.View
		opTime := timed(func() { v = ops.StabilityView(g, ops.ForAll(iv), ops.ForAll(iv)) })
		if v.NumEdges() == 0 {
			break
		}
		e.Add(tl.Label(timeline.Time(x)),
			opTime,
			timed(func() { agg.Aggregate(v, sStatic, agg.Distinct) }),
			timed(func() { agg.Aggregate(v, sVarying, agg.Distinct) }),
		)
	}
	return e
}

// Fig8 measures the difference Told(∪) − Tnew with Tnew fixed at the last
// time point and Told = [x, last-1] expanding leftward, plus DIST and ALL
// aggregation on a static and a time-varying attribute.
func Fig8(id, title string, g *core.Graph, staticAttr, varyingAttr string) *Experiment {
	return differenceFig(id, title, g, staticAttr, varyingAttr, false)
}

// Fig9 measures the opposite difference Tnew − Told(∪): Tnew fixed at the
// last point, Told expanding leftward; the output shrinks instead of
// growing.
func Fig9(id, title string, g *core.Graph, staticAttr, varyingAttr string) *Experiment {
	return differenceFig(id, title, g, staticAttr, varyingAttr, true)
}

// differenceFig is Fig. 8, or Fig. 9 when newMinusOld.
func differenceFig(id, title string, g *core.Graph, staticAttr, varyingAttr string, newMinusOld bool) *Experiment {
	e, add := distAllExperiment(id, title, "Told start", g, staticAttr, varyingAttr)
	tl := g.Timeline()
	last := timeline.Time(tl.Len() - 1)
	tnew := ops.Exists(tl.Point(last))
	for x := tl.Len() - 2; x >= 0; x-- {
		told := ops.Exists(tl.Range(timeline.Time(x), last-1))
		add(tl.Label(timeline.Time(x)), func() *ops.View {
			if newMinusOld {
				return ops.DifferenceView(g, tnew, told)
			}
			return ops.DifferenceView(g, told, tnew)
		})
	}
	return e
}

// Fig10 measures the speedup of composing union ALL aggregates from
// per-time-point materialized aggregates (T-distributive reuse) over
// computing them from scratch, for a static and a time-varying attribute,
// while extending the interval [t0, t0+x]. The last three series count the
// work behind the times: the entities (nodes + edges) the scratch union
// view holds, and the groups each store composes.
func Fig10(id, title string, g *core.Graph, staticAttr, varyingAttr string) *Experiment {
	e := &Experiment{
		ID: id, Title: title, XLabel: "interval end",
		Series: []string{
			staticAttr[:1] + ":scratch", staticAttr[:1] + ":mat", staticAttr[:1] + ":speedup",
			varyingAttr[:1] + ":scratch", varyingAttr[:1] + ":mat", varyingAttr[:1] + ":speedup",
			"entities", staticAttr[:1] + ":groups", varyingAttr[:1] + ":groups"},
	}
	var stores []*materialize.Store
	for _, attr := range []string{staticAttr, varyingAttr} {
		stores = append(stores, materialize.NewStore(g, schemaFor(g, attr)))
	}
	tl := g.Timeline()
	for x := 1; x < tl.Len(); x++ {
		iv := tl.Range(0, timeline.Time(x))
		var (
			row, composedGroups []float64
			view                *ops.View
			composed            *agg.Graph
		)
		for _, st := range stores {
			scratch := timed(func() { view = ops.Union(g, iv, iv); agg.Aggregate(view, st.Schema(), agg.All) })
			mat := timed(func() { composed = st.UnionAll(iv) })
			row = append(row, scratch, mat, ratio(scratch, mat))
			composedGroups = append(composedGroups, groups(composed))
		}
		row = append(row, entities(view))
		e.Add(tl.Label(timeline.Time(x)), append(row, composedGroups...)...)
	}
	return e
}

// groups and entities count the nodes and edges of an aggregate graph and
// of a view: the work of reading one.
func groups(ag *agg.Graph) float64 { return float64(len(ag.Nodes) + len(ag.Edges)) }
func entities(v *ops.View) float64 { return float64(v.NumNodes() + v.NumEdges()) }

func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// Fig11 measures the speedup of deriving aggregates on attribute subsets
// from a materialized superset aggregate (D-distributive roll-up) over
// computing them from scratch, per time point. super is the materialized
// attribute combination; subsets are the targets. The last two series
// count the work behind the times: the entities the scratch aggregation
// scans, and the source groups every roll-up reads.
func Fig11(id, title string, g *core.Graph, super []string, subsets [][]string) *Experiment {
	e := &Experiment{ID: id, Title: title, XLabel: "time point"}
	for _, sub := range subsets {
		e.Series = append(e.Series, comboLabel(sub)+"⇐"+comboLabel(super))
	}
	e.Series = append(e.Series, "entities", "src groups")
	superSchema := schemaFor(g, super...)
	subIDs := make([][]core.AttrID, len(subsets))
	subSchemas := make([]*agg.Schema, len(subsets))
	for i, sub := range subsets {
		subSchemas[i] = schemaFor(g, sub...)
		subIDs[i] = subSchemas[i].Attrs()
	}
	tl := g.Timeline()
	for t := 0; t < tl.Len(); t++ {
		v := ops.At(g, timeline.Time(t))
		fine := agg.Aggregate(v, superSchema, agg.Distinct) // materialized
		vals := make([]float64, len(subsets), len(subsets)+2)
		for i := range subsets {
			scratch := timed(func() { agg.Aggregate(v, subSchemas[i], agg.Distinct) })
			rolled := timed(func() {
				if _, err := agg.Rollup(fine, subIDs[i]...); err != nil {
					panic(err)
				}
			})
			vals[i] = ratio(scratch, rolled)
		}
		vals = append(vals, entities(v), groups(fine))
		e.Add(tl.Label(timeline.Time(t)), vals...)
	}
	return e
}

// Fig5DBLPCombos and Fig5MovieLensCombos are the attribute combinations
// the paper plots in Fig. 5.
var (
	Fig5DBLPCombos = [][]string{
		{"gender"}, {"publications"}, {"gender", "publications"},
	}
	Fig5MovieLensCombos = [][]string{
		{"gender"}, {"age"}, {"occupation"}, {"rating"},
		{"gender", "age"}, {"gender", "age", "rating"},
		{"gender", "age", "occupation", "rating"},
	}
)

// Fig11MovieLensSingle lists the paper's Fig. 11b derivations: gender from
// each pair containing it, rating likewise.
func Fig11MovieLensSingle(g *core.Graph) []*Experiment {
	var out []*Experiment
	out = append(out,
		Fig11("fig11b-G", "MovieLens: gender from attribute pairs", g,
			[]string{"gender", "age"}, [][]string{{"gender"}}),
		Fig11("fig11b-G2", "MovieLens: gender from (gender,rating)", g,
			[]string{"gender", "rating"}, [][]string{{"gender"}}),
		Fig11("fig11b-G3", "MovieLens: gender from (gender,occupation)", g,
			[]string{"gender", "occupation"}, [][]string{{"gender"}}),
		Fig11("fig11b-R1", "MovieLens: rating from (rating,gender)", g,
			[]string{"rating", "gender"}, [][]string{{"rating"}}),
		Fig11("fig11b-R2", "MovieLens: rating from (rating,age)", g,
			[]string{"rating", "age"}, [][]string{{"rating"}}),
		Fig11("fig11b-R3", "MovieLens: rating from (rating,occupation)", g,
			[]string{"rating", "occupation"}, [][]string{{"rating"}}),
	)
	return out
}

// Fig11MovieLensPairs derives all attribute pairs from the materialized
// 4-attribute aggregate (Fig. 11c).
func Fig11MovieLensPairs(g *core.Graph) *Experiment {
	all := []string{"gender", "age", "occupation", "rating"}
	var pairs [][]string
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			pairs = append(pairs, []string{all[i], all[j]})
		}
	}
	return Fig11("fig11c", "MovieLens: pairs from all four attributes", g, all, pairs)
}

// Fig11MovieLensTriples derives all attribute triples from the 4-attribute
// aggregate (Fig. 11d).
func Fig11MovieLensTriples(g *core.Graph) *Experiment {
	all := []string{"gender", "age", "occupation", "rating"}
	var triples [][]string
	for skip := 0; skip < len(all); skip++ {
		var tr []string
		for i, a := range all {
			if i != skip {
				tr = append(tr, a)
			}
		}
		triples = append(triples, tr)
	}
	return Fig11("fig11d", "MovieLens: triples from all four attributes", g, all, triples)
}
