package benchutil

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/tgql"
	"repro/internal/timeline"
)

// The shapes of §5's figures that EXPERIMENTS.md reads off gtbench's
// tables, asserted on the functions gtbench calls. Every assertion is on a
// count — pairs, evaluations, entities, groups, St/Gr/Shr weights — and
// none on a time.

var (
	dblp = sync.OnceValue(func() *core.Graph { return dataset.DBLPScaled(1, 0.1) })
	// ×0.05 is the smallest MovieLens that shows Fig. 13's August shapes
	// (×0.02 does not); it takes about 1.5 s to generate.
	movieLens = sync.OnceValue(func() *core.Graph { return dataset.MovieLensScaled(1, 0.05) })
)

// atoi parses a count cell of a figure table.
func atoi(t *testing.T, cell string) int {
	t.Helper()
	n, err := strconv.Atoi(cell)
	if err != nil {
		t.Fatalf("count cell %q: %v", cell, err)
	}
	return n
}

// checkEvaluations asserts that on every row of a FigExploration table
// the pruned traversal evaluated no more candidate pairs than the naive
// one.
func checkEvaluations(t *testing.T, tb *tgql.Table) {
	t.Helper()
	for _, r := range tb.Rows {
		if pruned, naive := atoi(t, r[2]), atoi(t, r[3]); pruned > naive {
			t.Errorf("%s k=%s: pruned evaluations %d > naive %d", tb.ID, r[0], pruned, naive)
		}
	}
}

// tablePair is one pair of a FigExploration row's examples cell: Told and
// Tnew as [first, last] points, and the pair's result.
type tablePair struct {
	old, new [2]timeline.Time
	events   int
}

func (p tablePair) touches(t timeline.Time) bool {
	return p.old[0] <= t && t <= p.old[1] || p.new[0] <= t && t <= p.new[1]
}

// pairsIn parses the examples cell of a FigExploration row ("Told → Tnew
// (N events); …", at most three pairs) back into pairs.
func pairsIn(t *testing.T, tl *timeline.Timeline, row []string) []tablePair {
	t.Helper()
	cell := strings.TrimSuffix(row[4], " …")
	if cell == "-" {
		return nil
	}
	point := func(label string) timeline.Time {
		at, ok := tl.TimeOf(label)
		if !ok {
			t.Fatalf("examples cell %q: no time point %q", cell, label)
		}
		return at
	}
	interval := func(s string) [2]timeline.Time {
		if first, last, ok := strings.Cut(strings.Trim(s, "[]"), ","); ok {
			return [2]timeline.Time{point(first), point(last)}
		}
		return [2]timeline.Time{point(s), point(s)}
	}
	var out []tablePair
	for _, s := range strings.Split(cell, "; ") {
		old, rest, ok1 := strings.Cut(s, " → ")
		new, result, ok2 := strings.Cut(rest, " (")
		if !ok1 || !ok2 {
			t.Fatalf("examples cell %q: cannot parse %q", cell, s)
		}
		out = append(out, tablePair{interval(old), interval(new), atoi(t, strings.TrimSuffix(result, " events)"))})
	}
	return out
}

// allPairsIn is pairsIn for a row whose examples list every pair it found.
func allPairsIn(t *testing.T, tl *timeline.Timeline, row []string) []tablePair {
	t.Helper()
	ps := pairsIn(t, tl, row)
	if n := atoi(t, row[1]); n == 0 || n != len(ps) {
		t.Fatalf("row k=%s found %d pairs and lists %d; want every pair listed, at least one", row[0], n, len(ps))
	}
	return ps
}

// series returns the column of the named series of e.
func series(t *testing.T, e *Experiment, name string) []float64 {
	t.Helper()
	for j, s := range e.Series {
		if s == name {
			col := make([]float64, len(e.Rows))
			for i, r := range e.Rows {
				col[i] = r.Values[j]
			}
			return col
		}
	}
	t.Fatalf("%s has no series %q (has %v)", e.ID, name, e.Series)
	return nil
}

// TestFig12Shape: between decades high-activity authors mostly stay and
// their collaborations mostly end — per gender node St exceeds Gr and
// Shr, more men than women stay, on every edge row Shr exceeds St and Gr
// — and both genders' stable share rises from 12a to 12b.
func TestFig12Shape(t *testing.T) {
	g := dblp()
	tl := g.Timeline()
	type weights struct{ st, gr, shr int }
	rowsOf := func(tb *tgql.Table) map[string]weights {
		out := map[string]weights{}
		for _, r := range tb.Rows {
			out[r[0]] = weights{atoi(t, r[1]), atoi(t, r[2]), atoi(t, r[3])}
		}
		return out
	}
	a := rowsOf(Fig12("Fig. 12a", "2000s → 2010", g, tl.Range(0, 9), tl.Point(10), 4))
	b := rowsOf(Fig12("Fig. 12b", "2010s → 2020", g, tl.Range(10, 19), tl.Point(20), 4))
	for name, rows := range map[string]map[string]weights{"12a": a, "12b": b} {
		for _, gender := range []string{"f", "m"} {
			w, ok := rows["nodes "+gender]
			if !ok || w.st <= w.gr || w.st <= w.shr {
				t.Errorf("Fig. %s nodes %s: St=%d Gr=%d Shr=%d; want St the largest", name, gender, w.st, w.gr, w.shr)
			}
		}
		if m, f := rows["nodes m"].st, rows["nodes f"].st; m <= f {
			t.Errorf("Fig. %s: stable m %d ≤ stable f %d", name, m, f)
		}
		edges := 0
		for entity, w := range rows {
			if strings.HasPrefix(entity, "edges ") {
				edges++
				if w.shr <= w.st || w.shr <= w.gr {
					t.Errorf("Fig. %s %s: St=%d Gr=%d Shr=%d; want Shr the largest", name, entity, w.st, w.gr, w.shr)
				}
			}
		}
		if edges != 4 {
			t.Errorf("Fig. %s has %d edge rows, want the 4 gender pairs", name, edges)
		}
	}
	for _, gender := range []string{"nodes f", "nodes m"} {
		wa, wb := a[gender], b[gender]
		// St_a/total_a < St_b/total_b, cross-multiplied.
		if wa.st*(wb.st+wb.gr+wb.shr) >= wb.st*(wa.st+wa.gr+wa.shr) {
			t.Errorf("%s: stable share does not rise from 12a %+v to 12b %+v", gender, wa, wb)
		}
	}
}

// TestFig14Shape: f–f collaborations on DBLP. Shrinkage at k = 20·w_th
// first finds the decade [2001,2009] → 2010; stability at k = w_th finds
// one pair of adjacent years; pruning never evaluates more pairs than the
// naive traversal.
func TestFig14Shape(t *testing.T) {
	g := dblp()
	tl := g.Timeline()
	specs := PaperExplorations()
	var tables []*tgql.Table
	for i, spec := range specs {
		tb := FigExploration("Fig. 14"+string(rune('a'+i)), "f-f", g, "gender", []string{"f"}, []string{"f"}, spec)
		checkEvaluations(t, tb)
		tables = append(tables, tb)
	}
	stab, shr := tables[0], tables[2]

	// Shrinkage thresholds are {1, 5, 20}·w_th.
	if k0, k2 := atoi(t, shr.Rows[0][0]), atoi(t, shr.Rows[2][0]); k2 != 20*k0 {
		t.Fatalf("shrinkage thresholds %d and %d are not w_th and 20·w_th", k0, k2)
	}
	first := pairsIn(t, tl, shr.Rows[2])
	y2001, _ := tl.TimeOf("2001")
	y2009, _ := tl.TimeOf("2009")
	y2010, _ := tl.TimeOf("2010")
	if want := (tablePair{old: [2]timeline.Time{y2001, y2009}, new: [2]timeline.Time{y2010, y2010}}); len(first) == 0 || first[0].old != want.old || first[0].new != want.new {
		t.Errorf("shrinkage at k=%s: first pair of %q, want [2001,2009] → 2010", shr.Rows[2][0], shr.Rows[2][4])
	}

	// Stability thresholds are {0.02, 0.5, 1}·w_th.
	top := allPairsIn(t, tl, stab.Rows[2])
	if p := top[0]; len(top) != 1 || p.old[0] != p.old[1] || p.new[0] != p.new[1] || p.new[0] != p.old[0]+1 {
		t.Errorf("stability at k=w_th=%s: %q, want one pair of adjacent years", stab.Rows[2][0], stab.Rows[2][4])
	}
}

// TestFig13Shape: F–F co-rating on MovieLens peaks in August. The top
// stability pair touches August, Jul → Aug is the largest single-step
// growth, and every shrinkage pair at k = 5·w_th has August in Told.
func TestFig13Shape(t *testing.T) {
	g := movieLens()
	tl := g.Timeline()
	jul, _ := tl.TimeOf("Jul")
	aug, _ := tl.TimeOf("Aug")
	var tables []*tgql.Table
	for i, spec := range PaperExplorations() {
		tb := FigExploration("Fig. 13"+string(rune('a'+i)), "F-F", g, "gender", []string{"F"}, []string{"F"}, spec)
		checkEvaluations(t, tb)
		tables = append(tables, tb)
	}
	stab, grow, shr := tables[0], tables[1], tables[2]

	if top := pairsIn(t, tl, stab.Rows[2]); len(top) == 0 || !top[0].touches(aug) {
		t.Errorf("stability at k=w_th=%s: top pair of %q does not touch Aug", stab.Rows[2][0], stab.Rows[2][4])
	}

	// Growth's last threshold is w_th, the largest result of a single step.
	wth, found := atoi(t, grow.Rows[2][0]), false
	for _, p := range pairsIn(t, tl, grow.Rows[2]) {
		found = found || p.old == [2]timeline.Time{jul, jul} && p.new == [2]timeline.Time{aug, aug} && p.events == wth
	}
	if !found {
		t.Errorf("growth at k=w_th=%d: %q lacks Jul → Aug (%d events)", wth, grow.Rows[2][4], wth)
	}

	for _, p := range allPairsIn(t, tl, shr.Rows[1]) {
		if p.old[0] > aug || aug > p.old[1] {
			t.Errorf("shrinkage at k=%s: Told of %q lacks Aug", shr.Rows[1][0], shr.Rows[1][4])
		}
	}
}

// TestFig10WorkShape: the scratch union view grows with the interval,
// and at the longest interval each one-attribute store composes fewer
// groups than scratch scans entities.
func TestFig10WorkShape(t *testing.T) {
	e := Fig10("Fig. 10", "dblp", dblp(), "gender", "publications")
	scanned := series(t, e, "entities")
	for i := 1; i < len(scanned); i++ {
		if scanned[i] < scanned[i-1] {
			t.Errorf("scratch scans %v entities to %s, fewer than %v to %s", scanned[i], e.Rows[i].X, scanned[i-1], e.Rows[i-1].X)
		}
	}
	last := len(scanned) - 1
	for _, name := range []string{"g:groups", "p:groups"} {
		if composed := series(t, e, name)[last]; composed >= scanned[last] {
			t.Errorf("%s to %s: the store composes %v groups, scratch scans %v entities", name, e.Rows[last].X, composed, scanned[last])
		}
	}
}

// TestFig11WorkShape: on DBLP a roll-up reads fewer source groups than
// scratch scans entities at every point, and on MovieLens a single
// attribute rolled up from a pair reads fewer source groups over the
// timeline than a pair rolled up from the 4-attribute apex — the order of
// Fig. 11's singles and pairs. Per point it reads no more: at ×0.05 the
// (rating, occupation) aggregate of June is as fine as the apex's, one
// group per entity.
func TestFig11WorkShape(t *testing.T) {
	e := Fig11("Fig. 11a", "dblp", dblp(), []string{"gender", "publications"}, [][]string{{"gender"}, {"publications"}})
	scanned, read := series(t, e, "entities"), series(t, e, "src groups")
	for i := range scanned {
		if read[i] >= scanned[i] {
			t.Errorf("%s at %s: roll-up reads %v groups, scratch scans %v entities", e.ID, e.Rows[i].X, read[i], scanned[i])
		}
	}

	g := movieLens()
	apex := series(t, Fig11MovieLensPairs(g), "src groups")
	for _, single := range Fig11MovieLensSingle(g) {
		var sum, apexSum float64
		for i, read := range series(t, single, "src groups") {
			if read > apex[i] {
				t.Errorf("%s at %s: the single reads %v source groups, a pair from the apex %v", single.ID, single.Rows[i].X, read, apex[i])
			}
			sum, apexSum = sum+read, apexSum+apex[i]
		}
		if sum >= apexSum {
			t.Errorf("%s: the single reads %v source groups over the timeline, a pair from the apex %v", single.ID, sum, apexSum)
		}
	}
}
