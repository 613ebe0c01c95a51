package tgql

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func exec(t *testing.T, q string) *Result {
	t.Helper()
	r, err := Exec(core.PaperExample(), q)
	if err != nil {
		t.Fatalf("Exec(%q): %v", q, err)
	}
	return r
}

func execErr(t *testing.T, q string) error {
	t.Helper()
	_, err := Exec(core.PaperExample(), q)
	if err == nil {
		t.Fatalf("Exec(%q) should fail", q)
	}
	return err
}

func TestStats(t *testing.T) {
	r := exec(t, "STATS")
	if r.Stats == nil || len(r.Stats.Labels) != 3 {
		t.Fatalf("stats result = %+v", r)
	}
	if !strings.Contains(r.String(), "t0") {
		t.Errorf("rendering:\n%s", r)
	}
}

// TestAggFig3d runs the paper's headline example through the language.
func TestAggFig3d(t *testing.T) {
	r := exec(t, "AGG DIST gender, publications ON UNION(t0, t1)")
	if r.Agg == nil {
		t.Fatal("no aggregate result")
	}
	f1, ok := r.Agg.Schema.Encode("f", "1")
	if !ok || r.Agg.NodeWeight(f1) != 3 {
		t.Fatalf("w(f,1) = %d, want 3", r.Agg.NodeWeight(f1))
	}
	rAll := exec(t, "agg all gender, publications on union(t0, t1)") // case-insensitive
	if rAll.Agg.NodeWeight(f1) != 4 {
		t.Fatalf("ALL w(f,1) = %d, want 4", rAll.Agg.NodeWeight(f1))
	}
}

func TestAggOperators(t *testing.T) {
	if r := exec(t, "AGG DIST gender ON POINT t0"); r.Agg.TotalNodeWeight() != 4 {
		t.Errorf("POINT t0 total = %d, want 4", r.Agg.TotalNodeWeight())
	}
	if r := exec(t, "AGG DIST gender ON PROJECT t0..t1"); r.Agg.TotalNodeWeight() != 3 {
		t.Errorf("PROJECT total = %d, want 3 (u1,u2,u4)", r.Agg.TotalNodeWeight())
	}
	if r := exec(t, "AGG DIST gender ON INTERSECT(t0, t1)"); r.Agg.TotalEdgeWeight() != 2 {
		t.Errorf("INTERSECT edges = %d, want 2", r.Agg.TotalEdgeWeight())
	}
	if r := exec(t, "AGG DIST gender ON DIFF(t0, t1)"); r.Agg.TotalEdgeWeight() != 1 {
		t.Errorf("DIFF edges = %d, want 1", r.Agg.TotalEdgeWeight())
	}
}

func TestAggWhere(t *testing.T) {
	// Appearances with publications > 2: u1@t0 (3) and u5@t2 (3).
	r := exec(t, "AGG ALL gender ON PROJECT t0..t2 WHERE publications > 2")
	// PROJECT t0..t2 keeps nodes existing throughout: u2, u4 — neither
	// passes the filter.
	if r.Agg.TotalNodeWeight() != 0 {
		t.Errorf("filtered total = %d, want 0", r.Agg.TotalNodeWeight())
	}
	r2 := exec(t, "AGG ALL gender ON UNION(t0, t2) WHERE publications > 2")
	m, _ := r2.Agg.Schema.Encode("m")
	if r2.Agg.NodeWeight(m) != 2 {
		t.Errorf("w(m | pubs>2) = %d, want 2 (u1@t0, u5@t2)", r2.Agg.NodeWeight(m))
	}
	// String equality.
	r3 := exec(t, "AGG DIST gender ON POINT t0 WHERE gender = 'f'")
	f, _ := r3.Agg.Schema.Encode("f")
	if r3.Agg.NodeWeight(f) != 3 || r3.Agg.TotalNodeWeight() != 3 {
		t.Errorf("w(f) = %d / total %d, want 3 / 3", r3.Agg.NodeWeight(f), r3.Agg.TotalNodeWeight())
	}
	// AND conjunction.
	r4 := exec(t, "AGG DIST gender ON POINT t0 WHERE gender = f AND publications >= 2")
	if r4.Agg.TotalNodeWeight() != 1 {
		t.Errorf("conjunction total = %d, want 1 (u4)", r4.Agg.TotalNodeWeight())
	}
}

func TestAggMeasure(t *testing.T) {
	r := exec(t, "AGG DIST gender ON POINT t0 MEASURE AVG(publications)")
	if r.Measure == nil {
		t.Fatal("no measure result")
	}
	m, _ := r.Measure.Schema.Encode("m")
	if v, ok := r.Measure.Value(m); !ok || v != 3 {
		t.Errorf("AVG(m) = %v, want 3", v)
	}
	if !strings.Contains(r.String(), "AVG(publications)") {
		t.Errorf("rendering:\n%s", r)
	}
}

// TestEvolveFig4b runs the Fig. 4b example through the language.
func TestEvolveFig4b(t *testing.T) {
	r := exec(t, "EVOLVE DIST gender, publications FROM t0 TO t1")
	if r.Evolution == nil {
		t.Fatal("no evolution result")
	}
	f1, _ := r.Evolution.Schema.Encode("f", "1")
	w := r.Evolution.NodeWeights(f1)
	if w.St != 1 || w.Gr != 1 || w.Shr != 1 {
		t.Fatalf("weights(f,1) = %+v, want 1/1/1", w)
	}
}

func TestEvolveWhere(t *testing.T) {
	r := exec(t, "EVOLVE DIST gender FROM t0 TO t1 WHERE publications = 3")
	m, _ := r.Evolution.Schema.Encode("m")
	if w := r.Evolution.NodeWeights(m); w.Shr != 1 || w.St != 0 {
		t.Errorf("weights(m | pubs=3) = %+v, want Shr=1", w)
	}
}

func TestExplore(t *testing.T) {
	r := exec(t, "EXPLORE STABILITY BY gender K 2")
	if len(r.Pairs) != 1 || r.Pairs[0].Result != 2 || r.K != 2 {
		t.Fatalf("pairs = %v (k=%d)", r.Pairs, r.K)
	}
	// Edge target + intersection semantics.
	r2 := exec(t, "EXPLORE STABILITY BY gender EDGE 'f' -> 'f' SEMANTICS INTERSECTION EXTEND NEW K 1")
	if len(r2.Pairs) == 0 {
		t.Fatal("no pairs for f-f stability")
	}
	// Auto-k from §3.5.
	r3 := exec(t, "EXPLORE GROWTH BY gender")
	if r3.K < 1 {
		t.Errorf("auto k = %d", r3.K)
	}
	// TUNE.
	r4 := exec(t, "EXPLORE SHRINKAGE BY gender EXTEND OLD TUNE 1")
	if r4.K < 1 || len(r4.Pairs) < 1 {
		t.Errorf("tuned: k=%d pairs=%d", r4.K, len(r4.Pairs))
	}
	// Node target.
	r5 := exec(t, "EXPLORE STABILITY BY gender NODE 'f' K 2")
	if len(r5.Pairs) != 2 {
		t.Errorf("node-target pairs = %d, want 2", len(r5.Pairs))
	}
	if !strings.Contains(r5.String(), "pair(s)") {
		t.Errorf("rendering:\n%s", r5)
	}
}

func TestParseAndExecErrors(t *testing.T) {
	cases := []string{
		"",
		"FROBNICATE",
		"AGG gender ON POINT t0",                                  // missing kind
		"AGG DIST ON POINT t0",                                    // missing attrs... ON parses as attr; then missing ON
		"AGG DIST gender POINT t0",                                // missing ON
		"AGG DIST gender ON BOGUS t0",                             // unknown operator
		"AGG DIST gender ON UNION(t0 t1)",                         // missing comma
		"AGG DIST gender ON UNION(t0, t1",                         // missing paren
		"AGG DIST gender ON POINT t9",                             // unknown time point
		"AGG DIST nope ON POINT t0",                               // unknown attribute
		"AGG DIST gender ON POINT t0 WHERE nope = 1",              // unknown WHERE attribute
		"AGG DIST gender ON POINT t0 WHERE gender < f",            // non-numeric ordering
		"AGG DIST gender ON POINT t0 WHERE gender < 'f'",          // non-numeric ordering, quoted
		"AGG DIST gender ON POINT t0 WHERE",                       // empty predicate
		"AGG DIST gender ON POINT t0 WHERE gender =",              // missing value
		"AGG DIST gender ON POINT t0 WHERE gender = 'f' trailing", // trailing input after the predicate
		"AGG DIST gender ON POINT t0 MEASURE AVG publications",    // missing paren
		"AGG DIST gender ON POINT t0 MEASURE MEDIAN(x)",           // unknown fn
		"AGG DIST gender ON POINT t0 WHERE gender = f MEASURE AVG(publications)", // both
		"AGG DIST gender ON PROJECT t2..t0",                                      // backwards interval
		"AGG DIST gender ON POINT t0 trailing",                                   // trailing input
		"EVOLVE DIST gender FROM t0",                                             // missing TO
		"EXPLORE STABILITY BY gender EDGE 'f' 'f'",                               // missing arrow
		"EXPLORE STABILITY BY gender K 0",                                        // bad k
		"EXPLORE STABILITY BY gender TUNE x",                                     // bad tune
		"EXPLORE WOBBLE BY gender",                                               // unknown event
		"EXPLORE STABILITY BY gender SEMANTICS SIDEWAYS",                         // unknown semantics
		"EXPLORE STABILITY BY gender EDGE 'zz' -> 'f' K 1",                       // out-of-domain tuple
		"AGG DIST gender ON POINT 't0' WHERE gender ! f",                         // lone '!'
		"AGG DIST gender ON POINT t0 WHERE gender = 'f",                          // unterminated string
		"AGG DIST gender ON POINT t0 . t1",                                       // lone '.'
		"AGG DIST gender ON POINT t0 - t1",                                       // lone '-'
	}
	for _, q := range cases {
		execErr(t, q)
	}
}

// TestExplainAnalyzeParse pins the EXPLAIN ANALYZE grammar: ANALYZE is
// only a modifier of EXPLAIN, on statements that have a plan; the statement
// lowers to the node plain EXPLAIN does, and it runs.
func TestExplainAnalyzeParse(t *testing.T) {
	for _, c := range []struct{ q, err string }{
		{"EXPLAIN ANALYZE STATS", "has no query plan"},
		{"EXPLAIN ANALYZE COARSEN 2", "has no query plan"},
		{"ANALYZE AGG DIST gender ON POINT t0", `found "ANALYZE"`},
		{"EXPLAIN ANALYZE", "at end of input"},
		{"EXPLAIN ANALYZE ANALYZE AGG DIST gender ON POINT t0", `found "ANALYZE"`},
		{"ANALYZE EXPLAIN AGG DIST gender ON POINT t0", `found "ANALYZE"`},
	} {
		if err := execErr(t, c.q); !strings.Contains(err.Error(), c.err) {
			t.Errorf("Exec(%q) = %v, want an error containing %q", c.q, err, c.err)
		}
	}
	plain, err := Lower("EXPLAIN AGG DIST gender ON POINT t0")
	if err != nil {
		t.Fatal(err)
	}
	st, err := Lower("explain analyze AGG DIST gender ON POINT t0")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Explain || !st.Analyze || !st.Runs() || st.Node.Key() != plain.Node.Key() {
		t.Errorf("EXPLAIN ANALYZE lowered to %+v, want plain EXPLAIN's node, analyzed", st)
	}
	if plain.Analyze || plain.Runs() {
		t.Errorf("plain EXPLAIN lowered to %+v, want a compile-only statement", plain)
	}
}

// TestParseFilter pins the WHERE grammar: a conjunction of comparisons is
// evaluated per appearance, and malformed predicates are rejected.
func TestParseFilter(t *testing.T) {
	const where = " WHERE publications > 2 AND gender = 'm'"
	r0 := exec(t, "AGG DIST gender ON POINT t0"+where)
	m, _ := r0.Agg.Schema.Encode("m")
	if r0.Agg.NodeWeight(m) != 1 || r0.Agg.TotalNodeWeight() != 1 { // u1@t0: m, 3 publications; u2 is f
		t.Errorf("t0: w(m) = %d / total %d, want 1 / 1 (u1)", r0.Agg.NodeWeight(m), r0.Agg.TotalNodeWeight())
	}
	if r1 := exec(t, "AGG DIST gender ON POINT t1"+where); r1.Agg.TotalNodeWeight() != 0 { // u1@t1: 1 publication
		t.Errorf("t1: total = %d, want 0", r1.Agg.TotalNodeWeight())
	}
	for _, bad := range []string{"", "nope = 1", "gender < 'f'", "gender = 'f' trailing", "gender ="} {
		execErr(t, "AGG DIST gender ON POINT t0 WHERE "+bad)
	}
}

func TestTopQuery(t *testing.T) {
	r := exec(t, "TOP 2 GROWTH BY gender")
	if len(r.Top) != 2 {
		t.Fatalf("top = %d entries, want 2", len(r.Top))
	}
	if got := r.Top[0].Label(r.TopSchema); got != "(f)→(m)" || r.Top[0].Peak != 2 {
		t.Errorf("top[0] = %s peak %d, want (f)→(m) peak 2", got, r.Top[0].Peak)
	}
	if !strings.Contains(r.String(), "1. (f)→(m) peak 2") {
		t.Errorf("rendering:\n%s", r)
	}
	execErr(t, "TOP 0 GROWTH BY gender")
	execErr(t, "TOP x GROWTH BY gender")
	execErr(t, "TOP 2 WOBBLE BY gender")
	execErr(t, "TOP 2 GROWTH gender")
	execErr(t, "TOP 2 GROWTH BY nope")
}

func TestTimelineQuery(t *testing.T) {
	r := exec(t, "TIMELINE BY gender")
	if len(r.Timeline) != 2 {
		t.Fatalf("timeline = %d steps, want 2", len(r.Timeline))
	}
	if r.Timeline[0].NodeSt != 3 || r.Timeline[0].NodeShr != 1 {
		t.Errorf("step0 = %+v", r.Timeline[0])
	}
	if !strings.Contains(r.String(), "t0→t1") {
		t.Errorf("rendering:\n%s", r)
	}
	rf := exec(t, "TIMELINE BY gender WHERE publications = 1")
	if rf.Timeline[0].NodeSt >= r.Timeline[0].NodeSt+1 {
		t.Errorf("filtered timeline should not exceed unfiltered")
	}
	execErr(t, "TIMELINE gender")
	execErr(t, "TIMELINE BY nope")
}

func TestCoarsenQuery(t *testing.T) {
	r := exec(t, "COARSEN 2")
	if r.Coarse == nil || r.Coarse.Timeline().Len() != 2 {
		t.Fatalf("coarse result = %+v", r.Coarse)
	}
	if !strings.Contains(r.String(), "t0..t1") {
		t.Errorf("rendering:\n%s", r)
	}
	execErr(t, "COARSEN 0")
	execErr(t, "COARSEN x")
	execErr(t, "COARSEN 2 trailing")
}

func TestQuotedValuesAndRanges(t *testing.T) {
	r := exec(t, `AGG DIST gender ON UNION("t0", 't1'..'t2')`)
	if r.Agg.TotalNodeWeight() == 0 {
		t.Error("quoted labels should resolve")
	}
}
