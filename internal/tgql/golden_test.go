package tgql

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/statements.golden")

// goldenStatements are the front end's statements beyond the fuzz seeds:
// every statement the package's other tests send, the examples of
// docs/TGQL.md, and the statement shapes the benchmark schedules send,
// instantiated on the paper example's labels.
var goldenStatements = []string{
	// Unit tests.
	"",
	"FROBNICATE",
	"not a query",
	"agg all gender, publications on union(t0, t1)",
	"AGG DIST gender ON POINT t0",
	"AGG DIST gender ON PROJECT t0..t1",
	"AGG DIST gender ON INTERSECT(t0, t1)",
	"AGG DIST gender ON DIFF(t0, t1)",
	"AGG ALL gender ON UNION(t0, t2) WHERE publications > 2",
	"AGG ALL gender ON INTERSECT(t0, t2)",
	"AGG DIST gender ON POINT t0 WHERE gender = 'f'",
	"AGG DIST gender ON POINT t0 WHERE gender = f AND publications >= 2",
	"AGG gender ON POINT t0",
	"AGG DIST ON POINT t0",
	"AGG DIST gender POINT t0",
	"AGG DIST gender ON BOGUS t0",
	"AGG DIST gender ON UNION(t0 t1)",
	"AGG DIST gender ON UNION(t0, t1",
	"AGG DIST gender ON POINT t9",
	"AGG DIST nope ON POINT t0",
	"AGG DIST gender ON POINT t0 WHERE nope = 1",
	"AGG DIST gender ON POINT t0 WHERE gender < f",
	"AGG DIST gender ON POINT t0 WHERE gender < 'f'",
	"AGG DIST gender ON POINT t0 WHERE",
	"AGG DIST gender ON POINT t0 WHERE gender =",
	"AGG DIST gender ON POINT t0 WHERE gender = 'f' trailing",
	"AGG DIST gender ON POINT t0 WHERE publications > four",
	"AGG DIST gender ON POINT t0 MEASURE AVG publications",
	"AGG DIST gender ON POINT t0 MEASURE MEDIAN(x)",
	"AGG DIST gender ON POINT t0 WHERE gender = f MEASURE AVG(publications)",
	"AGG DIST gender ON POINT t0 trailing",
	"AGG DIST gender ON POINT 't0' WHERE gender ! f",
	"AGG DIST gender ON POINT t0 WHERE gender = 'f",
	"AGG DIST gender ON POINT t0 . t1",
	`AGG DIST gender ON UNION("t0", 't1'..'t2')`,
	"AGG DIST gender ON UNION(t0, t1)",
	"AGG DIST gender ON UNION(t0, t1) AS OF 2",
	"AGG DIST gender ON POINT t0 AS OF 1",
	"AGG DIST gender ON POINT t0 VALID DURING t0..t1 AS OF 2",
	"AGG ALL gender ON UNION(t0, t1) VALID DURING t0..t1",
	"AGG DIST gender ON POINT t0 AS OF 2 VALID DURING t0..t1",
	"AGG DIST gender ON POINT t2 AS OF 2",
	"AGG DIST gender ON POINT t0 AS OF 0",
	"AGG DIST gender ON POINT t0 AS OF x",
	"AGG DIST gender ON POINT t0 VALID",
	"AGG DIST gender ON POINT t0 AS 3",
	"AGG DIST gender ON POINT t0 VALID DURING t8..t9",
	"AGG DIST gender ON POINT t1 VALID DURING t1..t2",
	"AGG DIST gender ON POINT t1",
	"AGG DIST gender ON POINT t0 VALID DURING t1..t2",
	"EVOLVE DIST gender, publications FROM t0 TO t1",
	"EVOLVE DIST gender FROM t0 TO t1",
	"EVOLVE DIST gender FROM t0",
	"EVOLVE DIST gender FROM t0 TO t1 AS OF 2",
	"EXPLORE STABILITY BY gender K 2",
	"EXPLORE GROWTH BY gender",
	"EXPLORE SHRINKAGE BY gender EXTEND OLD TUNE 1",
	"EXPLORE STABILITY BY gender NODE 'f' K 2",
	"EXPLORE STABILITY BY gender EDGE 'f' 'f'",
	"EXPLORE STABILITY BY gender TUNE x",
	"EXPLORE WOBBLE BY gender",
	"EXPLORE STABILITY BY gender SEMANTICS SIDEWAYS",
	"EXPLORE GROWTH BY gender K 1 AS OF 2",
	"TOP 2 GROWTH BY gender",
	"TOP 0 GROWTH BY gender",
	"TOP x GROWTH BY gender",
	"TOP 2 WOBBLE BY gender",
	"TOP 2 GROWTH gender",
	"TOP 2 GROWTH BY nope",
	"TOP 2 GROWTH BY gender AS OF 2",
	"TIMELINE BY gender",
	"TIMELINE BY gender WHERE publications = 1",
	"TIMELINE gender",
	"TIMELINE BY nope",
	"TIMELINE BY gender VALID DURING t0..t1 AS OF 3",
	"COARSEN 2",
	"COARSEN x",
	"COARSEN 2 trailing",
	"EVENTS DIST BY gender WIDTH 1 MIN 100",
	"EVENTS SUM BY gender",
	"EVENTS DIST gender",
	"EVENTS DIST BY gender WIDTH zero",
	"EVENTS DIST BY gender MIN lots",
	"EVENTS DIST",
	"events all by gender width 2 min 1",
	"PATHS FASTEST FROM u1 TO u4 DURING t0..t1",
	"PATHS EARLIEST FROM u1 TO u9",
	"TREND DIST BY gender VALID DURING t0..t0",
	"TREND DIST BY nope",
	"TREND DIST BY gender WIDTH 0",
	"EXPLAIN EVENTS DIST BY gender WIDTH 2",
	"EXPLAIN PATHS EARLIEST FROM u1 TO u2",
	"EXPLAIN PATHS FASTEST FROM u1 TO u2 DURING t0..t1",
	"EXPLAIN TREND DIST BY gender",

	// docs/TGQL.md and the package comment.
	"AGG ALL  gender, publications ON UNION(t0, t1)",
	"AGG ALL  gender ON PROJECT 2000..2005 WHERE publications > 4",
	"AGG ALL gender ON PROJECT t0..t2 VALID DURING t0..t1",
	"EVOLVE DIST gender FROM 2000..2009 TO 2010 WHERE publications > 4",
	"EVOLVE DIST gender FROM t0 TO t1 AS OF 3 VALID DURING t0..t2",
	"EXPLORE STABILITY BY gender EDGE 'f' -> 'f' SEMANTICS INTERSECTION EXTEND NEW K 62",
	"EXPLORE STABILITY BY gender EDGE 'f' -> 'f'\n        SEMANTICS INTERSECTION EXTEND NEW K 62",
	"EXPLORE GROWTH    BY gender EDGE 'f' -> 'f' K 721",
	"EXPLORE SHRINKAGE BY gender EDGE 'f' -> 'f' EXTEND OLD K 1200",
	"EXPLORE GROWTH    BY gender TUNE 3",
	"EXPLORE GROWTH BY gender EDGE 'f' -> 'f' TUNE 3",
	"TOP 5 SHRINKAGE BY gender",
	"TIMELINE BY gender WHERE publications > 4",
	"EVENTS DIST BY gender",
	"EVENTS ALL BY gender WIDTH 2 MIN 1 WHERE publications > 2",
	"PATHS FASTEST FROM u1, u2 TO u5 DURING t1..t4",
	"TREND ALL BY gender WIDTH 3",
	"TREND DIST BY gender WHERE publications > 1",
	"EXPLAIN AGG ALL gender ON UNION(t0, t1)",

	// Benchmark schedule shapes.
	"AGG ALL gender ON UNION(t0, t1..t2)",
	"AGG ALL gender, publications ON UNION(t0, t1..t2)",
	"AGG ALL publications ON UNION(t1, t2)",
	"AGG ALL gender, publications ON UNION(t1, t2)",
	"AGG DIST gender, publications ON INTERSECT(t0..t2, t1..t2)",
	"AGG ALL publications ON DIFF(t1..t2, t0)",
	"TREND ALL BY gender",
	"TREND ALL BY publications",
	"TREND ALL BY publications WIDTH 3",
	"EVENTS ALL BY publications WIDTH 2",
	"EVENTS DIST BY gender, publications MIN 50",
	"PATHS EARLIEST FROM u1, u3, u5 TO u2, u4, u1, u3, u5, u2",
	"PATHS EARLIEST FROM u2, u4 TO u1, u3, u5, u5 DURING t0..t2",
	"EVOLVE DIST gender, publications FROM t0 TO t1..t2",
	"EVOLVE ALL gender FROM t0 TO t1..t2",
	"TOP 3 GROWTH BY gender",
	"TOP 3 SHRINKAGE BY gender",
}

// TestStatementsGolden pins what the front end makes of each statement on
// the paper example: the Lower error or the logical node's Key, the
// compiled plan's EXPLAIN (or its error), and the executed answer (or its
// error). Run with -update to rewrite the file.
func TestStatementsGolden(t *testing.T) {
	g := core.PaperExample()
	var b strings.Builder
	seen := map[string]bool{}
	for _, q := range append(append([]string(nil), fuzzSeeds...), goldenStatements...) {
		if seen[q] {
			continue
		}
		seen[q] = true
		fmt.Fprintf(&b, "=== %q\n-- lower\n", q)
		switch st, err := Lower(q); {
		case err != nil:
			fmt.Fprintf(&b, "error: %v\n", err)
		case st.Node == nil:
			fmt.Fprintf(&b, "no plan: %v\n", st.NoPlan)
		default:
			fmt.Fprintf(&b, "%s (explain=%v)\n", st.Node.Key(), st.Explain)
		}
		b.WriteString("-- explain\n")
		if p, err := PlanQuery(g, q); err != nil {
			fmt.Fprintf(&b, "error: %v\n", err)
		} else {
			b.WriteString(p.Explain())
		}
		b.WriteString("-- exec\n")
		if r, err := Exec(g, q); err != nil {
			fmt.Fprintf(&b, "error: %v\n", err)
		} else {
			b.WriteString(r.String())
		}
	}
	const path = "testdata/statements.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s differs at line %d:\n got %s\nwant %s\n(rerun with -update after checking the change)", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s differs in length: got %d lines, want %d", path, len(gl), len(wl))
	}
}
