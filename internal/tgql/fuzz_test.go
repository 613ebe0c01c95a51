package tgql

import (
	"testing"

	"repro/internal/core"
)

// fuzzSeeds is FuzzExec's seed corpus; TestStatementsGolden records each
// seed's lowering, plan and answer.
var fuzzSeeds = []string{
	"STATS",
	"AGG DIST gender, publications ON UNION(t0, t1)",
	"AGG ALL gender ON PROJECT t0..t2 WHERE publications > 2",
	"AGG DIST gender ON POINT t0 MEASURE AVG(publications)",
	"EVOLVE DIST gender FROM t0 TO t1 WHERE publications = 3",
	"EXPLORE STABILITY BY gender EDGE 'f' -> 'f' SEMANTICS INTERSECTION EXTEND NEW K 1",
	"EXPLORE GROWTH BY gender TUNE 2",
	"TOP 3 SHRINKAGE BY gender",
	"AGG DIST gender ON UNION(t0, '",
	"agg dist gender on point t0 where gender != 'f' and publications <= 2",
	// Failure shapes the HTTP /v1/tgql endpoint sees: multi-line bodies,
	// unknown points/attributes, bad thresholds, stray operators.
	"AGG DIST gender\nON POINT t9",
	"AGG DIST nope,\n  gender ON POINT t0",
	"EXPLORE STABILITY BY gender K 0",
	"EXPLORE STABILITY BY gender EDGE 'zz' -> 'f' K 1",
	"AGG DIST gender ON POINT t0 MEASURE AVG(nope)",
	"AGG DIST gender ON PROJECT t2..t0",
	"AGG DIST gender ON POINT t0 - t1",
	"TIMELINE BY gender WHERE publications >= bogus",
	"COARSEN 0",
	"\n\n  STATS  \n",
	// Bi-temporal clauses: well-formed, reordered, duplicated, truncated,
	// and unservable (plain Exec has no transaction log to travel on).
	"AGG DIST gender ON POINT t0 AS OF 2",
	"AGG DIST gender ON POINT t0 VALID DURING t0..t1",
	"AGG DIST gender ON POINT t0 VALID DURING t0..t1 AS OF 3",
	"EVOLVE DIST gender FROM t0 TO t1 AS OF 1 VALID DURING t0..t2",
	"EXPLORE GROWTH BY gender TUNE 2 AS OF 9999999",
	"TOP 3 SHRINKAGE BY gender VALID DURING t2..t0",
	"TIMELINE BY gender AS OF -1",
	"AGG DIST gender ON POINT t0 AS OF 1 AS OF 2",
	"AGG DIST gender ON POINT t0 VALID DURING",
	"AGG DIST gender ON POINT t0 AS OF",
	"AGG DIST gender ON POINT t0 AS OF t0",
	"AGG DIST gender ON POINT t0 VALID DURING t0 VALID DURING t1",
	// Evolution-analytics statements: well-formed, clause-reordered,
	// truncated, and with unresolvable operands.
	"EVENTS DIST BY gender WIDTH 1",
	"EVENTS ALL BY gender, publications WIDTH 2 MIN 1 WHERE publications > 1",
	"EVENTS DIST BY gender MIN 1 WIDTH 2 AS OF 2 VALID DURING t0..t1",
	"EVENTS DIST BY gender WIDTH",
	"EVENTS DIST BY gender WIDTH -1",
	"EVENTS DIST BY nope",
	"PATHS EARLIEST FROM u1 TO u2, u4",
	"PATHS FASTEST FROM u1, u3 TO u5 DURING t0..t2",
	"PATHS FASTEST FROM u1 TO u2 DURING t0..t1 VALID DURING t0..t1 AS OF 1",
	"PATHS SCENIC FROM u1 TO u2",
	"PATHS EARLIEST FROM u9 TO u2",
	"PATHS EARLIEST FROM u1 TO",
	"PATHS EARLIEST FROM u1 TO u2 DURING t9",
	"TREND ALL BY gender WIDTH 2",
	"TREND DIST BY gender WHERE publications >= 1 WIDTH 3",
	"TREND DIST BY gender WIDTH 99",
	"TREND SUM BY gender",
	"EXPLAIN EVENTS DIST BY gender WIDTH 1",
	"EXPLAIN PATHS FASTEST FROM u1 TO u2",
	"EXPLAIN TREND ALL BY gender",
	// Empty time-point labels, which must not read as an absent clause.
	"AGG DIST gender ON POINT t0 VALID DURING ''",
	"PATHS EARLIEST FROM u1 TO u2 DURING ''",
	"AGG DIST gender ON POINT ''",
	"AGG DIST gender ON PROJECT t0..''",
	"EVOLVE DIST gender FROM '' TO t1",
	// Grammar corners: repeated optional clauses (the last one wins),
	// integer arguments, plan-less statements under EXPLAIN.
	"EXPLORE STABILITY BY gender K 2 NODE 'f' EDGE 'f' -> 'm' K 3 SEMANTICS UNION",
	"EVENTS DIST BY gender WHERE gender = f WHERE publications > 1 MIN 0",
	"TREND ALL BY gender WIDTH 1 WIDTH 2 AS OF 1",
	"AGG DIST gender ON POINT t0 MEASURE sum(publications) VALID DURING t0..t1",
	"TOP '2' GROWTH BY gender",
	"EXPLORE GROWTH BY gender K 2x",
	"COARSEN 99999999999999999999",
	"EXPLAIN STATS",
	"EXPLAIN COARSEN 2",
	"EXPLAIN",
	"EXPLAIN EXPLAIN STATS",
}

// FuzzExec throws arbitrary statements at the parser and executor: every
// input must either produce a result or an error, never a panic.
func FuzzExec(f *testing.F) {
	for _, q := range fuzzSeeds {
		f.Add(q)
	}

	g := core.PaperExample()
	f.Fuzz(func(t *testing.T, query string) {
		res, err := Exec(g, query)
		if err == nil && res == nil {
			t.Fatal("nil result without error")
		}
		if err == nil {
			_ = res.String() // rendering must not panic either
		}
	})
}
