package plan_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/materialize"
	"repro/internal/plan"
	"repro/internal/tgql"
)

var update = flag.Bool("update", false, "rewrite the golden plan files")

// TestExplainGolden pins the full Explain rendering — canonical logical
// text, selected physical operators, and their attributes — for one query
// of every statement family on the fixed paper-example graph. The goldens
// are the contract that EXPLAIN names the chosen kernel, explore engine
// and materialization source; regenerate with `go test -run Golden -update`.
func TestExplainGolden(t *testing.T) {
	g := core.PaperExample()

	cases := []struct {
		name    string
		query   string
		catalog bool
	}{
		{name: "agg_union_all_catalog", query: "AGG ALL gender ON UNION(t0, t1)", catalog: true},
		{name: "agg_union_all_direct", query: "AGG ALL gender ON UNION(t0, t1)"},
		{name: "agg_dist_project", query: "agg dist gender on point t0"},
		{name: "agg_filtered", query: "AGG DIST gender, publications ON PROJECT t0..t2 WHERE publications > 2"},
		{name: "agg_measure", query: "AGG DIST gender ON INTERSECT(t0, t1) MEASURE AVG(publications)"},
		{name: "explore_fast", query: "EXPLORE STABILITY BY gender K 2"},
		{name: "explore_tuned", query: "EXPLORE GROWTH BY gender TUNE 1"},
		{name: "top", query: "TOP 3 SHRINKAGE BY gender"},
		{name: "evolve", query: "EXPLAIN EVOLVE DIST gender FROM t0 TO t1"},
		{name: "timeline", query: "TIMELINE BY gender WHERE gender = 'f'"},
		{name: "events_sweep", query: "EVENTS DIST BY gender WIDTH 1 MIN 1"},
		{name: "paths_frontier", query: "PATHS EARLIEST FROM u1 TO u2, u4"},
		{name: "trend_catalog", query: "TREND ALL BY gender WIDTH 2", catalog: true},
		{name: "trend_scan", query: "TREND DIST BY gender WHERE publications > 1"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			env := plan.Env{Graph: g}
			if c.catalog {
				// A fresh catalog per compile keeps the source hint
				// deterministic (nothing materialized yet → scratch).
				env.Catalog = materialize.NewCatalogWith(env.Graph, materialize.CatalogConfig{})
			}
			p, err := tgql.PlanEnv(env, c.query)
			if err != nil {
				t.Fatal(err)
			}
			got := p.Explain()
			path := filepath.Join("testdata", c.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if got != string(want) {
				t.Errorf("plan mismatch for %q\n got:\n%s\nwant:\n%s", c.query, got, want)
			}
		})
	}
}

// TestExplainNamesDecisions spot-checks the acceptance contract without
// goldens: the rendering names the kernel, the engine, and the source.
func TestExplainNamesDecisions(t *testing.T) {
	g := core.PaperExample()
	cat := materialize.NewCatalogWith(g, materialize.CatalogConfig{})

	out, err := tgql.PlanEnv(plan.Env{Graph: g, Catalog: cat}, "AGG ALL gender ON UNION(t0, t1)")
	if err != nil {
		t.Fatal(err)
	}
	if s := out.Explain(); !strings.Contains(s, "CatalogUnionAll") || !strings.Contains(s, "source-hint=") {
		t.Errorf("catalog plan does not name the materialization source:\n%s", s)
	}

	out, err = tgql.PlanEnv(plan.Env{Graph: g}, "AGG DIST gender ON UNION(t0, t1)")
	if err != nil {
		t.Fatal(err)
	}
	if s := out.Explain(); !strings.Contains(s, "mode=serial") {
		t.Errorf("aggregate plan does not name the execution mode:\n%s", s)
	}

	out, err = tgql.PlanEnv(plan.Env{Graph: g}, "EXPLORE GROWTH BY gender K 2")
	if err != nil {
		t.Fatal(err)
	}
	if s := out.Explain(); !strings.Contains(s, "engine=incremental-views") {
		t.Errorf("explore plan does not name the engine:\n%s", s)
	}
}

// TestExplainStatement checks the TGQL EXPLAIN prefix end to end: the
// result carries the rendering and executes nothing.
func TestExplainStatement(t *testing.T) {
	g := core.PaperExample()
	res, err := tgql.Exec(g, "EXPLAIN AGG DIST gender ON UNION(t0, t1)")
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg != nil {
		t.Fatalf("EXPLAIN executed the statement: %+v", res)
	}
	if !strings.HasPrefix(res.Explain, "plan: AGG DIST gender ON UNION(t0, t1)") {
		t.Errorf("unexpected EXPLAIN text:\n%s", res.Explain)
	}
	if res.String() != res.Explain {
		t.Errorf("Result.String() should render the plan, got:\n%s", res.String())
	}
	if _, err := tgql.Exec(g, "EXPLAIN STATS"); err == nil {
		t.Error("EXPLAIN STATS should fail (no query plan)")
	}
}
