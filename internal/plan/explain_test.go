package plan_test

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/materialize"
	"repro/internal/ops"
	"repro/internal/plan"
	"repro/internal/tgql"
	"repro/internal/timeline"
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

// TestExplainAnalyze runs EXPLAIN ANALYZE through the TGQL front end: the
// plan executes, and the rendering is plain EXPLAIN's tree (taken after the
// run, so the catalog's live hint agrees) with the root's measurements
// appended — wall time, output cardinality and, for the catalog operator,
// the source that answered.
func TestExplainAnalyze(t *testing.T) {
	g := core.PaperExample()
	env := plan.Env{Graph: g, Catalog: materialize.NewCatalogWith(g, materialize.CatalogConfig{})}
	for _, c := range []struct{ query, measured string }{
		{"AGG ALL gender ON UNION(t0, t1)", `, actual_us=\d+, rows=4, source=scratch\)`},
		{"AGG DIST gender ON UNION(t0, t1)", `, actual_us=\d+, rows=4\)`},
		{"EXPLORE STABILITY BY gender K 2", `, actual_us=\d+, rows=\d+\)`},
		{"TIMELINE BY gender", `, actual_us=\d+, rows=2\)`},
	} {
		res, err := tgql.ExecEnv(context.Background(), env, "EXPLAIN ANALYZE "+c.query)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := tgql.ExecEnv(context.Background(), env, "EXPLAIN "+c.query)
		if err != nil {
			t.Fatal(err)
		}
		root := regexp.MustCompile(c.measured)
		if !root.MatchString(res.Explain) {
			t.Errorf("%s: root line lacks %s:\n%s", c.query, c.measured, res.Explain)
		}
		if got := root.ReplaceAllString(res.Explain, ")"); got != plain.Explain {
			t.Errorf("%s: EXPLAIN ANALYZE tree\n%s\ndiffers from EXPLAIN\n%s", c.query, got, plain.Explain)
		}
	}
}

// TestViewAggregateModeAtCrossover pins the parallel crossover on both
// sides: a view one entity below agg.ParallelMinEntities renders
// mode=serial, one at it renders mode=parallel, and both answer exactly as
// the map oracle does.
func TestViewAggregateModeAtCrossover(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a graph of agg.ParallelMinEntities entities")
	}
	// n nodes live at t0 and t1 on a ring of n edges; the ring's first edge
	// is missing at t0, so t1 selects 2n entities and t0 one fewer.
	n := agg.ParallelMinEntities() / 2
	tl := timeline.MustNew("t0", "t1")
	b := core.NewBuilder(tl, core.AttrSpec{Name: "team", Kind: core.Static})
	for i := 0; i < n; i++ {
		id := b.AddNode("n" + strconv.Itoa(i))
		b.SetNodeTime(id, 0)
		b.SetNodeTime(id, 1)
		b.SetStatic(0, id, strconv.Itoa(i%5))
	}
	for i := 0; i < n; i++ {
		e := b.AddEdge(core.NodeID(i), core.NodeID((i+1)%n))
		if i > 0 {
			b.SetEdgeTime(e, 0)
		}
		b.SetEdgeTime(e, 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	schema, err := agg.ByName(g, "team")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		point, mode string
		t           timeline.Time
		entities    int
	}{
		{"t0", "serial", 0, 2*n - 1},
		{"t1", "parallel", 1, 2 * n},
	} {
		for _, kind := range []struct {
			name string
			k    agg.Kind
		}{{"dist", agg.Distinct}, {"all", agg.All}} {
			node := &plan.Aggregate{
				Op:    plan.TemporalOp{Op: plan.OpProject, A: plan.IntervalRef{From: c.point}},
				Attrs: []string{"team"},
				Kind:  kind.name,
			}
			p, err := plan.Compile(plan.Env{Graph: g}, node)
			if err != nil {
				t.Fatal(err)
			}
			if s := p.Explain(); !strings.Contains(s, "mode="+c.mode) {
				t.Errorf("%d entities: want mode=%s:\n%s", c.entities, c.mode, s)
			}
			res, err := p.Execute(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			v := ops.Project(g, tl.Point(c.t))
			if v.NumNodes()+v.NumEdges() != c.entities {
				t.Fatalf("%s selects %d entities, want %d", c.point, v.NumNodes()+v.NumEdges(), c.entities)
			}
			if got, want := mustJSON(t, res.Agg), mustJSON(t, agg.AggregateMap(v, schema, kind.k)); got != want {
				t.Errorf("%s %s (mode=%s) differs from the map oracle", c.point, kind.name, c.mode)
			}
		}
	}
}
