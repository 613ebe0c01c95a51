package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/evolution"
	"repro/internal/ops"
	"repro/internal/tgql"
	"repro/internal/timeline"
)

// runQuery drives the command line "graphtempo query -dataset example
// args..." with stdin and returns what it printed.
func runQuery(t *testing.T, stdin string, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(append([]string{"query", "-dataset", "example"}, args...), strings.NewReader(stdin), &out)
	return out.String(), err
}

// TestStatementsPrintExecBytes checks that the CLI prints exactly what the
// library renders for the statement form of each subcommand the CLI used to
// parse flags for (stats, agg -measure, evolution, explore -edge -tune,
// timeline -where, coarsen -width).
func TestStatementsPrintExecBytes(t *testing.T) {
	g := core.PaperExample()
	for _, stmt := range []string{
		"STATS",
		"AGG DIST gender ON UNION(t0, t1) MEASURE AVG(publications)",
		"AGG ALL gender, publications ON DIFF(t0..t1, t2)",
		"EVOLVE DIST gender FROM t0 TO t1",
		"EXPLORE STABILITY BY gender EDGE f -> f TUNE 1",
		"TIMELINE BY gender WHERE publications > 1",
		"COARSEN 2",
	} {
		res, err := tgql.Exec(g, stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		got, err := runQuery(t, "", "-q", stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		if want := res.String(); got != want {
			t.Errorf("%s printed\n%s\nwant\n%s", stmt, got, want)
		}
	}
}

// TestFormatEncoders checks -format json and dot against the JSON encoder
// (two-space indent) and the DOT writer applied to the library's answer.
func TestFormatEncoders(t *testing.T) {
	g := core.PaperExample()
	tl := g.Timeline()
	s := agg.MustSchema(g, g.MustAttr("gender"), g.MustAttr("publications"))
	ag := agg.Aggregate(ops.Union(g, tl.Point(0), tl.Point(1)), s, agg.Distinct)
	ev := evolution.Aggregate(g, tl.Point(0), tl.Point(1), s, agg.Distinct, nil)
	encode := func(v any) string {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	render := func(write func(*bytes.Buffer) error) string {
		var b bytes.Buffer
		if err := write(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	const (
		aggStmt    = "AGG DIST gender, publications ON UNION(t0, t1)"
		evolveStmt = "EVOLVE DIST gender, publications FROM t0 TO t1"
	)
	for _, c := range []struct{ format, stmt, want string }{
		{"json", aggStmt, encode(ag)},
		{"json", evolveStmt, encode(ev)},
		{"dot", aggStmt, render(func(b *bytes.Buffer) error { return dot.WriteAggregate(b, ag) })},
		{"dot", evolveStmt, render(func(b *bytes.Buffer) error { return dot.WriteEvolution(b, ev) })},
	} {
		got, err := runQuery(t, "", "-format", c.format, "-q", c.stmt)
		if err != nil {
			t.Fatalf("-format %s %s: %v", c.format, c.stmt, err)
		}
		if got != c.want {
			t.Errorf("-format %s %s printed\n%s\nwant\n%s", c.format, c.stmt, got, c.want)
		}
	}
}

// TestFormatRejectsOtherResults: only AGG and EVOLVE results have a JSON
// and a DOT form.
func TestFormatRejectsOtherResults(t *testing.T) {
	for _, format := range []string{"json", "dot"} {
		if out, err := runQuery(t, "", "-format", format, "-q", "STATS"); err == nil {
			t.Errorf("-format %s on STATS printed %q, want an error", format, out)
		}
	}
	if _, err := runQuery(t, "", "-format", "xml", "-q", "STATS"); !errors.Is(err, errUsage) {
		t.Errorf("-format xml = %v, want a usage error", err)
	}
}

// TestQueryRejectsPositionalArgs: a statement passed without -q is a usage
// error, not silently dropped on the way into the REPL; so is a -scale the
// generators cannot honour.
func TestQueryRejectsPositionalArgs(t *testing.T) {
	if out, err := runQuery(t, "", "STATS"); !errors.Is(err, errUsage) || out != "" {
		t.Fatalf("query STATS = %q, %v; want a usage error and no output", out, err)
	}
	for _, args := range [][]string{nil, {"stats"}, {"query", "-dataset", "dblp", "-scale", "NaN", "-q", "STATS"}} {
		if err := run(args, strings.NewReader(""), new(bytes.Buffer)); !errors.Is(err, errUsage) {
			t.Errorf("run(%q) = %v, want a usage error", args, err)
		}
	}
}

// TestREPL runs statements from stdin until "exit"; a failing statement
// prints its error and the loop goes on.
func TestREPL(t *testing.T) {
	out, err := runQuery(t, "AGG DIST nope ON POINT t0\nSTATS\nexit\nSTATS\n")
	if err != nil {
		t.Fatal(err)
	}
	stats, _ := tgql.Exec(core.PaperExample(), "STATS")
	if !strings.Contains(out, "example: AGG DIST gender ON POINT t0\n") ||
		!strings.Contains(out, "  error: ") ||
		strings.Count(out, stats.String()) != 1 {
		t.Fatalf("REPL printed\n%s", out)
	}
}

// TestREPLOnePointGraph: the banner's example statement is built from what
// the loaded graph has, so a one-point graph without a gender attribute
// starts the shell instead of panicking.
func TestREPLOnePointGraph(t *testing.T) {
	tl, err := timeline.New("2024")
	if err != nil {
		t.Fatal(err)
	}
	b := core.NewBuilder(tl, core.AttrSpec{Name: "team", Kind: core.Static})
	n := b.AddNode("alice")
	b.SetNodeTime(n, 0)
	b.SetStatic(0, n, "core")
	dir := t.TempDir()
	if err := core.WriteDir(b.MustBuild(), dir); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"query", "-data", dir}, strings.NewReader("exit\n"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "example: AGG DIST team ON POINT 2024\n") {
		t.Fatalf("banner:\n%s", out.String())
	}
}

func TestGraphFlagsLoad(t *testing.T) {
	ex := "example"
	empty := ""
	scale := 0.01
	seed := int64(1)
	gf := graphFlags{data: &empty, dataset: &ex, scale: &scale, seed: &seed}
	g, err := gf.load()
	if err != nil || g.NumNodes() != 5 {
		t.Errorf("load example: %v, %v", g, err)
	}
	bogus := "bogus"
	gf.dataset = &bogus
	if _, err := gf.load(); err == nil {
		t.Error("unknown dataset should fail")
	}
	gf.dataset = &empty
	if _, err := gf.load(); err == nil {
		t.Error("no source should fail")
	}
}
