package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/materialize"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/tgql"
)

// goldenStatements reads every statement the TGQL front end's golden file
// pins, in its order.
func goldenStatements(t *testing.T) []string {
	t.Helper()
	f, err := os.Open("../tgql/testdata/statements.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "=== "); ok {
			q, err := strconv.Unquote(rest)
			if err != nil {
				t.Fatalf("golden header %s: %v", rest, err)
			}
			out = append(out, q)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// facadeResolver is the library-side plan.HistoryResolver over a stream
// series, with the daemon's semantics: the head is the live state, and each
// earlier transaction or valid-time window gets its own catalog and plan
// cache, built once.
type facadeResolver struct {
	series *stream.Series
	head   *plan.State
	states map[string]*plan.State
}

func (r *facadeResolver) state(key string, build func() (*core.Graph, error)) (*plan.State, error) {
	if st, ok := r.states[key]; ok {
		return st, nil
	}
	g, err := build()
	if err != nil {
		return nil, err
	}
	st := plan.NewState(g, materialize.NewCatalog(g), 0)
	r.states[key] = st
	return st, nil
}

func (r *facadeResolver) StateAt(txn int) (*plan.State, error) {
	head := r.series.Txn()
	if txn == 0 || txn == head {
		return r.head, nil
	}
	if txn < 1 || txn > head {
		return nil, fmt.Errorf("transaction %d is out of range [1, %d]", txn, head)
	}
	return r.state("txn="+strconv.Itoa(txn), func() (*core.Graph, error) { return r.series.ReplayTo(txn) })
}

func (r *facadeResolver) WindowAt(txn, from, to int) (*plan.State, error) {
	if txn == 0 {
		txn = r.series.Txn()
	}
	return r.state(fmt.Sprintf("txn=%d|valid=%d-%d", txn, from, to), func() (*core.Graph, error) {
		base, err := r.StateAt(txn)
		if err != nil {
			return nil, err
		}
		return core.Window(base.Graph, from, to)
	})
}

// facadeEnv is the library's environment over the same points the daemons
// ingested: a catalog, a plan cache and a transaction log to travel on.
func facadeEnv(t *testing.T, pts []server.IngestRequest) plan.Env {
	t.Helper()
	series := stream.New(attrsFor()...)
	for _, p := range pts {
		snap := stream.Snapshot{}
		for _, n := range p.Nodes {
			snap.Nodes = append(snap.Nodes, stream.NodeRecord{Label: n.Label, Static: n.Static, Varying: n.Varying})
		}
		for _, e := range p.Edges {
			snap.Edges = append(snap.Edges, stream.EdgeRecord{U: e.U, V: e.V})
		}
		if _, err := series.AppendAt(p.Label, snap, p.Before); err != nil {
			t.Fatal(err)
		}
	}
	g, err := series.Graph()
	if err != nil {
		t.Fatal(err)
	}
	head := plan.NewState(g, materialize.NewCatalog(g), series.Len())
	return plan.Env{Graph: g, Catalog: head.Catalog, Cache: head.Plans,
		History: &facadeResolver{series: series, head: head, states: map[string]*plan.State{}}}
}

// tgqlOutcome posts a statement to base's /v1/tgql and renders the outcome
// as the facade's is rendered: the text, or the error message.
func tgqlOutcome(t *testing.T, base, query string) string {
	t.Helper()
	code, data, _ := postJSON(t, base+"/v1/tgql", server.TGQLRequest{Query: query})
	if code != 200 {
		var eb struct{ Error server.ErrorDetail }
		if err := json.Unmarshal(data, &eb); err != nil {
			t.Fatalf("%q: status %d, body %s", query, code, data)
		}
		return "error: " + eb.Error.Message
	}
	var resp server.TGQLResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Text
}

// TestExplainAnalyzeAgreesAcrossSurfaces runs EXPLAIN ANALYZE of every
// golden statement through the library (tgql.ExecEnv), a daemon's
// /v1/tgql and the router, each fed the same statements in the same order:
// the three renderings are identical once the measured wall time is
// stripped, and each successful one is plain EXPLAIN's tree with the
// root's measurements appended.
func TestExplainAnalyzeAgreesAcrossSurfaces(t *testing.T) {
	pts := testPoints()
	routerURL, refURL, _ := startCluster(t, 3)
	env := facadeEnv(t, pts)
	wallTime := regexp.MustCompile(`actual_us=\d+`)
	measured := regexp.MustCompile(`, actual_us=\d+, rows=\d+(, source=[a-z-]+)?\)\n`)
	stmts, ran, sourced := goldenStatements(t), 0, 0
	for _, stmt := range stmts {
		if after, ok := strings.CutPrefix(stmt, "EXPLAIN "); ok {
			stmt = after
		}
		q := "EXPLAIN ANALYZE " + stmt
		var lib string
		res, err := tgql.ExecEnv(context.Background(), env, q)
		if err != nil {
			lib = "error: " + err.Error()
		} else {
			lib = res.String()
			plain, err := tgql.ExecEnv(context.Background(), env, "EXPLAIN "+stmt)
			if err != nil {
				t.Fatalf("%q analyzed but EXPLAIN fails: %v", stmt, err)
			}
			if n := len(measured.FindAllString(lib, -1)); n != 1 {
				t.Errorf("%q: %d measured operator lines, want the root's alone:\n%s", stmt, n, lib)
			}
			if tree := measured.ReplaceAllString(lib, ")\n"); tree != plain.String() {
				t.Errorf("%q: EXPLAIN ANALYZE tree\n%s\ndiffers from EXPLAIN\n%s", stmt, tree, plain)
			}
			ran++
			if strings.Contains(lib, ", source=") {
				sourced++
			}
		}
		lib = wallTime.ReplaceAllString(lib, "actual_us=")
		for name, base := range map[string]string{"daemon": refURL, "router": routerURL} {
			if got := wallTime.ReplaceAllString(tgqlOutcome(t, base, q), "actual_us="); got != lib {
				t.Errorf("%q through the %s:\n%s\nlibrary:\n%s", q, name, got, lib)
			}
		}
	}
	t.Logf("%d of %d golden statements analyzed, %d answered by the catalog", ran, len(stmts), sourced)
	if ran < 40 || sourced == 0 {
		t.Errorf("%d golden statements analyzed, %d by the catalog: the table exercises too little", ran, sourced)
	}
}

// TestWindowedTimelineAgreesAcrossSurfaces: a VALID DURING TIMELINE labels
// its steps with the window's timeline — as TIMELINE over the windowed graph
// does — through the library, a daemon and the router alike.
func TestWindowedTimelineAgreesAcrossSurfaces(t *testing.T) {
	routerURL, refURL, _ := startCluster(t, 3)
	env := facadeEnv(t, testPoints())
	wg, err := core.Window(env.Graph, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tgql.Exec(wg, "TIMELINE BY gender")
	if err != nil {
		t.Fatal(err)
	}
	const q = "TIMELINE BY gender VALID DURING t2..t4"
	res, err := tgql.ExecEnv(context.Background(), env, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.String() != want.String() {
		t.Errorf("library:\n%s\nwant:\n%s", res, want)
	}
	for name, base := range map[string]string{"daemon": refURL, "router": routerURL} {
		if got := tgqlOutcome(t, base, q); got != want.String() {
			t.Errorf("%s:\n%s\nwant:\n%s", name, got, want)
		}
	}
}
