package plan_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gtest"
	"repro/internal/plan"
)

// localScatterer executes shard slices as Partial plans against a local
// graph — the in-process stand-in for the cluster router's HTTP transport.
// Slicing the paper example's timeline and executing each piece against
// the full graph is equivalent to executing it on a shard holding only
// that range: a Partial plan only reads the time points of its operands.
type localScatterer struct {
	g    *core.Graph
	fail string // shard name whose fetch fails, "" for none
}

func (s localScatterer) Partial(ctx context.Context, slice plan.ShardSlice, attrs []string, kind string) (*plan.PartialResult, error) {
	if s.fail != "" && slice.Shard == s.fail {
		return nil, fmt.Errorf("injected fetch failure")
	}
	node := &plan.Partial{
		Op:    plan.TemporalOp{Op: slice.Op, A: plan.IntervalRef{From: slice.AFrom, To: slice.ATo}},
		Attrs: attrs,
		Kind:  kind,
	}
	if slice.BFrom != "" {
		node.Op.B = plan.IntervalRef{From: slice.BFrom, To: slice.BTo}
	}
	p, err := plan.Compile(plan.Env{Graph: s.g}, node)
	if err != nil {
		return nil, err
	}
	res, err := p.Execute(ctx)
	if err != nil {
		return nil, err
	}
	return res.Partial, nil
}

// spanningUnion slices union(t0..t1, t1..t2) across a two-shard split at
// t1: shard a holds {t0}, shard b holds {t1, t2}. The single-piece shard a
// gets union(t0, t0) — union point sets dedupe, preserving the
// presence-anywhere semantics a "project" slice would break.
func spanningUnion(attrs []string, kind string) plan.ScatterQuery {
	return plan.ScatterQuery{
		Op:    plan.OpUnion,
		Attrs: attrs,
		Kind:  kind,
		Slices: []plan.ShardSlice{
			{Shard: "a", Op: plan.OpUnion, AFrom: "t0", ATo: "t0", BFrom: "t0", BTo: "t0"},
			{Shard: "b", Op: plan.OpUnion, AFrom: "t1", ATo: "t1", BFrom: "t1", BTo: "t2"},
		},
	}
}

// TestScatterMatchesSingleNode: gathering per-piece union partials and
// merging them yields byte-identical JSON to the single-node aggregate,
// for both DIST (entity-set union) and ALL (weight sum) and for static,
// time-varying and mixed groupings — including an operand overlap across
// the shard boundary, where DIST must dedup entities seen on both sides.
func TestScatterMatchesSingleNode(t *testing.T) {
	g := core.PaperExample()
	cases := []struct {
		name  string
		attrs []string
		kind  string
	}{
		{"dist_static", []string{"gender"}, "dist"},
		{"all_static", []string{"gender"}, "all"},
		{"dist_varying", []string{"publications"}, "dist"},
		{"all_mixed", []string{"gender", "publications"}, "all"},
		{"dist_mixed", []string{"gender", "publications"}, "dist"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp, err := plan.CompileScatter(spanningUnion(tc.attrs, tc.kind), localScatterer{g: g})
			if err != nil {
				t.Fatal(err)
			}
			res, err := sp.Execute(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if res.Merged == nil {
				t.Fatal("scatter plan returned no merged result")
			}
			got, err := json.Marshal(res.Merged)
			if err != nil {
				t.Fatal(err)
			}
			single, err := plan.Compile(plan.Env{Graph: g}, &plan.Aggregate{
				Op: plan.TemporalOp{
					Op: plan.OpUnion,
					A:  plan.IntervalRef{From: "t0", To: "t1"},
					B:  plan.IntervalRef{From: "t1", To: "t2"},
				},
				Attrs: tc.attrs,
				Kind:  tc.kind,
			})
			if err != nil {
				t.Fatal(err)
			}
			sres, err := single.Execute(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(sres.Agg)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("scatter-merged aggregate differs from single-node:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestScatterMatchesSingleNodeOnNastyValues: the merge renders through the
// same encoder and the same wire order as a single node, so the two stay
// byte-identical on values that collide labels ("a,b"+"c" vs "a"+"b,c"),
// separate the concatenated edge key from pair order ("1", "10") and need
// every escaping rule — invalid UTF-8 included, which never crosses a JSON
// hop here.
func TestScatterMatchesSingleNodeOnNastyValues(t *testing.T) {
	g := gtest.ValueGraph(gtest.NastyValues)
	for _, kind := range []string{"dist", "all"} {
		for _, attrs := range [][]string{{"x", "y"}, {"y", "x"}} {
			sp, err := plan.CompileScatter(plan.ScatterQuery{
				Op: plan.OpUnion, Attrs: attrs, Kind: kind,
				Slices: []plan.ShardSlice{
					{Shard: "a", Op: plan.OpUnion, AFrom: "t0", ATo: "t0", BFrom: "t0", BTo: "t0"},
					{Shard: "b", Op: plan.OpUnion, AFrom: "t1", ATo: "t1", BFrom: "t1", BTo: "t1"},
				},
			}, localScatterer{g: g})
			if err != nil {
				t.Fatal(err)
			}
			res, err := sp.Execute(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			single, err := plan.Compile(plan.Env{Graph: g}, &plan.Aggregate{
				Op:    plan.TemporalOp{Op: plan.OpUnion, A: plan.IntervalRef{From: "t0"}, B: plan.IntervalRef{From: "t1"}},
				Attrs: attrs, Kind: kind,
			})
			if err != nil {
				t.Fatal(err)
			}
			sres, err := single.Execute(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got, want := res.Merged.AppendJSON(nil), sres.Agg.AppendJSON(nil); !bytes.Equal(got, want) {
				t.Fatalf("%s %v: merged differs from single node:\n got %s\nwant %s", kind, attrs, got, want)
			}
		}
	}
}

// TestScatterSingleSliceProject: a project whose interval lies entirely in
// one shard scatters as a single slice; merging the one partial is the
// identity, so the result is byte-identical to the local project.
func TestScatterSingleSliceProject(t *testing.T) {
	g := core.PaperExample()
	q := plan.ScatterQuery{
		Op:    plan.OpProject,
		Attrs: []string{"gender"},
		Kind:  "dist",
		Slices: []plan.ShardSlice{
			{Shard: "a", Op: plan.OpProject, AFrom: "t0", ATo: "t1"},
		},
	}
	sp, err := plan.CompileScatter(q, localScatterer{g: g})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sp.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(res.Merged)
	if err != nil {
		t.Fatal(err)
	}
	single, err := plan.Compile(plan.Env{Graph: g}, &plan.Aggregate{
		Op:    plan.TemporalOp{Op: plan.OpProject, A: plan.IntervalRef{From: "t0", To: "t1"}},
		Attrs: []string{"gender"},
		Kind:  "dist",
	})
	if err != nil {
		t.Fatal(err)
	}
	sres, err := single.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(sres.Agg)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("single-slice project differs from local project:\n got %s\nwant %s", got, want)
	}
}

// TestMergePartialsAll: ALL weights add group-wise across partials, and
// groups only one side saw pass through; output is label-sorted.
func TestMergePartialsAll(t *testing.T) {
	a := &plan.PartialResult{
		Attributes: []string{"gender"},
		Kind:       "ALL",
		Nodes: []plan.PartialGroup{
			{Values: []string{"f"}, Weight: 3},
			{Values: []string{"m"}, Weight: 1},
		},
		Edges: []plan.PartialEdge{
			{From: []string{"f"}, To: []string{"m"}, Weight: 2},
		},
	}
	b := &plan.PartialResult{
		Attributes: []string{"gender"},
		Kind:       "ALL",
		Nodes: []plan.PartialGroup{
			{Values: []string{"f"}, Weight: 4},
			{Values: []string{"x"}, Weight: 7},
		},
		Edges: []plan.PartialEdge{
			{From: []string{"f"}, To: []string{"m"}, Weight: 5},
			{From: []string{"f"}, To: []string{"f"}, Weight: 1},
		},
	}
	m, err := plan.MergePartials([]*plan.PartialResult{a, b})
	if err != nil {
		t.Fatal(err)
	}
	wantNodes := []plan.PartialGroup{
		{Values: []string{"f"}, Weight: 7},
		{Values: []string{"m"}, Weight: 1},
		{Values: []string{"x"}, Weight: 7},
	}
	if len(m.Nodes) != len(wantNodes) {
		t.Fatalf("merged nodes = %v, want %v", m.Nodes, wantNodes)
	}
	for i, w := range wantNodes {
		got := m.Nodes[i]
		if got.Values[0] != w.Values[0] || got.Weight != w.Weight {
			t.Fatalf("merged node %d = %v, want %v", i, got, w)
		}
	}
	// Edges sorted by "from→to": f→f before f→m.
	if len(m.Edges) != 2 || m.Edges[0].Weight != 1 || m.Edges[1].Weight != 7 {
		t.Fatalf("merged edges = %v, want f→f:1, f→m:7", m.Edges)
	}
}

// TestMergePartialsDist: DIST weights are the size of the unioned entity
// set — an entity (or edge entity pair) appearing in several partials
// counts once.
func TestMergePartialsDist(t *testing.T) {
	a := &plan.PartialResult{
		Attributes: []string{"gender"},
		Kind:       "DIST",
		Nodes: []plan.PartialGroup{
			{Values: []string{"f"}, Weight: 2, Entities: []string{"u2", "u3"}},
		},
		Edges: []plan.PartialEdge{
			{From: []string{"f"}, To: []string{"f"}, Weight: 1, Entities: [][]string{{"u2", "u4"}}},
		},
	}
	b := &plan.PartialResult{
		Attributes: []string{"gender"},
		Kind:       "DIST",
		Nodes: []plan.PartialGroup{
			{Values: []string{"f"}, Weight: 2, Entities: []string{"u2", "u4"}},
		},
		Edges: []plan.PartialEdge{
			{From: []string{"f"}, To: []string{"f"}, Weight: 2, Entities: [][]string{{"u2", "u4"}, {"u3", "u4"}}},
		},
	}
	m, err := plan.MergePartials([]*plan.PartialResult{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Nodes) != 1 || m.Nodes[0].Weight != 3 {
		t.Fatalf("merged DIST node weight = %v, want one group of weight 3 (u2,u3,u4)", m.Nodes)
	}
	if len(m.Edges) != 1 || m.Edges[0].Weight != 2 {
		t.Fatalf("merged DIST edge weight = %v, want one group of weight 2", m.Edges)
	}
}

// TestMergePartialsErrors: the merge rejects empty input, missing shard
// partials, schema disagreement and malformed entity pairs.
func TestMergePartialsErrors(t *testing.T) {
	ok := &plan.PartialResult{Attributes: []string{"gender"}, Kind: "ALL"}
	cases := []struct {
		name  string
		parts []*plan.PartialResult
		want  string
	}{
		{"empty", nil, "no partials"},
		{"nil_partial", []*plan.PartialResult{ok, nil}, "missing shard partial"},
		{"kind_mismatch", []*plan.PartialResult{ok, {Attributes: []string{"gender"}, Kind: "DIST"}}, "disagree on schema"},
		{"attr_mismatch", []*plan.PartialResult{ok, {Attributes: []string{"publications"}, Kind: "ALL"}}, "disagree on schema"},
		{"bad_entity_pair", []*plan.PartialResult{{
			Attributes: []string{"gender"},
			Kind:       "DIST",
			Edges:      []plan.PartialEdge{{From: []string{"f"}, To: []string{"f"}, Weight: 1, Entities: [][]string{{"u2"}}}},
		}}, "malformed edge entity pair"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := plan.MergePartials(tc.parts)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("MergePartials error = %v, want containing %q", err, tc.want)
			}
		})
	}
}

// TestCompileScatterValidation: non-decomposable operators, empty slice
// lists, missing transports and multi-shard projects (intersection
// semantics) are compile errors, not wrong answers.
func TestCompileScatterValidation(t *testing.T) {
	g := core.PaperExample()
	sc := localScatterer{g: g}
	slice := plan.ShardSlice{Shard: "a", Op: plan.OpUnion, AFrom: "t0", ATo: "t0", BFrom: "t0", BTo: "t0"}
	cases := []struct {
		name string
		q    plan.ScatterQuery
		sc   plan.Scatterer
		want string
	}{
		{"intersection", plan.ScatterQuery{Op: plan.OpIntersection, Attrs: []string{"gender"}, Kind: "dist", Slices: []plan.ShardSlice{slice}}, sc, "do not decompose"},
		{"no_slices", plan.ScatterQuery{Op: plan.OpUnion, Attrs: []string{"gender"}, Kind: "dist"}, sc, "no shard slices"},
		{"nil_scatterer", plan.ScatterQuery{Op: plan.OpUnion, Attrs: []string{"gender"}, Kind: "dist", Slices: []plan.ShardSlice{slice}}, nil, "no scatterer"},
		{"multi_shard_project", plan.ScatterQuery{Op: plan.OpProject, Attrs: []string{"gender"}, Kind: "dist", Slices: []plan.ShardSlice{
			{Shard: "a", Op: plan.OpProject, AFrom: "t0", ATo: "t0"},
			{Shard: "b", Op: plan.OpProject, AFrom: "t1", ATo: "t2"},
		}}, sc, "intersection semantics"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := plan.CompileScatter(tc.q, tc.sc)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CompileScatter error = %v, want containing %q", err, tc.want)
			}
		})
	}
}

// TestCompileScatterExplain: the scattered plan identifies itself as
// SCATTER[n] and renders a GatherMerge root over per-shard ShardScatter
// leaves naming shard, operator and clipped interval.
func TestCompileScatterExplain(t *testing.T) {
	g := core.PaperExample()
	sp, err := plan.CompileScatter(spanningUnion([]string{"gender"}, "dist"), localScatterer{g: g})
	if err != nil {
		t.Fatal(err)
	}
	if key := sp.Logical().Key(); !strings.HasPrefix(key, "SCATTER[2] ") {
		t.Fatalf("logical key = %q, want SCATTER[2] prefix", key)
	}
	text := sp.Explain()
	for _, want := range []string{
		"GatherMerge(shards=2, kind=DIST, merge=entity-union)",
		"ShardScatter(shard=a, op=union",
		"ShardScatter(shard=b, op=union",
		"interval=t1 ∪ t1..t2",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("Explain output missing %q:\n%s", want, text)
		}
	}
	// ALL merges by weight sum, and the describe line says so.
	ap, err := plan.CompileScatter(spanningUnion([]string{"gender"}, "all"), localScatterer{g: g})
	if err != nil {
		t.Fatal(err)
	}
	if text := ap.Explain(); !strings.Contains(text, "merge=weight-sum") {
		t.Fatalf("ALL scatter Explain missing merge=weight-sum:\n%s", text)
	}
}

// TestScatterShardFailure: a failing slice fails the whole gather with the
// shard named, rather than merging a partial answer.
func TestScatterShardFailure(t *testing.T) {
	g := core.PaperExample()
	sp, err := plan.CompileScatter(spanningUnion([]string{"gender"}, "dist"), localScatterer{g: g, fail: "b"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sp.Execute(context.Background())
	if err == nil || !strings.Contains(err.Error(), "shard b:") || !strings.Contains(err.Error(), "injected fetch failure") {
		t.Fatalf("Execute error = %v, want shard b fetch failure", err)
	}
}
