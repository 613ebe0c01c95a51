package plan_test

import (
	"strings"
	"testing"

	"repro/internal/plan"
)

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
