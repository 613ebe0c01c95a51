package core

import (
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/dict"
	"repro/internal/timeline"
)

// validColumns is a two-point graph in FromColumns' input form: nodes a, b
// (both at t0, t1), c (t1); edge (a,b) at t0, t1 and (b,c) at t1; one
// static and one time-varying attribute.
func validColumns() Columns {
	tau := func(bits ...int) *bitset.Set { return bitset.FromIndices(2, bits...) }
	return Columns{
		Timeline:   timeline.MustNew("t0", "t1"),
		Attrs:      []AttrSpec{{Name: "grp", Kind: Static}, {Name: "lvl", Kind: TimeVarying}},
		Dicts:      []*dict.Dict{dict.FromValues([]string{"x", "y"}), dict.FromValues([]string{"lo"})},
		NodeLabels: []string{"a", "b", "c"},
		NodeTau:    []*bitset.Set{tau(0, 1), tau(0, 1), tau(1)},
		Edges:      []Endpoints{{0, 1}, {1, 2}},
		EdgeTau:    []*bitset.Set{tau(0, 1), tau(1)},
		Static:     [][]dict.Code{{0, 1, dict.None}, nil},
		Varying:    [][]dict.Code{nil, {0, 0, 0, dict.None, dict.None, 0}},
	}
}

// TestValidateRules breaks one rule of Definition 2.1 at a time. The range
// rules and distinct labels are FromColumns' to refuse (reading the graph
// relies on them); the rest only Validate sees.
func TestValidateRules(t *testing.T) {
	g, err := FromColumns(validColumns())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("valid columns: %v", err)
	}
	if g.nodeIndex == nil || g.edgeIndex == nil {
		t.Fatal("Validate left an index unbuilt")
	}
	for _, tc := range []struct {
		name        string
		mutate      func(c *Columns)
		want        string
		fromColumns bool // refused before Validate
	}{
		{"empty node tau", func(c *Columns) {
			c.NodeLabels = append(c.NodeLabels, "d")
			c.NodeTau = append(c.NodeTau, bitset.New(2))
			c.Static[0] = append(c.Static[0], dict.None)
			c.Varying[1] = append(c.Varying[1], dict.None, dict.None)
		}, "node d has empty timestamp", false},
		{"empty edge tau", func(c *Columns) { c.EdgeTau[1] = bitset.New(2) }, "edge (b,c) has empty timestamp", false},
		{"edge outside endpoint lifetime", func(c *Columns) { c.EdgeTau[1] = bitset.FromIndices(2, 0, 1) }, "endpoints do not", false},
		{"duplicate edge", func(c *Columns) { c.Edges[1] = c.Edges[0] }, "duplicate edge (a,b)", false},
		{"duplicate label", func(c *Columns) { c.NodeLabels[2] = "a" }, `duplicate node label "a"`, true},
		{"endpoint out of range", func(c *Columns) { c.Edges[1].V = 3 }, "out of range", true},
		{"code beyond domain", func(c *Columns) { c.Static[0][0] = 2 }, "outside its dictionary", true},
		{"code below none", func(c *Columns) { c.Varying[1][0] = -2 }, "outside its dictionary", true},
		{"bit beyond timeline", func(c *Columns) { c.NodeTau[0] = bitset.FromWords(2, []uint64{0b111}) }, "beyond the timeline", true},
		{"tau longer than timeline", func(c *Columns) { c.EdgeTau[0] = bitset.FromIndices(3, 0) }, "beyond the timeline", true},
	} {
		c := validColumns()
		tc.mutate(&c)
		g, err := FromColumns(c)
		if err == nil {
			if tc.fromColumns {
				t.Errorf("%s: FromColumns accepted it", tc.name)
			}
			err = g.Validate()
		} else if !tc.fromColumns {
			t.Errorf("%s: FromColumns refused it (%v); want Validate to", tc.name, err)
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

// TestValidateAccumulatorGraph: snapshots of an accumulator — time-major
// varying rows, timestamp sets shorter than the timeline, a shared label
// index — satisfy the same rules.
func TestValidateAccumulatorGraph(t *testing.T) {
	a := NewAccumulator(AttrSpec{Name: "grp", Kind: Static}, AttrSpec{Name: "lvl", Kind: TimeVarying})
	for i, label := range []string{"t0", "t1", "t2"} {
		a.AddPoint(label)
		u := a.EnsureNode("u")
		a.SetNodeTime(u)
		a.SetStatic(0, u, "x")
		a.SetVarying(1, u, "lo")
		if i < 2 { // v and its edge stop appearing: their τ stay two bits long
			v := a.EnsureNode("v")
			a.SetNodeTime(v)
			a.SetEdgeTime(a.EnsureEdge(u, v))
		}
	}
	if err := a.Snapshot().Validate(); err != nil {
		t.Fatal(err)
	}
}
