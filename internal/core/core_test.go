package core

import (
	"slices"
	"testing"

	"repro/internal/dict"
	"repro/internal/timeline"
)

// EdgeByEndpoints returns the edge (u, v), if present.
func (g *Graph) EdgeByEndpoints(u, v NodeID) (EdgeID, bool) {
	e := slices.Index(g.edges, Endpoints{u, v})
	return EdgeID(e), e >= 0
}

func TestBuilderBasics(t *testing.T) {
	tl := timeline.MustNew("t0", "t1")
	b := NewBuilder(tl, AttrSpec{Name: "color", Kind: Static})
	a := b.AddNode("a")
	if again := b.AddNode("a"); again != a {
		t.Fatalf("AddNode(a) twice: %d then %d", a, again)
	}
	c := b.AddNode("c")
	b.SetNodeTime(a, 0)
	b.SetNodeTime(a, 1)
	b.SetNodeTime(c, 1)
	b.SetStatic(0, a, "red")
	b.SetStatic(0, c, "blue")
	e := b.AddEdge(a, c)
	if again := b.AddEdge(a, c); again != e {
		t.Fatalf("AddEdge twice: %d then %d", e, again)
	}
	b.SetEdgeTime(e, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("NumNodes/NumEdges = %d/%d, want 2/1", g.NumNodes(), g.NumEdges())
	}
	if g.NodeLabel(a) != "a" {
		t.Errorf("NodeLabel = %q", g.NodeLabel(a))
	}
	if n, ok := g.NodeByLabel("c"); !ok || n != c {
		t.Errorf("NodeByLabel(c) = %d,%v", n, ok)
	}
	if got := g.Dict(0).Value(g.StaticValue(0, a)); got != "red" {
		t.Errorf("static value = %q, want red", got)
	}
	if eid, ok := g.EdgeByEndpoints(a, c); !ok || eid != e {
		t.Errorf("EdgeByEndpoints = %d,%v", eid, ok)
	}
	if _, ok := g.EdgeByEndpoints(c, a); ok {
		t.Error("reverse edge should not exist (directed graph)")
	}
}

func TestBuildRejectsEdgeOutsideEndpointLifetime(t *testing.T) {
	tl := timeline.MustNew("t0", "t1")
	b := NewBuilder(tl)
	a := b.AddNode("a")
	c := b.AddNode("c")
	b.SetNodeTime(a, 0)
	b.SetNodeTime(c, 1)
	e := b.AddEdge(a, c)
	b.SetEdgeTime(e, 0) // c does not exist at t0
	if _, err := b.Build(); err == nil {
		t.Fatal("Build should reject edge outside endpoint lifetime")
	}
}

func TestBuildRejectsEmptyTimestamps(t *testing.T) {
	tl := timeline.MustNew("t0")
	b := NewBuilder(tl)
	b.AddNode("a")
	if _, err := b.Build(); err == nil {
		t.Fatal("Build should reject node with empty timestamp")
	}
}

func TestBuildRejectsBadSchema(t *testing.T) {
	tl := timeline.MustNew("t0")
	if _, err := NewBuilder(tl, AttrSpec{Name: "", Kind: Static}).Build(); err == nil {
		t.Error("empty attribute name should fail")
	}
	dup := []AttrSpec{{Name: "x", Kind: Static}, {Name: "x", Kind: TimeVarying}}
	if _, err := NewBuilder(tl, dup...).Build(); err == nil {
		t.Error("duplicate attribute names should fail")
	}
}

func TestKindMismatchFailsBuild(t *testing.T) {
	tl := timeline.MustNew("t0")
	b := NewBuilder(tl, AttrSpec{Name: "s", Kind: Static}, AttrSpec{Name: "v", Kind: TimeVarying})
	n := b.AddNode("a")
	b.SetNodeTime(n, 0)
	b.SetVarying(0, n, 0, "x") // attribute 0 is static
	if _, err := b.Build(); err == nil {
		t.Error("SetVarying on static attribute should fail Build")
	}
	b2 := NewBuilder(tl, AttrSpec{Name: "s", Kind: Static}, AttrSpec{Name: "v", Kind: TimeVarying})
	n2 := b2.AddNode("a")
	b2.SetNodeTime(n2, 0)
	b2.SetStatic(1, n2, "x") // attribute 1 is time-varying
	if _, err := b2.Build(); err == nil {
		t.Error("SetStatic on time-varying attribute should fail Build")
	}
}

func TestPaperExampleMatchesTable2(t *testing.T) {
	g := PaperExample()
	if g.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d, want 5", g.NumNodes())
	}
	gender := g.MustAttr("gender")
	pubs := g.MustAttr("publications")
	if g.Attr(gender).Kind != Static || g.Attr(pubs).Kind != TimeVarying {
		t.Fatal("attribute kinds wrong")
	}

	wantTau := map[string]string{
		"u1": "110", "u2": "111", "u3": "100", "u4": "111", "u5": "001",
	}
	wantGender := map[string]string{"u1": "m", "u2": "f", "u3": "f", "u4": "f", "u5": "m"}
	wantPubs := map[string][3]string{
		"u1": {"3", "1", ""},
		"u2": {"1", "1", "1"},
		"u3": {"1", "", ""},
		"u4": {"2", "1", "1"},
		"u5": {"", "", "3"},
	}
	for label, want := range wantTau {
		n, ok := g.NodeByLabel(label)
		if !ok {
			t.Fatalf("node %s missing", label)
		}
		if got := g.NodeTau(n).String(); got != want {
			t.Errorf("τu(%s) = %s, want %s", label, got, want)
		}
		if got := g.Dict(gender).Value(g.StaticValue(gender, n)); got != wantGender[label] {
			t.Errorf("gender(%s) = %q, want %q", label, got, wantGender[label])
		}
		for tp := 0; tp < 3; tp++ {
			c := g.VaryingValue(pubs, n, timeline.Time(tp))
			got := g.Dict(pubs).Value(c)
			if got != wantPubs[label][tp] {
				t.Errorf("publications(%s, t%d) = %q, want %q", label, tp, got, wantPubs[label][tp])
			}
			if (c == dict.None) != (wantPubs[label][tp] == "") {
				t.Errorf("publications(%s, t%d) missing-ness wrong", label, tp)
			}
		}
	}

	stats := ComputeStats(g)
	wantNodes := []int{4, 3, 3}
	wantEdges := []int{3, 3, 3}
	for i := range wantNodes {
		if stats.Nodes[i] != wantNodes[i] {
			t.Errorf("nodes at t%d = %d, want %d", i, stats.Nodes[i], wantNodes[i])
		}
		if stats.Edges[i] != wantEdges[i] {
			t.Errorf("edges at t%d = %d, want %d", i, stats.Edges[i], wantEdges[i])
		}
		if stats.Nodes[i] != g.NodesAt(timeline.Time(i)) || stats.Edges[i] != g.EdgesAt(timeline.Time(i)) {
			t.Errorf("ComputeStats disagrees with NodesAt/EdgesAt at t%d", i)
		}
	}
}

func TestValueForStaticIgnoresTime(t *testing.T) {
	g := PaperExample()
	gender := g.MustAttr("gender")
	n, _ := g.NodeByLabel("u2")
	for tp := 0; tp < 3; tp++ {
		if got := g.ValueString(gender, n, timeline.Time(tp)); got != "f" {
			t.Errorf("ValueString(gender, u2, t%d) = %q, want f", tp, got)
		}
	}
}

func TestMustAttrPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PaperExample().MustAttr("nope")
}
