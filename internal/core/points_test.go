package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/gtest"
	"repro/internal/timeline"
)

// history drives an accumulator through random points: each revisits some
// old nodes and edges, adds new ones, and sets both attributes.
type history struct {
	r     *rand.Rand
	acc   *core.Accumulator
	point int
}

func (h *history) addPoint() {
	h.acc.AddPoint(fmt.Sprintf("p%d", h.point))
	h.point++
	h.write()
}

// write records a random batch at the current point.
func (h *history) write() {
	a, r := h.acc, h.r
	var alive []core.NodeID
	for i, n := 0, 3+r.Intn(40); i < n; i++ {
		// Mostly old nodes at first, then a growing tail of new ones, so the
		// id space crosses word boundaries while early columns stay short.
		id := a.EnsureNode(fmt.Sprintf("n%d", r.Intn(a.NumNodes()+12)))
		a.SetNodeTime(id)
		a.SetStatic(0, id, fmt.Sprintf("g%d", int(id)%3))
		if r.Intn(5) != 0 {
			a.SetVarying(1, id, fmt.Sprintf("a%d", r.Intn(4)))
		}
		alive = append(alive, id)
	}
	for i, n := 0, r.Intn(60); i < n; i++ {
		a.SetEdgeTime(a.EnsureEdge(alive[r.Intn(len(alive))], alive[r.Intn(len(alive))]))
	}
}

func newHistory(seed int64) *history {
	return &history{r: rand.New(rand.NewSource(seed)), acc: core.NewAccumulator(
		core.AttrSpec{Name: "grp", Kind: core.Static}, core.AttrSpec{Name: "act", Kind: core.TimeVarying})}
}

// TestPointIndexIsTransposeOfTau: the index is a pure function of τ on every
// way core publishes a graph — snapshots after every appended point
// (columns handed over, never rebuilt), a snapshot taken mid-point that the
// caller keeps writing to, accumulators resumed from a snapshot and from
// loaded columns with further appends, and every earlier generation after
// later ones were published.
func TestPointIndexIsTransposeOfTau(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		h := newHistory(seed)
		var gens []*core.Graph
		check := func(what string, g *core.Graph) {
			t.Helper()
			if err := gtest.PointIndexError(g); err != nil {
				t.Fatalf("seed %d, %s (%d points, %d nodes, %d edges): %v",
					seed, what, g.Timeline().Len(), g.NumNodes(), g.NumEdges(), err)
			}
			gens = append(gens, g)
		}
		for p := 0; p < 12; p++ {
			h.addPoint()
			check("append", h.acc.Snapshot())
			if p%4 == 1 { // keep writing to the point the snapshot froze
				h.write()
				check("reopened point", h.acc.Snapshot())
			}
		}
		last := gens[len(gens)-1]
		if first := last.PointIndex().NodesAt(0); first.Len() >= last.NumNodes() {
			t.Fatalf("seed %d: column 0 has %d ids of %d: the history never outgrew a frozen column", seed, first.Len(), last.NumNodes())
		}

		// Resume from the live snapshot: the columns are adopted, and the two
		// accumulators then diverge without seeing each other's appends.
		fork := &history{r: rand.New(rand.NewSource(seed + 100)), acc: core.ResumeAccumulator(last), point: h.point}
		for p := 0; p < 3; p++ {
			fork.addPoint()
			check("resumed from a snapshot", fork.acc.Snapshot())
			h.addPoint()
			check("original after a fork", h.acc.Snapshot())
		}

		// Resume from loaded columns: the head stays lazy and shared.
		loaded := reload(t, last)
		for _, r := range []*history{
			{r: rand.New(rand.NewSource(seed + 200)), acc: core.ResumeAccumulator(loaded), point: h.point},
			{r: rand.New(rand.NewSource(seed + 300)), acc: core.ResumeAccumulator(loaded), point: h.point},
		} {
			for p := 0; p < 3; p++ {
				r.addPoint()
				g := r.acc.Snapshot()
				check("resumed from loaded columns", g)
				if p := g.IndexBytes(); p == 0 {
					t.Fatalf("seed %d: resumed graph reports no index bytes", seed)
				}
			}
		}
		check("loaded", loaded)
		for i, g := range gens {
			if err := gtest.PointIndexError(g); err != nil {
				t.Fatalf("seed %d: generation %d changed after later ones were published: %v", seed, i, err)
			}
		}
	}
}

// reload copies g through the column layout storage persists — every row
// padded to |V| — so the result has no appended index columns.
func reload(t *testing.T, g *core.Graph) *core.Graph {
	t.Helper()
	T, V := g.Timeline().Len(), g.NumNodes()
	c := core.Columns{Timeline: g.Timeline(), Attrs: g.Attrs(),
		Static: make([][]dict.Code, g.NumAttrs()), Varying: make([][][]dict.Code, g.NumAttrs())}
	for n := 0; n < V; n++ {
		c.NodeLabels = append(c.NodeLabels, g.NodeLabel(core.NodeID(n)))
		c.NodeTau = append(c.NodeTau, g.NodeTau(core.NodeID(n)))
	}
	for e := 0; e < g.NumEdges(); e++ {
		c.Edges = append(c.Edges, g.Edge(core.EdgeID(e)))
		c.EdgeTau = append(c.EdgeTau, g.EdgeTau(core.EdgeID(e)))
	}
	for a, spec := range c.Attrs {
		c.Dicts = append(c.Dicts, g.Dict(core.AttrID(a)))
		if spec.Kind == core.Static {
			for n := 0; n < V; n++ {
				c.Static[a] = append(c.Static[a], g.StaticValue(core.AttrID(a), core.NodeID(n)))
			}
			continue
		}
		c.Varying[a] = make([][]dict.Code, T)
		for tp := range c.Varying[a] {
			for n := 0; n < V; n++ {
				c.Varying[a][tp] = append(c.Varying[a][tp], g.VaryingValue(core.AttrID(a), core.NodeID(n), timeline.Time(tp)))
			}
		}
	}
	out, err := core.FromColumns(c)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestVaryingRowsMatchValues: the stored rows read exactly what
// VaryingValue reads, whether frozen per point by an accumulator or padded
// to |V| by the column layout, with a row frozen before a node joined
// reading as missing.
func TestVaryingRowsMatchValues(t *testing.T) {
	h := newHistory(5)
	for p := 0; p < 10; p++ {
		h.addPoint()
	}
	stored := h.acc.Snapshot()
	for name, g := range map[string]*core.Graph{"accumulator": stored, "padded": reload(t, stored)} {
		rows := g.VaryingRows(1)
		if len(rows) != g.Timeline().Len() {
			t.Fatalf("%s: %d rows for %d points", name, len(rows), g.Timeline().Len())
		}
		for tp, row := range rows {
			for n := 0; n < g.NumNodes(); n++ {
				got := dict.None
				if n < len(row) {
					got = row[n]
				}
				if want := g.VaryingValue(1, core.NodeID(n), timeline.Time(tp)); got != want {
					t.Fatalf("%s: row %d node %d = %d, VaryingValue = %d", name, tp, n, got, want)
				}
			}
		}
	}
	if short := stored.VaryingRows(1)[0]; len(short) >= stored.NumNodes() {
		t.Fatalf("row 0 has %d of %d nodes: no node joined after it was frozen", len(short), stored.NumNodes())
	}
	defer func() {
		if recover() == nil {
			t.Error("VaryingRows of a static attribute should panic")
		}
	}()
	stored.VaryingRows(0)
}
