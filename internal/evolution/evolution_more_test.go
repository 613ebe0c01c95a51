package evolution

import (
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
)

// EdgeWeights returns the weight triple of the aggregate edge (from, to).
func (a *Agg) EdgeWeights(from, to agg.Tuple) Weights {
	return a.Edges[agg.EdgeKey{From: from, To: to}]
}

func TestClassStrings(t *testing.T) {
	if Stability.String() != "St" || Growth.String() != "Gr" || Shrinkage.String() != "Shr" {
		t.Error("Class strings wrong")
	}
}

func TestEdgeWeightsLookup(t *testing.T) {
	g := core.PaperExample()
	tl := g.Timeline()
	s := agg.MustSchema(g, g.MustAttr("gender"))
	a := Aggregate(g, tl.Point(0), tl.Point(1), s, agg.Distinct, nil)
	m, _ := s.Encode("m")
	f, _ := s.Encode("f")
	// m→f edges: u1→u2 stable, u1→u3 gone, u1→u4 new.
	w := a.EdgeWeights(m, f)
	if w.St != 1 || w.Gr != 1 || w.Shr != 1 {
		t.Errorf("EdgeWeights(m,f) = %+v, want 1/1/1", w)
	}
	if zero := a.EdgeWeights(f, m); zero.Total() != 0 {
		t.Errorf("EdgeWeights(f,m) = %+v, want zero", zero)
	}
}

func TestAggStringRendering(t *testing.T) {
	g := core.PaperExample()
	tl := g.Timeline()
	s := agg.MustSchema(g, g.MustAttr("gender"), g.MustAttr("publications"))
	a := Aggregate(g, tl.Point(0), tl.Point(1), s, agg.Distinct, nil)
	out := a.String()
	for _, want := range []string{
		"evolution aggregate t0 → t1 (DIST)",
		"node (f,1) St=1 Gr=1 Shr=1",
		"edge (m,3)→(f,1) St=0 Gr=0 Shr=2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("String missing %q:\n%s", want, out)
		}
	}
}

func TestAggregatePanicsOnForeignSchema(t *testing.T) {
	g1 := core.PaperExample()
	g2 := core.PaperExample()
	s := agg.MustSchema(g2, g2.MustAttr("gender"))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Aggregate(g1, g1.Timeline().Point(0), g1.Timeline().Point(1), s, agg.Distinct, nil)
}
