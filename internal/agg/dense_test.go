package agg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gtest"
	"repro/internal/ops"
	"repro/internal/timeline"
)

// TestDenseMatchesMapOnRandomGraphs cross-checks the dense kernel against
// the map engine value-for-value on random temporal graphs, random views,
// both kinds, and random attribute subsets (static-only, varying-only and
// mixed schemas all occur).
func TestDenseMatchesMapOnRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := gtest.RandomGraph(r, gtest.DefaultParams())
		if g.NumAttrs() == 0 {
			return true
		}
		// Random non-empty attribute subset, in random order.
		attrs := make([]core.AttrID, g.NumAttrs())
		for a := range attrs {
			attrs[a] = core.AttrID(a)
		}
		r.Shuffle(len(attrs), func(i, j int) { attrs[i], attrs[j] = attrs[j], attrs[i] })
		attrs = attrs[:1+r.Intn(len(attrs))]
		s, err := NewSchema(g, attrs...)
		if err != nil {
			return false
		}
		t1 := gtest.RandomInterval(r, g.Timeline())
		t2 := gtest.RandomInterval(r, g.Timeline())
		views := []*ops.View{
			ops.Union(g, t1, t2),
			ops.Intersection(g, t1, t2),
			ops.Difference(g, t1, t2),
			ops.Project(g, g.Timeline().Point(timeline.Time(r.Intn(g.Timeline().Len())))),
		}
		for _, v := range views {
			for _, kind := range []Kind{Distinct, All} {
				if !Aggregate(v, s, kind).Equal(AggregateMap(v, s, kind)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestDenseMatchesMapOnDatasets cross-checks dense and map engines for both
// DIST and ALL on the synthetic DBLP and school-contacts datasets, on
// static, varying and combined schemas.
func TestDenseMatchesMapOnDatasets(t *testing.T) {
	cases := []struct {
		name  string
		graph func() *core.Graph
		attrs [][]string
	}{
		{"dblp", func() *core.Graph { return dataset.DBLPScaled(1, 0.05) },
			[][]string{{"gender"}, {"publications"}, {"gender", "publications"}}},
		{"contacts", func() *core.Graph { return dataset.SchoolContacts(1, dataset.DefaultContactsParams()) },
			[][]string{{"class"}, {"grade"}, {"grade", "class"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.graph()
			tl := g.Timeline()
			views := []*ops.View{
				ops.Union(g, tl.All(), tl.All()),
				ops.Intersection(g, tl.Range(0, timeline.Time(tl.Len()/2)), tl.Range(timeline.Time(tl.Len()/2), timeline.Time(tl.Len()-1))),
				ops.Difference(g, tl.Range(0, timeline.Time(tl.Len()-2)), tl.Point(timeline.Time(tl.Len()-1))),
			}
			for _, names := range tc.attrs {
				s, err := ByName(g, names...)
				if err != nil {
					t.Fatalf("schema %v: %v", names, err)
				}
				for _, v := range views {
					for _, kind := range []Kind{Distinct, All} {
						dense := Aggregate(v, s, kind)
						ref := AggregateMap(v, s, kind)
						if !dense.Equal(ref) {
							t.Fatalf("%s %v %s: dense != map\ndense:\n%s\nmap:\n%s",
								tc.name, names, kind, dense, ref)
						}
					}
				}
			}
		})
	}
}

// TestDenseScratchReuse runs many aggregations through one schema to
// exercise pool round-trips, stamp generations and touched-list clearing.
func TestDenseScratchReuse(t *testing.T) {
	g := dataset.SchoolContacts(3, dataset.DefaultContactsParams())
	s, err := ByName(g, "grade", "class")
	if err != nil {
		t.Fatal(err)
	}
	tl := g.Timeline()
	var first *Graph
	for i := 0; i < 50; i++ {
		v := ops.Union(g, tl.All(), tl.All())
		ag := Aggregate(v, s, Distinct)
		if first == nil {
			first = ag
		} else if !ag.Equal(first) {
			t.Fatalf("iteration %d: result changed across scratch reuse", i)
		}
	}
}

// TestParallelDenseMatchesSerial forces the parallel path on a small graph
// (bypassing the entity-count fallback) and checks shard merging of dense
// partials.
func TestParallelDenseMatchesSerial(t *testing.T) {
	old := parallelMinEntities
	parallelMinEntities = 0
	defer func() { parallelMinEntities = old }()

	g := dataset.DBLPScaled(2, 0.05)
	tl := g.Timeline()
	v := ops.Union(g, tl.All(), tl.All())
	for _, names := range [][]string{{"gender"}, {"publications"}, {"gender", "publications"}} {
		s, err := ByName(g, names...)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []Kind{Distinct, All} {
			want := Aggregate(v, s, kind)
			for _, workers := range []int{2, 3, 8} {
				got := aggregateParallel(v, s, kind, workers)
				if !got.Equal(want) {
					t.Fatalf("%v %s workers=%d: parallel != serial", names, kind, workers)
				}
			}
		}
	}
}

// TestParallelFallsBackToSerialOnSmallViews checks the auto-fallback: with
// the threshold above the view size, results are still correct (and the
// path trivially matches the serial engine).
func TestParallelFallsBackToSerialOnSmallViews(t *testing.T) {
	g := dataset.SchoolContacts(1, dataset.DefaultContactsParams())
	tl := g.Timeline()
	v := ops.Union(g, tl.All(), tl.All())
	s, err := ByName(g, "grade")
	if err != nil {
		t.Fatal(err)
	}
	if v.NumNodes()+v.NumEdges() >= parallelMinEntities {
		t.Skip("fixture unexpectedly large; fallback not exercised")
	}
	if !aggregateParallel(v, s, All, 8).Equal(Aggregate(v, s, All)) {
		t.Fatal("fallback result differs from serial")
	}
}

// BenchmarkDenseVsMapKernel measures the dense kernel against the seed map
// engine on the paper-scale synthetic DBLP dataset (allocations are the
// headline: the dense path allocates only the exactly-sized result maps).
func BenchmarkDenseVsMapKernel(b *testing.B) {
	g := dataset.DBLPScaled(1, 1.0)
	tl := g.Timeline()
	v := ops.Union(g, tl.All(), tl.All())
	for _, names := range [][]string{{"gender"}, {"gender", "publications"}} {
		s, err := ByName(g, names...)
		if err != nil {
			b.Fatal(err)
		}
		label := names[0]
		if len(names) > 1 {
			label = "gender+publications"
		}
		for _, kind := range []Kind{Distinct, All} {
			b.Run(label+"-"+kind.String()+"/dense", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					Aggregate(v, s, kind)
				}
			})
			b.Run(label+"-"+kind.String()+"/map", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					AggregateMap(v, s, kind)
				}
			})
		}
	}
}

// TestVaryingKernelAllocCeiling holds the dense kernel's cost on
// time-varying schemas to its view, scratch and result maps. The condition
// the code does not show: the time-major scan keeps its column plan and its
// word lists in the pooled scratch and hands no per-entity or per-appearance
// callback to anything — a closure on that path, or a plan slice that
// escapes per call, shows up here as thousands of allocations on this graph.
func TestVaryingKernelAllocCeiling(t *testing.T) {
	g := dataset.DBLPScaled(1, 0.05)
	all := g.Timeline().All()
	gender, pubs := g.MustAttr("gender"), g.MustAttr("publications")
	for _, attrs := range [][]core.AttrID{{pubs}, {gender, pubs}} {
		s := MustSchema(g, attrs...)
		for _, kind := range []Kind{Distinct, All} {
			got := testing.AllocsPerRun(10, func() { Aggregate(ops.Union(g, all, all), s, kind) })
			if got > 100 {
				t.Errorf("schema %v %v: %.0f allocs per aggregate, want ≤ 100", attrs, kind, got)
			}
		}
	}
}
