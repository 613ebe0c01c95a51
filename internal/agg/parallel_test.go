package agg

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gtest"
	"repro/internal/ops"
	"repro/internal/timeline"
)

// aggregateParallel is AggregateParallelCtx on a context that is never
// canceled, so its result is always complete.
func aggregateParallel(v *ops.View, s *Schema, kind Kind, workers int) *Graph {
	ag, _ := AggregateParallelCtx(context.Background(), v, s, kind, workers)
	return ag
}

func TestAggregateParallelMatchesSerialOnFixture(t *testing.T) {
	g := core.PaperExample()
	tl := g.Timeline()
	v := ops.Union(g, tl.Point(0), tl.Point(1))
	for _, s := range []*Schema{
		MustSchema(g, g.MustAttr("gender")),
		MustSchema(g, g.MustAttr("gender"), g.MustAttr("publications")),
	} {
		for _, kind := range []Kind{Distinct, All} {
			for _, workers := range []int{0, 1, 2, 3, 8} {
				got := aggregateParallel(v, s, kind, workers)
				want := Aggregate(v, s, kind)
				if !got.Equal(want) {
					t.Errorf("workers=%d kind=%v: parallel result differs", workers, kind)
				}
			}
		}
	}
}

func TestAggregateParallelOnDataset(t *testing.T) {
	g := dataset.MovieLensScaled(1, 0.02)
	tl := g.Timeline()
	v := ops.Union(g, tl.All(), tl.All())
	s := MustSchema(g, g.MustAttr("gender"), g.MustAttr("rating"))
	got := aggregateParallel(v, s, All, 4)
	want := Aggregate(v, s, All)
	if !got.Equal(want) {
		t.Fatal("parallel ALL aggregation differs on MovieLens slice")
	}
	gotD := aggregateParallel(v, s, Distinct, 4)
	wantD := Aggregate(v, s, Distinct)
	if !gotD.Equal(wantD) {
		t.Fatal("parallel DIST aggregation differs on MovieLens slice")
	}
}

func TestAggregateParallelPanicsOnForeignView(t *testing.T) {
	g1 := core.PaperExample()
	g2 := core.PaperExample()
	s := MustSchema(g1, g1.MustAttr("gender"))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	aggregateParallel(ops.At(g2, 0), s, Distinct, 2)
}

func TestQuickParallelEqualsSerial(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := gtest.RandomGraph(r, gtest.DefaultParams())
		if g.NumAttrs() == 0 {
			return true
		}
		attrs := make([]core.AttrID, g.NumAttrs())
		for i := range attrs {
			attrs[i] = core.AttrID(i)
		}
		s := MustSchema(g, attrs...)
		tl := g.Timeline()
		v := ops.Union(g, gtest.RandomInterval(r, tl), gtest.RandomInterval(r, tl))
		workers := 2 + r.Intn(6)
		for _, kind := range []Kind{Distinct, All} {
			if !aggregateParallel(v, s, kind, workers).Equal(Aggregate(v, s, kind)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkParallelCrossover places parallelMinEntities: two workers against
// the serial kernel (workers-1) on union views of growing spans, with the
// serial fallback disabled, DIST and ALL, on DBLP (gender, publications)
// and MovieLens (gender, rating). The entities metric is what the view
// selects, the count the crossover is stated in; the whole-timeline spans
// are DESIGN's parallel-aggregation ablation. GT_BENCH_SCALE sets the
// datasets' scale (default 1; MovieLens generates slowly below it).
func BenchmarkParallelCrossover(b *testing.B) {
	scale := 1.0
	if v, err := strconv.ParseFloat(os.Getenv("GT_BENCH_SCALE"), 64); err == nil && v > 0 {
		scale = v
	}
	for _, c := range []struct {
		name  string
		g     *core.Graph
		attrs []string
	}{
		{"dblp", dataset.DBLPScaled(1, scale), []string{"gender", "publications"}},
		{"movielens", dataset.MovieLensScaled(1, scale), []string{"gender", "rating"}},
	} {
		s, err := ByName(c.g, c.attrs...)
		if err != nil {
			b.Fatal(err)
		}
		tl := c.g.Timeline()
		spans := slices.DeleteFunc([]int{1, 2, 4, 8, 16}, func(n int) bool { return n >= tl.Len() })
		for _, span := range append(spans, tl.Len()) {
			iv := tl.Range(0, timeline.Time(span-1))
			v := ops.Union(c.g, iv, iv)
			for _, kind := range []Kind{Distinct, All} {
				for _, workers := range []int{1, 2} {
					b.Run(fmt.Sprintf("%s/span-%d/%s/workers-%d", c.name, span, kind, workers), func(b *testing.B) {
						defer forceParallel(b)()
						b.ReportMetric(float64(v.NumNodes()+v.NumEdges()), "entities")
						for i := 0; i < b.N; i++ {
							if _, err := AggregateParallelCtx(context.Background(), v, s, kind, workers); err != nil {
								b.Fatal(err)
							}
						}
					})
				}
			}
		}
	}
}
