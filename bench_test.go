// Benchmarks regenerating every table and figure of the paper's §5
// evaluation, plus ablations of the design decisions listed in DESIGN.md.
//
// One benchmark (or benchmark group) exists per table/figure; the gtbench
// command produces the full per-x-axis series behind each figure, while
// these testing.B benchmarks measure the figure's characteristic workload
// so regressions are caught by `go test -bench=.`.
//
// Dataset scale: benchmarks run on scaled-down datasets (DBLP ×0.25,
// MovieLens ×0.05) so the full suite completes in minutes. Set
// GT_BENCH_SCALE=<v> to run BOTH datasets at scale v instead —
// GT_BENCH_SCALE=1 benchmarks at the paper's Table 3/4 sizes.
package graphtempo_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/bits"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	graphtempo "repro"
	"repro/internal/agg"
	"repro/internal/analytics"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dict"
	"repro/internal/evolution"
	"repro/internal/explore"
	"repro/internal/larray"
	"repro/internal/materialize"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/timeline"
)

var (
	benchOnce sync.Once
	benchDBLP *graphtempo.Graph
	benchML   *graphtempo.Graph
)

func benchGraphs(b *testing.B) (*graphtempo.Graph, *graphtempo.Graph) {
	b.Helper()
	benchOnce.Do(func() {
		dblpScale, mlScale := 0.25, 0.05
		if s := os.Getenv("GT_BENCH_SCALE"); s != "" {
			if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
				dblpScale, mlScale = v, v
			}
		}
		benchDBLP = graphtempo.DBLPScaled(1, dblpScale)
		benchML = graphtempo.MovieLensScaled(1, mlScale)
	})
	return benchDBLP, benchML
}

func mustSchema(b *testing.B, g *graphtempo.Graph, names ...string) *graphtempo.AggSchema {
	b.Helper()
	s, err := graphtempo.SchemaByName(g, names...)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkTable3DBLPStats regenerates Table 3 (per-year node/edge counts).
func BenchmarkTable3DBLPStats(b *testing.B) {
	g, _ := benchGraphs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graphtempo.ComputeStats(g)
	}
}

// BenchmarkTable4MovieLensStats regenerates Table 4.
func BenchmarkTable4MovieLensStats(b *testing.B) {
	_, m := benchGraphs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graphtempo.ComputeStats(m)
	}
}

// BenchmarkFig5aTimePointAggDBLP measures DIST aggregation of the busiest
// DBLP year per attribute combination (Fig. 5a).
func BenchmarkFig5aTimePointAggDBLP(b *testing.B) {
	g, _ := benchGraphs(b)
	last := graphtempo.Time(g.Timeline().Len() - 1)
	v := graphtempo.At(g, last)
	for _, names := range [][]string{{"gender"}, {"publications"}, {"gender", "publications"}} {
		s := mustSchema(b, g, names...)
		name := ""
		for i, n := range names {
			if i > 0 {
				name += "+"
			}
			name += n[:1]
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				graphtempo.Aggregate(v, s, graphtempo.Distinct)
			}
		})
	}
}

// BenchmarkFig5bTimePointAggMovieLens measures DIST aggregation of the
// August co-rating graph per attribute combination (Fig. 5b).
func BenchmarkFig5bTimePointAggMovieLens(b *testing.B) {
	_, m := benchGraphs(b)
	aug, _ := m.Timeline().TimeOf("Aug")
	v := graphtempo.At(m, aug)
	combos := [][]string{
		{"gender"}, {"age"}, {"occupation"}, {"rating"},
		{"gender", "age"}, {"gender", "age", "rating"},
		{"gender", "age", "occupation", "rating"},
	}
	for _, names := range combos {
		s := mustSchema(b, m, names...)
		name := ""
		for i, n := range names {
			if i > 0 {
				name += "+"
			}
			name += n[:1]
		}
		_ = s
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				graphtempo.Aggregate(v, s, graphtempo.Distinct)
			}
		})
	}
}

// BenchmarkFig6UnionAgg measures union over the whole DBLP timeline plus
// DIST/ALL aggregation on the static and the time-varying attribute
// (Fig. 6).
func BenchmarkFig6UnionAgg(b *testing.B) {
	g, _ := benchGraphs(b)
	tl := g.Timeline()
	whole := tl.All()
	cases := []struct {
		name string
		attr string
		kind graphtempo.AggKind
	}{
		{"static-DIST", "gender", graphtempo.Distinct},
		{"static-ALL", "gender", graphtempo.All},
		{"varying-DIST", "publications", graphtempo.Distinct},
		{"varying-ALL", "publications", graphtempo.All},
	}
	for _, c := range cases {
		s := mustSchema(b, g, c.attr)
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v := graphtempo.Union(g, whole, whole)
				graphtempo.Aggregate(v, s, c.kind)
			}
		})
	}
}

// BenchmarkFig7IntersectionAgg measures the iterated intersection over
// [2000,2017] (the longest non-empty one) plus DIST aggregation (Fig. 7).
func BenchmarkFig7IntersectionAgg(b *testing.B) {
	g, _ := benchGraphs(b)
	tl := g.Timeline()
	iv := tl.Range(0, 17)
	for _, attr := range []string{"gender", "publications"} {
		s := mustSchema(b, g, attr)
		b.Run(attr, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v := graphtempo.StabilityView(g, graphtempo.ForAllOf(iv), graphtempo.ForAllOf(iv))
				graphtempo.Aggregate(v, s, graphtempo.Distinct)
			}
		})
	}
}

// BenchmarkFig8DifferenceOldNew measures Told(∪) − Tnew over the widest
// Told plus aggregation (Fig. 8).
func BenchmarkFig8DifferenceOldNew(b *testing.B) {
	g, _ := benchGraphs(b)
	tl := g.Timeline()
	last := graphtempo.Time(tl.Len() - 1)
	told := graphtempo.Exists(tl.Range(0, last-1))
	tnew := graphtempo.Exists(tl.Point(last))
	for _, attr := range []string{"gender", "publications"} {
		s := mustSchema(b, g, attr)
		b.Run(attr, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v := graphtempo.DifferenceView(g, told, tnew)
				graphtempo.Aggregate(v, s, graphtempo.Distinct)
			}
		})
	}
}

// BenchmarkFig9DifferenceNewOld measures the cheaper opposite difference
// Tnew − Told(∪) (Fig. 9).
func BenchmarkFig9DifferenceNewOld(b *testing.B) {
	g, _ := benchGraphs(b)
	tl := g.Timeline()
	last := graphtempo.Time(tl.Len() - 1)
	told := graphtempo.Exists(tl.Range(0, last-1))
	tnew := graphtempo.Exists(tl.Point(last))
	for _, attr := range []string{"gender", "publications"} {
		s := mustSchema(b, g, attr)
		b.Run(attr, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v := graphtempo.DifferenceView(g, tnew, told)
				graphtempo.Aggregate(v, s, graphtempo.Distinct)
			}
		})
	}
}

// BenchmarkFig10MaterializedUnion compares union-ALL aggregation from
// scratch against T-distributive composition from the per-year store at
// the longest interval (Fig. 10), across the two composition engines —
// linear map-merge (the reference) and O(1) prefix-sum — plus the
// concurrent catalog under parallel clients.
func BenchmarkFig10MaterializedUnion(b *testing.B) {
	g, _ := benchGraphs(b)
	tl := g.Timeline()
	whole := tl.All()
	for _, attr := range []string{"gender", "publications"} {
		s := mustSchema(b, g, attr)
		store := graphtempo.NewMatStore(g, s)
		store.UnionAll(whole) // build the dense tables outside the timings
		b.Run(attr+"-scratch", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				graphtempo.Aggregate(graphtempo.Union(g, whole, whole), s, graphtempo.All)
			}
		})
		// The linear reference: one map merge per point of the interval.
		points := make([]*graphtempo.AggGraph, tl.Len())
		for t := range points {
			points[t] = store.UnionAll(tl.Point(graphtempo.Time(t)))
		}
		b.Run(attr+"-linear", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out := &graphtempo.AggGraph{Schema: s, Kind: graphtempo.All,
					Nodes: map[agg.Tuple]int64{}, Edges: map[agg.EdgeKey]int64{}}
				for _, p := range points {
					out.Merge(p)
				}
			}
		})
		b.Run(attr+"-prefix", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				store.UnionAll(whole)
			}
		})
		attrID := g.MustAttr(attr)
		cat := graphtempo.NewMatCatalog(g)
		if _, err := cat.Materialize(attrID); err != nil {
			b.Fatal(err)
		}
		ivs := make([]graphtempo.Interval, tl.Len())
		for i := range ivs {
			ivs[i] = tl.Range(0, graphtempo.Time(i))
		}
		b.Run(attr+"-catalog-parallel", func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if _, _, err := cat.UnionAll(ivs[i%len(ivs)], attrID); err != nil {
						b.Fatal(err)
					}
					i++
				}
			})
		})
	}
}

// BenchmarkFig11AttributeRollup compares computing the gender aggregate of
// one year from scratch against rolling it up from the materialized
// (gender, publications) aggregate (Fig. 11).
func BenchmarkFig11AttributeRollup(b *testing.B) {
	g, _ := benchGraphs(b)
	last := graphtempo.Time(g.Timeline().Len() - 1)
	v := graphtempo.At(g, last)
	fine := graphtempo.Aggregate(v, mustSchema(b, g, "gender", "publications"), graphtempo.Distinct)
	gender := g.MustAttr("gender")
	gOnly := mustSchema(b, g, "gender")
	b.Run("scratch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graphtempo.Aggregate(v, gOnly, graphtempo.Distinct)
		}
	})
	b.Run("rollup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := graphtempo.Rollup(fine, gender); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig12EvolutionGender measures the aggregated evolution graph of
// 2010 vs the 2000s for high-activity authors (Fig. 12).
func BenchmarkFig12EvolutionGender(b *testing.B) {
	g, _ := benchGraphs(b)
	tl := g.Timeline()
	s := mustSchema(b, g, "gender")
	pubs := g.MustAttr("publications")
	high := func(n graphtempo.NodeID, t graphtempo.Time) bool {
		v := g.ValueString(pubs, n, t)
		return len(v) > 1 || (len(v) == 1 && v[0] > '4') // >4, domain 1..18
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graphtempo.AggregateEvolution(g, tl.Range(0, 9), tl.Point(10), s, graphtempo.Distinct, high)
	}
}

// benchExplore runs the three §5.2 exploration cases for an f-f edge
// result on the given graph.
func benchExplore(b *testing.B, g *graphtempo.Graph, female string) {
	s := mustSchema(b, g, "gender")
	ff, err := graphtempo.EdgeTupleResult(s, []string{female}, []string{female})
	if err != nil {
		b.Fatal(err)
	}
	ex := &graphtempo.Explorer{Graph: g, Schema: s, Kind: graphtempo.Distinct, Result: ff}
	cases := []struct {
		name  string
		event graphtempo.EvolutionClass
		sem   graphtempo.Semantics
		ext   graphtempo.Extend
	}{
		{"stability-max", graphtempo.Stability, graphtempo.IntersectionSemantics, graphtempo.ExtendNew},
		{"growth-min", graphtempo.Growth, graphtempo.UnionSemantics, graphtempo.ExtendNew},
		{"shrinkage-min", graphtempo.Shrinkage, graphtempo.UnionSemantics, graphtempo.ExtendOld},
	}
	for _, c := range cases {
		var k int64
		if c.sem == graphtempo.UnionSemantics {
			_, k = ex.InitK(c.event)
		} else {
			k, _ = ex.InitK(c.event)
		}
		if k < 1 {
			k = 1
		}
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ex.Explore(c.event, c.sem, c.ext, k)
			}
		})
	}
}

// BenchmarkFig13ExploreMovieLens measures the Fig. 13 exploration cases.
func BenchmarkFig13ExploreMovieLens(b *testing.B) {
	_, m := benchGraphs(b)
	benchExplore(b, m, "F")
}

// BenchmarkFig14ExploreDBLP measures the Fig. 14 exploration cases.
func BenchmarkFig14ExploreDBLP(b *testing.B) {
	g, _ := benchGraphs(b)
	benchExplore(b, g, "f")
}

// --- Ablations (DESIGN.md §2) ---

// BenchmarkAblationTupleKeys compares the dictionary-encoded mixed-radix
// group keys of the optimized engine against string-concatenation keys.
func BenchmarkAblationTupleKeys(b *testing.B) {
	g, _ := benchGraphs(b)
	last := graphtempo.Time(g.Timeline().Len() - 1)
	v := graphtempo.At(g, last)
	s := mustSchema(b, g, "gender", "publications")
	b.Run("mixed-radix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graphtempo.Aggregate(v, s, graphtempo.Distinct)
		}
	})
	b.Run("string-keys", func(b *testing.B) {
		gender := g.MustAttr("gender")
		pubs := g.MustAttr("publications")
		tupleAt := func(n graphtempo.NodeID, t graphtempo.Time) string {
			return g.ValueString(gender, n, t) + "," + g.ValueString(pubs, n, t)
		}
		for i := 0; i < b.N; i++ {
			nodes := make(map[string]int64)
			v.ForEachNode(func(n graphtempo.NodeID) {
				seen := make(map[string]bool, 2)
				v.NodeTimes(n).ForEach(func(t int) {
					key := tupleAt(n, graphtempo.Time(t))
					if !seen[key] {
						seen[key] = true
						nodes[key]++
					}
				})
			})
			edges := make(map[string]int64)
			v.ForEachEdge(func(e graphtempo.EdgeID) {
				ep := g.Edge(e)
				seen := make(map[string]bool, 2)
				v.EdgeTimes(e).ForEach(func(t int) {
					key := tupleAt(ep.U, graphtempo.Time(t)) + "→" + tupleAt(ep.V, graphtempo.Time(t))
					if !seen[key] {
						seen[key] = true
						edges[key]++
					}
				})
			})
		}
	})
}

// BenchmarkAblationCopyVsView compares the view-based optimized engine
// against the paper-literal copy-out labeled-array engine on the same
// union + DIST aggregation workload.
func BenchmarkAblationCopyVsView(b *testing.B) {
	g, _ := benchGraphs(b)
	tl := g.Timeline()
	iv := tl.Range(0, 4)
	s := mustSchema(b, g, "gender", "publications")
	b.Run("view-engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v := graphtempo.Union(g, iv, iv)
			graphtempo.Aggregate(v, s, graphtempo.Distinct)
		}
	})
	ga := larray.FromGraph(g)
	b.Run("copy-engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			u := ga.Union(iv, iv)
			u.Aggregate([]string{"gender", "publications"}, true)
		}
	})
}

// BenchmarkAblationCatalogRollup compares answering a per-time-point
// aggregate from scratch against rolling it up from a materialized store on
// a superset of the requested attributes (one extra attribute, and all
// four) — the D-distributive derivation materialize.Catalog runs on a cache
// miss. The roll-up's cost follows the superset's group count, not |V|+|E|.
func BenchmarkAblationCatalogRollup(b *testing.B) {
	_, m := benchGraphs(b)
	aug, _ := m.Timeline().TimeOf("Aug")
	gender, rating := m.MustAttr("gender"), m.MustAttr("rating")
	b.Run("scratch", func(b *testing.B) {
		s := agg.MustSchema(m, gender, rating)
		for i := 0; i < b.N; i++ {
			agg.Aggregate(graphtempo.At(m, aug), s, agg.All)
		}
	})
	for _, super := range [][]string{{"gender", "age", "rating"}, {"gender", "age", "occupation", "rating"}} {
		b.Run(fmt.Sprintf("rollup-from-%d", len(super)), func(b *testing.B) {
			st := materialize.NewStore(m, mustSchema(b, m, super...))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.PointSubset(aug, gender, rating); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationExplorePruning compares the monotonicity-pruned
// exploration against the exhaustive baseline.
func BenchmarkAblationExplorePruning(b *testing.B) {
	g, _ := benchGraphs(b)
	s := mustSchema(b, g, "gender")
	ex := &explore.Explorer{Graph: g, Schema: s, Kind: agg.Distinct, Result: explore.TotalEdges}
	_, k := ex.InitK(graphtempo.Stability)
	if k < 1 {
		k = 1
	}
	b.Run("pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ex.Explore(graphtempo.Stability, graphtempo.UnionSemantics, graphtempo.ExtendNew, k)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ex.Naive(graphtempo.Stability, graphtempo.UnionSemantics, graphtempo.ExtendNew, k)
		}
	})
}

// BenchmarkExploreFastPath measures the exploration fast path — incremental
// views, and on this all-static schema the mask evaluator — against the seed
// evaluator (selector views + fresh aggregation per candidate) on
// paper-scale exploration workloads: one traversal of each kind that
// dominates §5.2 (U-Explore on stability, I-Explore on stability, and
// growth via minimal pairs), the §5.2 target itself (female→female edges,
// I-Explore) and an ALL count. "seed" pins NoFastPath, "fast" is the
// default engine.
func BenchmarkExploreFastPath(b *testing.B) {
	g, _ := benchGraphs(b)
	s := mustSchema(b, g, "gender")
	ff, err := explore.EdgeTuple(s, []string{"f"}, []string{"f"})
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name   string
		event  graphtempo.EvolutionClass
		sem    explore.Semantics
		ext    explore.Extend
		kind   agg.Kind
		result explore.Measure
		useK   func(min, max int64) int64
	}{
		{"stability-union-min", graphtempo.Stability, graphtempo.UnionSemantics, graphtempo.ExtendNew,
			agg.Distinct, explore.TotalEdges, func(min, max int64) int64 { return max }},
		{"stability-intersect-max", graphtempo.Stability, graphtempo.IntersectionSemantics, graphtempo.ExtendNew,
			agg.Distinct, explore.TotalEdges, func(min, max int64) int64 { return min }},
		{"growth-union-min", graphtempo.Growth, graphtempo.UnionSemantics, graphtempo.ExtendNew,
			agg.Distinct, explore.TotalEdges, func(min, max int64) int64 { return max }},
		{"edge-tuple", graphtempo.Stability, graphtempo.IntersectionSemantics, graphtempo.ExtendNew,
			agg.Distinct, ff, func(min, max int64) int64 { return min }},
		{"all-growth-union-min", graphtempo.Growth, graphtempo.UnionSemantics, graphtempo.ExtendNew,
			agg.All, explore.TotalEdges, func(min, max int64) int64 { return max }},
	}
	for _, tc := range cases {
		ex := &explore.Explorer{Graph: g, Schema: s, Kind: tc.kind, Result: tc.result}
		min, max := ex.InitK(tc.event)
		k := tc.useK(min, max)
		if k < 1 {
			k = 1
		}
		run := func(noFast bool) func(*testing.B) {
			return func(b *testing.B) {
				ex.NoFastPath = noFast
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ex.Explore(tc.event, tc.sem, tc.ext, k)
				}
			}
		}
		b.Run(tc.name+"/seed", run(true))
		b.Run(tc.name+"/fast", run(false))
	}
}

// wholeTimelineUnion is the dashboard panel of bench/'s dash_hot workload:
// the union-ALL aggregate over both halves of the DBLP timeline, which the
// materialization catalog composes from per-point aggregates.
func wholeTimelineUnion(b *testing.B, g *graphtempo.Graph, names ...string) *agg.Graph {
	b.Helper()
	attrs := make([]graphtempo.AttrID, len(names))
	for i, name := range names {
		attrs[i] = g.MustAttr(name)
	}
	ag, _, err := materialize.NewCatalog(g).UnionAll(g.Timeline().All(), attrs...)
	if err != nil {
		b.Fatal(err)
	}
	return ag
}

// BenchmarkWireEncode measures the aggregate-graph wire encoder alone, on
// the three dashboard panels (gender: 2 groups, publications, and their
// product — 26 nodes and ~600 edges at scale 1). The plain rows render one
// graph b.N times, so after the first they time the append of the kept
// bytes a cached panel pays; the /cold rows render a fresh Clone per
// iteration (cloned outside the timer) — the first render, sort, encode and
// the kept copy included — what a one-off answer pays.
func BenchmarkWireEncode(b *testing.B) {
	g, _ := benchGraphs(b)
	for _, tc := range []struct {
		name  string
		attrs []string
	}{{"G", []string{"gender"}}, {"P", []string{"publications"}}, {"GP", []string{"gender", "publications"}}} {
		ag := wholeTimelineUnion(b, g, tc.attrs...)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for i := 0; i < b.N; i++ {
				buf = ag.AppendJSON(buf[:0])
			}
			b.SetBytes(int64(len(buf)))
		})
		b.Run(tc.name+"/cold", func(b *testing.B) {
			// Clones are made 64 at a time: stopping the timer per iteration
			// would cost more than rendering the 2-group G panel.
			b.ReportAllocs()
			var buf []byte
			fresh := make([]*agg.Graph, 64)
			for i := 0; i < b.N; i++ {
				if i%len(fresh) == 0 {
					b.StopTimer()
					for j := range fresh {
						fresh[j] = ag.Clone()
					}
					b.StartTimer()
				}
				buf = fresh[i%len(fresh)].AppendJSON(buf[:0])
			}
			b.SetBytes(int64(len(buf)))
		})
	}
}

// discardResponse is an http.ResponseWriter that drops the body, so the
// serving benchmarks measure the handler and not a recorder's buffer.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// BenchmarkServeCachedPanel drives graphtempod's handler in process with
// the (gender, publications) whole-timeline panel and its TGQL twin: after
// the first request the catalog answers in about a microsecond, so what is
// measured is the request pipeline and the response encoding.
func BenchmarkServeCachedPanel(b *testing.B) {
	g, _ := benchGraphs(b)
	srv, err := server.New(server.Config{Graph: g, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		b.Fatal(err)
	}
	labels := g.Timeline().Labels()
	mid := len(labels) / 2
	first, second := labels[0]+".."+labels[mid-1], labels[mid]+".."+labels[len(labels)-1]
	for _, tc := range []struct{ name, path, body string }{
		{"aggregate", "/v1/aggregate", fmt.Sprintf(
			`{"op":"union","kind":"all","attrs":["gender","publications"],"interval":{"from":%q,"to":%q},"interval2":{"from":%q,"to":%q}}`,
			labels[0], labels[mid-1], labels[mid], labels[len(labels)-1])},
		{"tgql", "/v1/tgql", fmt.Sprintf(`{"query":"AGG ALL gender, publications ON UNION(%s, %s)"}`, first, second)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			serve := func() {
				w := &discardResponse{h: make(http.Header)}
				srv.Handler().ServeHTTP(w, httptest.NewRequest("POST", tc.path, strings.NewReader(tc.body)))
			}
			serve() // fill the catalog and the plan cache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
		})
	}
}

// The benchmarks below are the repeated evolution-family statements of
// bench/'s adhoc_scan workload (schedule.go adhocSchedule), in process on
// DBLP: what EVOLVE, EVENTS, TOP and TIMELINE cost without the server.

// frac is adhocSchedule's at(): the time point frac of the way along a
// T-point timeline.
func frac(T int, f float64) graphtempo.Time { return graphtempo.Time(min(T-1, int(f*float64(T)))) }

// BenchmarkEvolve measures evolution.Aggregate on the two EVOLVE statements
// (two gapped windows on (gender, publications); the two halves on gender)
// and on Fig. 12's filtered shape.
func BenchmarkEvolve(b *testing.B) {
	g, _ := benchGraphs(b)
	tl := g.Timeline()
	T := tl.Len()
	pubs := g.MustAttr("publications")
	high := func(n graphtempo.NodeID, t graphtempo.Time) bool {
		v := g.ValueString(pubs, n, t)
		return len(v) > 1 || (len(v) == 1 && v[0] > '4')
	}
	for _, tc := range []struct {
		name     string
		attrs    []string
		kind     agg.Kind
		old, new graphtempo.Interval
		filter   evolution.Filter
	}{
		{"distGP", []string{"gender", "publications"}, agg.Distinct,
			tl.Range(frac(T, 0.2), frac(T, 0.4)), tl.Range(frac(T, 0.6), frac(T, 0.8)), nil},
		{"allG", []string{"gender"}, agg.All,
			tl.Range(0, frac(T, 0.5)-1), tl.Range(frac(T, 0.5), graphtempo.Time(T-1)), nil},
		{"fig12-filter", []string{"gender"}, agg.Distinct, tl.Range(0, 9), tl.Point(10), high},
	} {
		s := mustSchema(b, g, tc.attrs...)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				evolution.Aggregate(g, tc.old, tc.new, s, tc.kind, tc.filter)
			}
		})
	}
}

// BenchmarkEventsSweep measures analytics.EventsSweep on the three EVENTS
// statements.
func BenchmarkEventsSweep(b *testing.B) {
	g, _ := benchGraphs(b)
	for _, tc := range []struct {
		name  string
		attrs []string
		spec  analytics.EventsSpec
	}{
		{"distG", []string{"gender"}, analytics.EventsSpec{Kind: agg.Distinct}},
		{"allP-w2", []string{"publications"}, analytics.EventsSpec{Kind: agg.All, Width: 2}},
		{"distGP-min50", []string{"gender", "publications"}, analytics.EventsSpec{Kind: agg.Distinct, Min: 50}},
	} {
		tc.spec.Schema = mustSchema(b, g, tc.attrs...)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				analytics.EventsSweep(g, tc.spec)
			}
		})
	}
}

// BenchmarkPaths measures the PATHS frontier engine on the whole timeline
// from 3 random sources to 6 random targets, adhoc_scan's PATHS shape:
// build is the per-plan index NewPathsEngine makes, earliest and fastest
// one Run on a built engine. The graph's point index is built before the
// timer starts: it is paid once per graph, not per statement.
func BenchmarkPaths(b *testing.B) {
	g, _ := benchGraphs(b)
	r := rand.New(rand.NewSource(28))
	pick := func(k int) []core.NodeID {
		out := make([]core.NodeID, k)
		for i := range out {
			out[i] = core.NodeID(r.Intn(g.NumNodes()))
		}
		return out
	}
	spec := analytics.PathsSpec{Mode: analytics.ModeEarliest, Src: pick(3), Dst: pick(6), Window: g.Timeline().All()}
	g.PointIndex().EdgesAt(0)
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			analytics.NewPathsEngine(g, spec)
		}
	})
	for _, mode := range []string{analytics.ModeEarliest, analytics.ModeFastest} {
		spec.Mode = mode
		eng := analytics.NewPathsEngine(g, spec)
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng.Run()
			}
		})
	}
}

// BenchmarkTopEdgeTuples measures the two TOP statements (top 3 gender
// pairs by growth and by shrinkage). The graph's point index is built
// before the timer starts: it is paid once per graph, not per statement.
func BenchmarkTopEdgeTuples(b *testing.B) {
	g, _ := benchGraphs(b)
	s := mustSchema(b, g, "gender")
	for _, tc := range []struct {
		name  string
		event explore.Event
	}{{"growth", evolution.Growth}, {"shrinkage", evolution.Shrinkage}} {
		b.Run(tc.name, func(b *testing.B) {
			ex := &explore.Explorer{Graph: g, Schema: s, Kind: agg.Distinct, Result: explore.TotalEdges}
			explore.TopEdgeTuples(ex, tc.event, 3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				explore.TopEdgeTuples(ex, tc.event, 3)
			}
		})
	}
}

// BenchmarkEvolutionTimeline measures TIMELINE BY gender: the class totals
// of every consecutive pair of years.
func BenchmarkEvolutionTimeline(b *testing.B) {
	g, _ := benchGraphs(b)
	s := mustSchema(b, g, "gender")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evolution.Timeline(g, s, agg.Distinct, nil)
	}
}

// The benchmarks below are the two halves of a one-off scan — what
// bench/'s adhoc_scan aggregates (schedule.go scanShapes) cost in process:
// building the operator's view, then aggregating it on a time-varying
// schema.

// benchLongLived is gtest.LongLivedGraph at benchmark size: 8,000 nodes and
// ~40,000 edges on a timeline of T points, each entity alive for one
// contiguous stretch — multi-word timestamps, and projections over long
// intervals that keep few entities.
func benchLongLived(T int) *graphtempo.Graph {
	r := rand.New(rand.NewSource(7))
	labels := make([]string, T)
	for i := range labels {
		labels[i] = fmt.Sprintf("w%03d", i)
	}
	b := core.NewBuilder(timeline.MustNew(labels...),
		core.AttrSpec{Name: "grp", Kind: core.Static}, core.AttrSpec{Name: "act", Kind: core.TimeVarying})
	const nNodes = 8000
	lo, hi := make([]int, nNodes), make([]int, nNodes)
	for n := 0; n < nNodes; n++ {
		id := b.AddNode(fmt.Sprintf("n%d", n))
		lo[n] = r.Intn(T - 1)
		hi[n] = lo[n] + 1 + r.Intn(T-lo[n])
		b.SetStatic(0, id, fmt.Sprintf("g%d", r.Intn(4)))
		for t := lo[n]; t < hi[n]; t++ {
			b.SetNodeTime(id, timeline.Time(t))
			b.SetVarying(1, id, timeline.Time(t), fmt.Sprintf("a%d", r.Intn(6)))
		}
	}
	for k := 0; k < 8*nNodes; k++ {
		u, v := r.Intn(nNodes), r.Intn(nNodes)
		from, to := max(lo[u], lo[v]), min(hi[u], hi[v])
		if from >= to {
			continue
		}
		e := b.AddEdge(core.NodeID(u), core.NodeID(v))
		for t := from; t < to; t++ {
			b.SetEdgeTime(e, timeline.Time(t))
		}
	}
	return b.MustBuild()
}

// rowMajorView times the reading the constructors replaced: probe τ of every
// node and edge against the interval masks (Exists: τ ∩ T ≠ ∅; ForAll:
// T ⊆ τ), keep the entities that are in a and — per op — in, or not in, b.
// It skips the difference operator's endpoint closure, so it is a lower
// bound; the checked row-major oracle is internal/ops' test file.
func rowMajorView(g *graphtempo.Graph, op string, a, b graphtempo.Sel) (nodes, edges *bitset.Set) {
	in := func(s graphtempo.Sel, tau *bitset.Set) bool {
		if s.ForAll {
			return !s.Interval.IsEmpty() && tau.ContainsAll(s.Interval.Mask())
		}
		return tau.Intersects(s.Interval.Mask())
	}
	keep := func(tau *bitset.Set) bool {
		switch op {
		case "intersection":
			return in(a, tau) && in(b, tau)
		case "difference":
			return in(a, tau) && !in(b, tau)
		default: // project and union take one selector
			return in(a, tau)
		}
	}
	nodes, edges = bitset.New(g.NumNodes()), bitset.New(g.NumEdges())
	for n := 0; n < g.NumNodes(); n++ {
		if keep(g.NodeTau(graphtempo.NodeID(n))) {
			nodes.Add(n)
		}
	}
	for e := 0; e < g.NumEdges(); e++ {
		if keep(g.EdgeTau(graphtempo.EdgeID(e))) {
			edges.Add(e)
		}
	}
	return nodes, edges
}

// BenchmarkViewBuild measures the temporal operators' view construction —
// column algebra over the graph's point index — beside the row-major loops
// it replaced, on DBLP (T = 21, mostly single-point edges) and on a
// long-lived graph (T = 320, multi-word timestamps). project-long keeps the
// < 1 % of entities alive through three quarters of the long timeline.
func BenchmarkViewBuild(b *testing.B) {
	dblp, _ := benchGraphs(b)
	for _, gc := range []struct {
		name string
		g    *graphtempo.Graph
	}{{"dblp", dblp}, {"long320", benchLongLived(320)}} {
		g, tl := gc.g, gc.g.Timeline()
		T := tl.Len()
		last := graphtempo.Time(T - 1)
		all, mid := tl.All(), frac(T, 0.5)
		type shape struct {
			name, op string
			a, b     graphtempo.Sel
			build    func() *graphtempo.View
		}
		shapes := []shape{
			{"project-1pt", "project", graphtempo.ForAllOf(tl.Point(mid)), graphtempo.Sel{},
				func() *graphtempo.View { return graphtempo.Project(g, tl.Point(mid)) }},
			{"union", "union", graphtempo.Exists(all), graphtempo.Sel{},
				func() *graphtempo.View { return graphtempo.Union(g, all, all) }},
			{"intersection", "intersection", graphtempo.Exists(tl.Range(0, mid-1)), graphtempo.Exists(tl.Range(mid, last)),
				func() *graphtempo.View { return graphtempo.Intersection(g, tl.Range(0, mid-1), tl.Range(mid, last)) }},
			{"difference", "difference", graphtempo.Exists(tl.Range(0, last-1)), graphtempo.Exists(tl.Point(last)),
				func() *graphtempo.View { return graphtempo.Difference(g, tl.Range(0, last-1), tl.Point(last)) }},
		}
		if gc.name == "long320" {
			long := tl.Range(frac(T, 0.125), frac(T, 0.875))
			shapes = append(shapes, shape{"project-long", "project", graphtempo.ForAllOf(long), graphtempo.Sel{},
				func() *graphtempo.View { return graphtempo.Project(g, long) }})
		}
		g.PointIndex().NodesAt(0) // paid once per graph, not per view
		for _, sh := range shapes {
			b.Run(gc.name+"/"+sh.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sh.build()
				}
			})
			b.Run(gc.name+"/"+sh.name+"/rowmajor", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rowMajorView(g, sh.op, sh.a, sh.b)
				}
			})
		}
	}
}

// BenchmarkScanVarying measures one-off scans on the time-varying schemas
// of bench/'s scanShapes — DIST and ALL on (gender, publications) and on
// publications — walking the operators and the contiguous ranges of the
// DBLP timeline the way bench/'s scanDraws does (two strides coprime to the
// number of ranges), one scan per iteration: view construction plus
// aggregation. The op/* rows walk one operator each through the four
// (kind, schema) cases and report absorbed_share: the share of the walk's
// selected appearances that the kernel adds from per-point aggregates of
// singles, the entities existing at one point of the graph (default scale:
// union 0.547, intersection 0.335, difference 0.504; DBLP's singles are
// 86 % of its edge appearances and 4 % of its node appearances).
//
// Every row also reports items_per_appearance: the code groups the kernel
// visits per selected appearance of a multi-appearance entity over the
// walk (a kernel without groups visits one item per appearance). Before
// the rows run, the walk is scanned once with DIST, which builds the
// groups, so every row reads grouped points, as a daemon serving both
// kinds does. Default scale: 0.477 on (gender, publications), 0.391 on
// publications.
//
// Spread: 10 alternating runs per binary, -cpu 2, default scale, on a
// 2-vCPU VM, µs/op median [min, max], the parent commit of the code groups
// → with them: distGP 483 [441, 582] → 389 [334, 653], allGP 303 [270,
// 404] → 285 [214, 419], distP 455 [386, 559] → 319 [276, 359], allP 286
// [236, 339] → 202 [166, 241].
func BenchmarkScanVarying(b *testing.B) {
	g, _ := benchGraphs(b)
	tl := g.Timeline()
	var ranges []graphtempo.Interval
	for n := 1; n <= tl.Len(); n++ {
		for i := 0; i+n <= tl.Len(); i++ {
			ranges = append(ranges, tl.Range(graphtempo.Time(i), graphtempo.Time(i+n-1)))
		}
	}
	type opFunc = func(g *graphtempo.Graph, a, b graphtempo.Interval) *graphtempo.View
	ops := []opFunc{graphtempo.Union, graphtempo.Intersection, graphtempo.Difference}
	n := len(ranges) // 231 on DBLP; 89 and 137 are coprime to it
	type scan struct {
		name  string
		kind  graphtempo.AggKind
		attrs []string
	}
	scans := []scan{
		{"distGP", graphtempo.Distinct, []string{"gender", "publications"}},
		{"allGP", graphtempo.All, []string{"gender", "publications"}},
		{"distP", graphtempo.Distinct, []string{"publications"}},
		{"allP", graphtempo.All, []string{"publications"}},
	}
	view := func(op opFunc, i int) *graphtempo.View { return op(g, ranges[(i*89)%n], ranges[(17+i*137)%n]) }
	schemas := make([]*graphtempo.AggSchema, len(scans))
	groups := make([]groupCounts, len(scans))
	for si, tc := range scans {
		schemas[si], groups[si] = mustSchema(b, g, tc.attrs...), groupCounts{}
		var items, multi int
		for i := 0; i < n; i++ { // one period of the walk: 3 divides n
			graphtempo.Aggregate(view(ops[i%len(ops)], i), schemas[si], graphtempo.Distinct)
			it, m := groups[si].items(view(ops[i%len(ops)], i), schemas[si])
			items, multi = items+it, multi+m
		}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				graphtempo.Aggregate(view(ops[i%len(ops)], i), schemas[si], tc.kind)
			}
			b.ReportMetric(float64(items)/float64(max(multi, 1)), "items_per_appearance")
		})
	}
	for oi, name := range []string{"union", "intersection", "difference"} {
		var absorbed, selected, items, multi int
		for i := 0; i < n; i++ {
			a, s := absorbedAppearances(view(ops[oi], i))
			it, m := groups[i%len(scans)].items(view(ops[oi], i), schemas[i%len(scans)])
			absorbed, selected, items, multi = absorbed+a, selected+s, items+it, multi+m
		}
		b.Run("op/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				graphtempo.Aggregate(view(ops[oi], i), schemas[i%len(scans)], scans[i%len(scans)].kind)
			}
			b.ReportMetric(float64(absorbed)/float64(max(selected, 1)), "absorbed_share")
			b.ReportMetric(float64(items)/float64(max(multi, 1)), "items_per_appearance")
		})
	}
}

// groupCounts caches, per (side, point, word) of one schema, the number of
// code groups the scan kernel keeps for the word: the distinct tuple codes
// of the word's multi-appearance entities that have a tuple at the point.
type groupCounts map[[3]int]int

// items counts what the scan kernel visits for v's multi-appearance
// entities under schema s: at each point of v's interval, every group of
// each word in which v selects such an entity (multi, the selected
// appearances of those entities). The parent of the grouped kernel visited
// one item per such appearance.
func (gc groupCounts) items(v *graphtempo.View, s *graphtempo.AggSchema) (items, multi int) {
	g := v.Graph()
	ix := g.PointIndex()
	code := func(id int, t graphtempo.Time, edge bool) int64 {
		if !edge {
			tu, ok := s.TupleAt(graphtempo.NodeID(id), t)
			if !ok {
				return -1
			}
			return int64(tu)
		}
		ep := g.Edge(graphtempo.EdgeID(id))
		fu, ok1 := s.TupleAt(ep.U, t)
		tu, ok2 := s.TupleAt(ep.V, t)
		if !ok1 || !ok2 {
			return -1
		}
		return int64(fu)*s.Domain() + int64(tu)
	}
	mask := v.Times().Mask()
	for t := mask.Next(0); t >= 0; t = mask.Next(t + 1) {
		tt := graphtempo.Time(t)
		for side, sets := range [][3]*bitset.Set{
			{v.Nodes(), ix.NodesAt(tt), ix.MultiNodes()},
			{v.Edges(), ix.EdgesAt(tt), ix.MultiEdges()},
		} {
			sel, col, ms := sets[0], sets[1], sets[2]
			for wi := range col.NumWords() {
				x := col.Word(wi) & ms.Word(wi)
				if x&sel.Word(wi) == 0 {
					continue
				}
				multi += bits.OnesCount64(x & sel.Word(wi))
				key := [3]int{side, t, wi}
				if _, ok := gc[key]; !ok {
					codes := map[int64]bool{}
					for ; x != 0; x &= x - 1 {
						if c := code(wi*64+bits.TrailingZeros64(x), tt, side == 1); c >= 0 {
							codes[c] = true
						}
					}
					gc[key] = len(codes)
				}
				items += gc[key]
			}
		}
	}
	return items, multi
}

// absorbedAppearances counts v's selected appearances and those the scan
// kernel takes from per-point aggregates: at each point of v's interval,
// a side's singles (its entities outside the point index's
// multi-appearance set) when v selects all of them.
func absorbedAppearances(v *graphtempo.View) (absorbed, selected int) {
	ix := v.Graph().PointIndex()
	mask := v.Times().Mask()
	for t := mask.Next(0); t >= 0; t = mask.Next(t + 1) {
		for _, side := range [][3]*bitset.Set{
			{v.Nodes(), ix.NodesAt(graphtempo.Time(t)), ix.MultiNodes()},
			{v.Edges(), ix.EdgesAt(graphtempo.Time(t)), ix.MultiEdges()},
		} {
			sel, col, multi := side[0], side[1], side[2]
			selected += col.CountAnd(sel)
			if singles := col.AndNot(multi); sel.ContainsAll(singles) {
				absorbed += singles.Count()
			}
		}
	}
	return absorbed, selected
}

// contactsStream is bench/'s ingest_audit stream (bench/data.go
// contactsGraph at scale 1, ingestBatches): 240 students in 24 classes,
// ~330 contact edges a day, one batch per day that restates the static
// attributes of each node it lists.
func contactsStream(days int) ([]core.AttrSpec, []server.IngestRequest) {
	g := dataset.SchoolContacts(1, dataset.ContactsParams{
		Days: days, Grades: 6, ClassesPerGrade: 4, StudentsPerClass: 10,
		ContactsPerDay: 330, Homophily: 0.7, MitigationDay: days / 2,
	})
	attrs := g.Attrs()
	out := make([]server.IngestRequest, days)
	for tp := range out {
		out[tp].Label = g.Timeline().Label(timeline.Time(tp))
	}
	for n := 0; n < g.NumNodes(); n++ {
		id := core.NodeID(n)
		static := map[string]string{}
		for ai, spec := range attrs {
			if spec.Kind != core.Static {
				continue
			}
			if c := g.StaticValue(core.AttrID(ai), id); c != dict.None {
				static[spec.Name] = g.Dict(core.AttrID(ai)).Value(c)
			}
		}
		g.NodeTau(id).ForEach(func(tp int) {
			node := server.IngestNode{Label: g.NodeLabel(id), Static: static}
			for ai, spec := range attrs {
				if spec.Kind == core.Static {
					continue
				}
				if c := g.VaryingValue(core.AttrID(ai), id, timeline.Time(tp)); c != dict.None {
					if node.Varying == nil {
						node.Varying = map[string]string{}
					}
					node.Varying[spec.Name] = g.Dict(core.AttrID(ai)).Value(c)
				}
			}
			out[tp].Nodes = append(out[tp].Nodes, node)
		})
	}
	for e := 0; e < g.NumEdges(); e++ {
		ep := g.Edge(core.EdgeID(e))
		edge := server.IngestEdge{U: g.NodeLabel(ep.U), V: g.NodeLabel(ep.V)}
		g.EdgeTau(core.EdgeID(e)).ForEach(func(tp int) { out[tp].Edges = append(out[tp].Edges, edge) })
	}
	return attrs, out
}

// BenchmarkReplayTo times Series.ReplayTo on ingest_audit's contacts
// stream, materialized after every ingest as the server does: at 1x history
// (1,132 days), to txn 283, the deepest cold AS OF pin the workload draws
// (its pins come from the oldest quarter, below the newest checkpoint), and
// to the head; at 4x history, to txn 283 again. Each row reports the
// anchors the series keeps, their estimated size and the live heap.
func BenchmarkReplayTo(b *testing.B) {
	for _, mult := range []int{1, 4} {
		b.Run(fmt.Sprintf("history=%dx", mult), func(b *testing.B) {
			attrs, days := contactsStream(1132 * mult)
			s := stream.New(attrs...)
			for _, d := range days {
				if err := s.Append(d.Label, stream.Snapshot{Nodes: d.Nodes, Edges: d.Edges}); err != nil {
					b.Fatal(err)
				}
				if _, err := s.Graph(); err != nil {
					b.Fatal(err)
				}
			}
			days = nil
			txns := []int{283, 1132}
			if mult > 1 {
				txns = txns[:1]
			}
			for _, txn := range txns {
				b.Run(strconv.Itoa(txn), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := s.ReplayTo(txn); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					runtime.GC()
					runtime.GC()
					var ms runtime.MemStats
					runtime.ReadMemStats(&ms)
					st := s.Anchors()
					b.ReportMetric(float64(st.Count), "anchors")
					b.ReportMetric(float64(st.Bytes)/(1<<20), "anchor_mb")
					b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "live_heap_mb")
				})
			}
		})
	}
}

// BenchmarkServeIngest drives graphtempod's durable ingest handler in
// process: a stream-mode server over a storage engine on a temporary
// directory (-fsync never, so the stages time the daemon's work rather than
// the disk; -checkpoint-records 256, as in ingest_audit) that holds 128
// (1x) or 512 (4x) contact days, then POST /v1/ingest of the following days,
// one per iteration. After 256 ingests the server is rebuilt outside the
// timer, so every timed ingest lands on 1x–3x or 4x–6x history. It reports
// the µs/op of each stage graphtempod_stage_seconds{endpoint="ingest"}
// records and the live heap after the last ingest.
func BenchmarkServeIngest(b *testing.B) {
	const base, span = 128, 256
	attrs, days := contactsStream(4*base + span)
	bodies := make([][]byte, len(days))
	for i, d := range days {
		var err error
		if bodies[i], err = json.Marshal(d); err != nil {
			b.Fatal(err)
		}
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	for _, mult := range []int{1, 4} {
		b.Run(fmt.Sprintf("history=%dx", mult), func(b *testing.B) {
			var (
				eng    *storage.Engine
				srv    *server.Server
				next   int
				stages = map[string]float64{}
			)
			// settle adds the stage sums of the server being retired.
			settle := func() {
				for k, v := range ingestStageSums(b, srv) {
					stages[k] += v
				}
				eng.Close()
			}
			boot := func() {
				var err error
				eng, err = storage.Open(b.TempDir(), attrs, storage.Options{Fsync: storage.FsyncNever, CheckpointRecords: 256, Logger: quiet})
				if err != nil {
					b.Fatal(err)
				}
				for _, d := range days[:mult*base] {
					if err := eng.Append(d.Label, stream.Snapshot{Nodes: d.Nodes, Edges: d.Edges}); err != nil {
						b.Fatal(err)
					}
				}
				if srv, err = server.New(server.Config{Storage: eng, Logger: quiet}); err != nil {
					b.Fatal(err)
				}
				next = mult * base
			}
			boot()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if next == mult*base+span {
					b.StopTimer()
					settle()
					boot()
					b.StartTimer()
				}
				w := httptest.NewRecorder()
				srv.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/v1/ingest", bytes.NewReader(bodies[next])))
				if w.Code != http.StatusOK {
					b.Fatalf("ingest %s: %d %s", days[next].Label, w.Code, w.Body)
				}
				next++
			}
			b.StopTimer()
			runtime.GC()
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "live_heap_mb")
			settle()
			for stage, sec := range stages {
				b.ReportMetric(sec*1e6/float64(b.N), stage+"_us/op")
			}
		})
	}
}

// ingestStageSums scrapes srv's /metrics for the seconds each stage of
// the ingest endpoint has recorded in total.
func ingestStageSums(b *testing.B, srv *server.Server) map[string]float64 {
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	const prefix = `graphtempod_stage_seconds_sum{endpoint="ingest",stage="`
	out := map[string]float64{}
	for _, line := range strings.Split(w.Body.String(), "\n") {
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok {
			continue
		}
		stage, val, _ := strings.Cut(rest, `"} `)
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			b.Fatalf("metrics line %q: %v", line, err)
		}
		out[stage] = v
	}
	return out
}
