package agg

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gtest"
	"repro/internal/ops"
	"repro/internal/timeline"
)

// varyingSchemas returns the schemas of g with at least one time-varying
// attribute: each varying attribute alone, and — the mixed
// case — with every static attribute before it and after it.
func varyingSchemas(t *testing.T, g *core.Graph) []*Schema {
	t.Helper()
	var static, varying []core.AttrID
	for a, spec := range g.Attrs() {
		if spec.Kind == core.Static {
			static = append(static, core.AttrID(a))
		} else {
			varying = append(varying, core.AttrID(a))
		}
	}
	var out []*Schema
	for _, v := range varying {
		sets := [][]core.AttrID{{v}}
		if len(static) > 0 {
			sets = append(sets, append(append([]core.AttrID(nil), static...), v), append([]core.AttrID{v}, static...))
		}
		if len(varying) > 1 {
			sets = append(sets, varying)
		}
		for _, attrs := range sets {
			out = append(out, MustSchema(g, attrs...))
		}
	}
	return out
}

// scanViews are the views a kernel row is checked on: every operator on
// random contiguous and gapped operands, a single point, and a projection
// over a long stretch of the timeline (few entities, many columns).
func scanViews(r *rand.Rand, g *core.Graph) []*ops.View {
	tl := g.Timeline()
	r1, r2 := gtest.RandomRange(r, tl), gtest.RandomRange(r, tl)
	g1, g2 := gtest.RandomInterval(r, tl), gtest.RandomInterval(r, tl)
	return []*ops.View{
		ops.Union(g, tl.All(), tl.All()),
		ops.Union(g, r1, g1),
		ops.Intersection(g, r1, r2),
		ops.Intersection(g, g1, g2),
		ops.Difference(g, r1, r2),
		ops.Difference(g, g2, g1),
		ops.At(g, timeline.Time(r.Intn(tl.Len()))),
		ops.Project(g, tl.Range(timeline.Time(tl.Len()/8), timeline.Time(tl.Len()-1-tl.Len()/8))),
		ops.Project(g, tl.Empty()),
	}
}

// TestTimeMajorKernelMatchesMapEngine: on time-varying and mixed schemas the
// time-major kernel gives, value for value, what the entity-major map engine
// gives — DIST and ALL; serial, 2–5 shard workers, and shards cut at id
// bounds that are not multiples of 64 — on random graphs, multi-word
// timelines with missing values, accumulator-built graphs whose value rows
// and index columns were frozen before later nodes joined, and synthetic
// DBLP. (The literal Algorithm 2 of package larray checks the same kernel
// through Aggregate in larray's own equivalence test.)
func TestTimeMajorKernelMatchesMapEngine(t *testing.T) {
	defer forceParallel(t)()
	r := rand.New(rand.NewSource(31))
	wide := gtest.DefaultParams()
	wide.MaxNodes, wide.MaxEdges, wide.MaxTimes = 200, 700, 10
	graphs := map[string]*core.Graph{
		"long-lived-320":             gtest.LongLivedGraph(r, 320),
		"accumulated-long-lived-130": gtest.Accumulated(gtest.LongLivedGraph(r, 130)),
		"dblp":                       dataset.DBLPScaled(1, 0.05),
		"accumulated-dblp":           gtest.Accumulated(dataset.DBLPScaled(2, 0.03)),
	}
	for i := 0; i < 20; i++ {
		graphs[fmt.Sprintf("random-%d", i)] = gtest.RandomGraph(r, gtest.DefaultParams())
		graphs[fmt.Sprintf("wide-%d", i)] = gtest.RandomGraph(r, wide)
		graphs[fmt.Sprintf("accumulated-%d", i)] = gtest.Accumulated(gtest.RandomGraph(r, wide))
	}
	rows := 0
	for name, g := range graphs {
		for _, s := range varyingSchemas(t, g) {
			for vi, v := range scanViews(r, g) {
				for _, kind := range []Kind{Distinct, All} {
					what := fmt.Sprintf("%s %v view %d %s", name, s.AttrNames(), vi, kind)
					want := AggregateMap(v, s, kind)
					if got := Aggregate(v, s, kind); !got.Equal(want) {
						t.Fatalf("%s: serial kernel\n%s\nmap engine\n%s", what, got, want)
					}
					workers := 2 + r.Intn(4)
					if got := aggregateParallel(v, s, kind, workers); !got.Equal(want) {
						t.Fatalf("%s: %d workers\n%s\nmap engine\n%s", what, workers, got, want)
					}
					if got := aggregateInPieces(r, v, s, kind); !got.Equal(want) {
						t.Fatalf("%s: unaligned shards\n%s\nmap engine\n%s", what, got, want)
					}
					rows++
				}
			}
		}
	}
	if rows < 1000 {
		t.Fatalf("only %d rows checked: the generators stopped producing time-varying schemas", rows)
	}
}

// aggregateInPieces shards the id spaces at random bounds — almost never a
// multiple of 64 — and merges the pieces the way the parallel engine does.
func aggregateInPieces(r *rand.Rand, v *ops.View, s *Schema, kind Kind) *Graph {
	cuts := func(n int) []int {
		out := []int{0}
		for n > 0 && len(out) < 4 {
			out = append(out, out[len(out)-1]+r.Intn(n-out[len(out)-1]+1))
		}
		return append(out, n)
	}
	out := &Graph{Schema: s, Kind: kind, Nodes: map[Tuple]int64{}, Edges: map[EdgeKey]int64{}}
	nc, ec := cuts(s.g.NumNodes()), cuts(s.g.NumEdges())
	for i := 0; i+1 < len(nc) || i+1 < len(ec); i++ {
		nLo, nHi, eLo, eHi := 0, 0, 0, 0
		if i+1 < len(nc) {
			nLo, nHi = nc[i], nc[i+1]
		}
		if i+1 < len(ec) {
			eLo, eHi = ec[i], ec[i+1]
		}
		part := &Graph{Schema: s, Kind: kind}
		aggregateRangeCtx(context.Background(), v, s, kind, nil, part, nLo, nHi, eLo, eHi)
		out.Merge(part)
	}
	return out
}

// TestProjectEmptyIntervalAggregatesToNothing is the aggregation end of the
// empty-projection fix: no entity has an empty timestamp (Definition 2.1),
// so the DIST aggregate of Project(g, ∅) has no groups — it used to count
// every node and edge of the graph once.
func TestProjectEmptyIntervalAggregatesToNothing(t *testing.T) {
	g := core.PaperExample()
	v := ops.Project(g, g.Timeline().Empty())
	for _, names := range [][]string{{"gender"}, {"publications"}, {"gender", "publications"}} {
		s, err := ByName(g, names...)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []Kind{Distinct, All} {
			for name, ag := range map[string]*Graph{"kernel": Aggregate(v, s, kind), "map": AggregateMap(v, s, kind)} {
				if len(ag.Nodes) != 0 || len(ag.Edges) != 0 {
					t.Errorf("%v %s (%s engine) of an empty projection:\n%s", names, kind, name, ag)
				}
			}
		}
	}
}

// lateCtx passes the engine's entry check and is canceled from then on: the
// first probe inside the kernel sees it.
type lateCtx struct {
	context.Context
	asked bool
}

func (c *lateCtx) Done() <-chan struct{} {
	done := make(chan struct{})
	close(done)
	return done
}

func (c *lateCtx) Err() error {
	if !c.asked {
		c.asked = true
		return nil
	}
	return context.Canceled
}

// TestTimeMajorKernelCancellation: a context canceled before the call, one
// canceled between the entry check and the kernel's first probe, and a
// cancellation that lands at every later probe of a scan all return
// ctx.Err() / stop the kernel without a result — and leave the pooled
// scratch clean, so the schema's next aggregation is exact.
func TestTimeMajorKernelCancellation(t *testing.T) {
	g := dataset.DBLPScaled(1, 0.05)
	all := g.Timeline().All()
	v := ops.Union(g, all, all)
	for _, names := range [][]string{{"publications"}, {"gender", "publications"}} {
		s, err := ByName(g, names...)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []Kind{Distinct, All} {
			want := AggregateMap(v, s, kind)
			exact := func(after string) {
				t.Helper()
				if got := Aggregate(v, s, kind); !got.Equal(want) {
					t.Fatalf("%v %s: aggregate after %s is off: the scratch was returned dirty\n%s\nwant\n%s", names, kind, after, got, want)
				}
			}
			pre, cancel := context.WithCancel(context.Background())
			cancel()
			if ag, err := AggregateParallelCtx(pre, v, s, kind, 1); ag != nil || err != context.Canceled {
				t.Fatalf("pre-canceled: (%v, %v), want (nil, context.Canceled)", ag, err)
			}
			exact("a pre-canceled call")
			for _, workers := range []int{1, 3} {
				if ag, err := AggregateParallelCtx(&lateCtx{Context: context.Background()}, v, s, kind, workers); ag != nil || err != context.Canceled {
					t.Fatalf("canceled at the first probe, %d workers: (%v, %v), want (nil, context.Canceled)", workers, ag, err)
				}
				exact("a call canceled at its first probe")
			}
			// Cancel at the k'th probe, for every k the scan reaches. ALL
			// streams appearances point by point; DIST adds the per-point
			// aggregates of the view's singles first and counts the rest in
			// dedupe, so its cancellations must land inside dedupe's loop,
			// after it deduplicated some words.
			partial := 0
			for k, stopped := 1, true; stopped; k++ {
				probes := 0
				sc := s.getScratch()
				gen0 := sc.gen
				stopped = !denseVarying(v, s, kind, nil, sc, 0, g.NumNodes(), 0, g.NumEdges(), func() bool {
					probes++
					return probes >= k
				})
				landed := sc.nodes.Len()+sc.edges.Len() > 0
				if kind == Distinct {
					landed = sc.gen > gen0
				}
				if stopped && landed {
					partial++
				}
				s.putScratch(sc)
				exact(fmt.Sprintf("a scan canceled at probe %d", k))
				if k > 10000 {
					t.Fatal("the kernel never runs to completion")
				}
			}
			if partial < 10 {
				t.Fatalf("%v %s: only %d cancellations landed mid-accumulation", names, kind, partial)
			}
		}
	}
}
