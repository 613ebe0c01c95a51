package plan_test

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/evolution"
	"repro/internal/explore"
	"repro/internal/materialize"
	"repro/internal/ops"
	"repro/internal/plan"
	"repro/internal/timeline"
)

// The equivalence suite is the refactor's safety net: every statement
// family executed through the planner must be byte-identical to the direct
// engine calls the front ends used to hand-wire, on a synthetic DBLP graph
// large enough to exercise the real kernels.

func dblp(t *testing.T) *core.Graph {
	t.Helper()
	return dataset.DBLPScaled(1, 0.01)
}

func mustJSON(t *testing.T, v interface{}) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func execute(t *testing.T, env plan.Env, node plan.Logical) *plan.Result {
	t.Helper()
	p, err := plan.Compile(env, node)
	if err != nil {
		t.Fatalf("compile %s: %v", node.Key(), err)
	}
	res, err := p.Execute(context.Background())
	if err != nil {
		t.Fatalf("execute %s: %v", node.Key(), err)
	}
	return res
}

// TestAggregateEquivalence routes every temporal operator × kind through
// the planner and compares against direct view aggregation.
func TestAggregateEquivalence(t *testing.T) {
	g := dblp(t)
	tl := g.Timeline()
	schema, err := agg.ByName(g, "gender", "publications")
	if err != nil {
		t.Fatal(err)
	}
	l := func(i int) string { return tl.Label(timeline.Time(i)) }
	a, b := tl.Range(0, 2), tl.Range(1, 3)
	refA := plan.IntervalRef{From: l(0), To: l(2)}
	refB := plan.IntervalRef{From: l(1), To: l(3)}

	for _, op := range []string{plan.OpProject, plan.OpUnion, plan.OpIntersection, plan.OpDifference} {
		for _, kind := range []struct {
			name string
			k    agg.Kind
		}{{"dist", agg.Distinct}, {"all", agg.All}} {
			node := &plan.Aggregate{
				Op:    plan.TemporalOp{Op: op, A: refA},
				Attrs: []string{"gender", "publications"},
				Kind:  kind.name,
			}
			var v *ops.View
			switch op {
			case plan.OpProject:
				v = ops.Project(g, a)
			case plan.OpUnion:
				node.Op.B = refB
				v = ops.Union(g, a, b)
			case plan.OpIntersection:
				node.Op.B = refB
				v = ops.Intersection(g, a, b)
			case plan.OpDifference:
				node.Op.B = refB
				v = ops.Difference(g, a, b)
			}
			res := execute(t, plan.Env{Graph: g}, node)
			want, err := agg.AggregateParallelCtx(context.Background(), v, schema, kind.k, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got, exp := mustJSON(t, res.Agg), mustJSON(t, want); got != exp {
				t.Errorf("%s %s: planner result differs from direct aggregation", op, kind.name)
			}
			if res.AggSource != materialize.Scratch {
				t.Errorf("%s %s: source = %v, want scratch (no catalog)", op, kind.name, res.AggSource)
			}
		}
	}
}

// TestCatalogEquivalence checks the catalog-backed union-ALL operator
// (T-distributive composition) against direct recompute, and that the
// planner reports the serving source.
func TestCatalogEquivalence(t *testing.T) {
	g := dblp(t)
	tl := g.Timeline()
	cat := materialize.NewCatalogWith(g, materialize.CatalogConfig{})
	l := func(i int) string { return tl.Label(timeline.Time(i)) }
	node := &plan.Aggregate{
		Op: plan.TemporalOp{Op: plan.OpUnion,
			A: plan.IntervalRef{From: l(0), To: l(1)},
			B: plan.IntervalRef{From: l(2), To: l(3)}},
		Attrs: []string{"gender"},
		Kind:  "all",
	}
	schema, err := agg.ByName(g, "gender")
	if err != nil {
		t.Fatal(err)
	}
	v := ops.Union(g, tl.Range(0, 1), tl.Range(2, 3))
	want, err := agg.AggregateParallelCtx(context.Background(), v, schema, agg.All, 1)
	if err != nil {
		t.Fatal(err)
	}

	first := execute(t, plan.Env{Graph: g, Catalog: cat}, node)
	if mustJSON(t, first.Agg) != mustJSON(t, want) {
		t.Error("catalog-backed union-ALL differs from direct recompute")
	}
	if first.AggSource != materialize.Scratch {
		t.Errorf("first answer source = %v, want scratch", first.AggSource)
	}
	second := execute(t, plan.Env{Graph: g, Catalog: cat}, node)
	if mustJSON(t, second.Agg) != mustJSON(t, want) {
		t.Error("cached union-ALL differs from direct recompute")
	}
	if second.AggSource != materialize.Cached {
		t.Errorf("second answer source = %v, want cached", second.AggSource)
	}
}

// TestExploreEquivalence checks pairs, threshold and evaluation counts
// against a directly-driven Explorer, and the pairs against the exhaustive
// Explorer.Naive oracle on the seed engine — on many time points, with
// auto-initialized K, under intersection semantics, through the TUNE loop,
// and on two- and one-point coarsenings (at most one candidate per
// traversal, no candidate at all) that run the same engine as every other
// timeline.
func TestExploreEquivalence(t *testing.T) {
	full := dblp(t)
	ctx := context.Background()

	cases := []struct {
		name   string
		points int // coarsen the timeline to this many points; 0 keeps it
		node   *plan.Explore
		event  explore.Event
		sem    explore.Semantics
		ext    explore.Extend
	}{
		{
			name:  "growth_union_k2",
			node:  &plan.Explore{Event: "growth", Attrs: []string{"gender"}, K: 2},
			event: evolution.Growth, sem: explore.UnionSemantics, ext: explore.ExtendNew,
		},
		{
			name: "stability_intersection_old",
			node: &plan.Explore{Event: "stability", Attrs: []string{"gender"},
				Semantics: "intersection", Extend: "old", K: 1},
			event: evolution.Stability, sem: explore.IntersectionSemantics, ext: explore.ExtendOld,
		},
		{
			name:  "shrinkage_auto_k",
			node:  &plan.Explore{Event: "shrinkage", Attrs: []string{"gender"}},
			event: evolution.Shrinkage, sem: explore.UnionSemantics, ext: explore.ExtendNew,
		},
		{
			name:  "growth_tune",
			node:  &plan.Explore{Event: "growth", Attrs: []string{"gender"}, Tune: 3},
			event: evolution.Growth, sem: explore.UnionSemantics, ext: explore.ExtendNew,
		},
		{
			name: "two_points_growth_k1", points: 2,
			node:  &plan.Explore{Event: "growth", Attrs: []string{"gender"}, K: 1},
			event: evolution.Growth, sem: explore.UnionSemantics, ext: explore.ExtendNew,
		},
		{
			name: "two_points_stability_intersection_auto_k", points: 2,
			node: &plan.Explore{Event: "stability", Attrs: []string{"gender"},
				Semantics: "intersection", Extend: "old"},
			event: evolution.Stability, sem: explore.IntersectionSemantics, ext: explore.ExtendOld,
		},
		{
			name: "two_points_shrinkage_tune", points: 2,
			node:  &plan.Explore{Event: "shrinkage", Attrs: []string{"gender"}, Tune: 1},
			event: evolution.Shrinkage, sem: explore.UnionSemantics, ext: explore.ExtendNew,
		},
		{
			name: "one_point_growth_k1", points: 1,
			node:  &plan.Explore{Event: "growth", Attrs: []string{"gender"}, K: 1},
			event: evolution.Growth, sem: explore.UnionSemantics, ext: explore.ExtendNew,
		},
		{
			name: "one_point_stability_tune", points: 1,
			node:  &plan.Explore{Event: "stability", Attrs: []string{"gender"}, Tune: 1},
			event: evolution.Stability, sem: explore.UnionSemantics, ext: explore.ExtendNew,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := full
			if c.points > 0 {
				n := full.Timeline().Len()
				spec, err := core.UniformGroups(full.Timeline(), (n+c.points-1)/c.points)
				if err != nil {
					t.Fatal(err)
				}
				if g, err = core.Coarsen(full, spec); err != nil {
					t.Fatal(err)
				}
				if got := g.Timeline().Len(); got != c.points {
					t.Fatalf("coarse timeline has %d points, want %d", got, c.points)
				}
			}
			schema, err := agg.ByName(g, "gender")
			if err != nil {
				t.Fatal(err)
			}
			res := execute(t, plan.Env{Graph: g}, c.node)

			ex := &explore.Explorer{Graph: g, Schema: schema, Kind: agg.Distinct, Result: explore.TotalEdges}
			k := c.node.K
			var pairs []explore.Pair
			if c.node.Tune > 0 {
				k, pairs, err = ex.TuneKCtx(ctx, c.event, c.sem, c.ext, c.node.Tune)
			} else {
				if k < 1 {
					min, max := ex.InitK(c.event)
					if c.sem == explore.UnionSemantics {
						k = max
					} else {
						k = min
					}
					if k < 1 {
						k = 1
					}
				}
				pairs, err = ex.ExploreCtx(ctx, c.event, c.sem, c.ext, k)
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.K != k {
				t.Errorf("K = %d, want %d", res.K, k)
			}
			if !reflect.DeepEqual(res.Pairs, pairs) {
				t.Errorf("pairs differ:\n got %v\nwant %v", res.Pairs, pairs)
			}
			if res.Evaluations != ex.Evaluations {
				t.Errorf("evaluations = %d, want %d", res.Evaluations, ex.Evaluations)
			}

			oracle := &explore.Explorer{Graph: g, Schema: schema, Kind: agg.Distinct,
				Result: explore.TotalEdges, NoFastPath: true}
			got, want := pairStrings(res.Pairs), pairStrings(oracle.Naive(c.event, c.sem, c.ext, k))
			if !reflect.DeepEqual(got, want) {
				t.Errorf("pairs diverge from the naive oracle at k=%d:\n got %v\nwant %v", k, got, want)
			}
		})
	}
}

// pairStrings renders exploration pairs (intervals and result) for
// representation-independent comparison.
func pairStrings(pairs []explore.Pair) []string {
	out := make([]string, len(pairs))
	for i, p := range pairs {
		out[i] = p.String()
	}
	return out
}

// TestTopEquivalence checks TOP against explore.TopEdgeTuplesCtx.
func TestTopEquivalence(t *testing.T) {
	g := dblp(t)
	schema, err := agg.ByName(g, "gender")
	if err != nil {
		t.Fatal(err)
	}
	res := execute(t, plan.Env{Graph: g}, &plan.Top{N: 3, Event: "stability", Attrs: []string{"gender"}})
	ex := &explore.Explorer{Graph: g, Schema: schema, Kind: agg.Distinct, Result: explore.TotalEdges}
	want, err := explore.TopEdgeTuplesCtx(context.Background(), ex, evolution.Stability, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Top, want) {
		t.Errorf("top differs:\n got %v\nwant %v", res.Top, want)
	}
}

// TestEvolveAndTimelineEquivalence checks the evolution statements,
// including a predicate filter compiled through the shared resolver.
func TestEvolveAndTimelineEquivalence(t *testing.T) {
	g := dblp(t)
	tl := g.Timeline()
	schema, err := agg.ByName(g, "gender")
	if err != nil {
		t.Fatal(err)
	}
	l := func(i int) string { return tl.Label(timeline.Time(i)) }
	preds := []plan.Predicate{{Attr: "publications", Op: ">", Value: "2"}}
	filter, err := plan.CompilePredicates(g, "", preds)
	if err != nil {
		t.Fatal(err)
	}

	res := execute(t, plan.Env{Graph: g}, &plan.Evolve{
		Attrs: []string{"gender"},
		From:  plan.IntervalRef{From: l(0)},
		To:    plan.IntervalRef{From: l(1)},
		Where: preds,
	})
	want := evolution.Aggregate(g, tl.Point(0), tl.Point(1), schema, agg.Distinct, evolution.Filter(filter))
	if mustJSON(t, res.Evolution) != mustJSON(t, want) {
		t.Error("planner evolution aggregate differs from direct call")
	}

	tres := execute(t, plan.Env{Graph: g}, &plan.Timeline{Attrs: []string{"gender"}})
	twant := evolution.Timeline(g, schema, agg.Distinct, nil)
	if !reflect.DeepEqual(tres.Timeline, twant) {
		t.Error("planner timeline differs from direct call")
	}
}
