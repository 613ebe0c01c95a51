package plan_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/timeline"
)

// wideGraph builds a small graph whose single static attribute has a wide
// value domain (80 values over 12 nodes).
func wideGraph(t *testing.T) *core.Graph {
	t.Helper()
	tl := timeline.MustNew("t0", "t1", "t2", "t3")
	b := core.NewBuilder(tl, core.AttrSpec{Name: "team", Kind: core.Static})
	// Register the full value domain through a throwaway node's history of
	// static overwrites is not possible (static is single-valued), so give
	// the dictionary its width with real nodes first.
	const nNodes = 12
	for n := 0; n < nNodes; n++ {
		id := b.AddNode(fmt.Sprintf("n%d", n))
		for tt := 0; tt < 4; tt++ {
			b.SetNodeTime(id, timeline.Time(tt))
		}
		b.SetStatic(0, id, fmt.Sprintf("team%02d", n))
	}
	// Widen the dictionary beyond the node count: a few nodes re-assigned
	// through fresh values leave earlier values in the domain.
	for v := nNodes; v < 80; v++ {
		b.SetStatic(0, core.NodeID(v%nNodes), fmt.Sprintf("team%02d", v))
	}
	for n := 0; n < nNodes-1; n++ {
		e := b.AddEdge(core.NodeID(n), core.NodeID(n+1))
		for tt := 0; tt < 4; tt++ {
			b.SetEdgeTime(e, timeline.Time(tt))
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func aggNode() *plan.Aggregate {
	return &plan.Aggregate{
		Op: plan.TemporalOp{
			Op: plan.OpUnion,
			A:  plan.IntervalRef{From: "t0", To: "t1"},
			B:  plan.IntervalRef{From: "t2", To: "t3"},
		},
		Attrs: []string{"team"},
		Kind:  "dist",
	}
}

// TestFeedbackRecordsObservations: executing a view aggregation with a
// feedback store records the observed cardinalities, retrievable under the
// logical key.
func TestFeedbackRecordsObservations(t *testing.T) {
	g := wideGraph(t)
	fb := plan.NewFeedback()
	node := aggNode()
	p, err := plan.Compile(plan.Env{Graph: g, Feedback: fb}, node)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fb.Lookup(node.Key()); ok {
		t.Fatal("observation recorded before any execution")
	}
	res, err := p.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	obs, ok := fb.Lookup(node.Key())
	if !ok {
		t.Fatal("execution recorded no observation")
	}
	wantResults := len(res.Agg.Nodes) + len(res.Agg.Edges)
	if obs.Results != wantResults || obs.Entities == 0 || obs.Executions != 1 {
		t.Fatalf("observation %+v, want results=%d, entities>0, executions=1", obs, wantResults)
	}
	if _, err := p.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	if obs, _ = fb.Lookup(node.Key()); obs.Executions != 2 {
		t.Fatalf("second execution not counted: %+v", obs)
	}
}

// TestFeedbackInvalidatesCachedPlan: a cached plan compiled before any
// observation must be recompiled once feedback arrives — the observation
// bumps the key's epoch, turning the next lookup into a miss.
func TestFeedbackInvalidatesCachedPlan(t *testing.T) {
	g := wideGraph(t)
	fb := plan.NewFeedback()
	cache := plan.NewCache(0)
	env := plan.Env{Graph: g, Feedback: fb, Cache: cache}
	node := aggNode()

	first, err := plan.Compile(env, node)
	if err != nil {
		t.Fatal(err)
	}
	again, err := plan.Compile(env, node)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Fatal("identical unobserved compiles did not share the cached plan")
	}
	if _, err := first.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	adapted, err := plan.Compile(env, node)
	if err != nil {
		t.Fatal(err)
	}
	if adapted == first {
		t.Fatal("observation did not invalidate the cached plan")
	}
	// The adapted plan is itself cached under the new epoch.
	stable, err := plan.Compile(env, node)
	if err != nil {
		t.Fatal(err)
	}
	if stable != adapted {
		t.Fatal("adapted plan not served from the cache on a stable observation")
	}
}

// TestFeedbackSerialDemotion exercises the merge-bound demotion through
// the exported seeding hook: an observed output cardinality within 4x of
// the entity count demotes the compile to serial, and Explain names it.
func TestFeedbackSerialDemotion(t *testing.T) {
	g := wideGraph(t)
	fb := plan.NewFeedback()
	env := plan.Env{Graph: g, Feedback: fb}
	node := aggNode()

	// Entities past the engine crossover, results within the merge bound.
	n := agg.ParallelMinEntities()
	plan.SeedObservationForTest(fb, node.Key(), 2*n, n)
	p, err := plan.Compile(env, node)
	if err != nil {
		t.Fatal(err)
	}
	if s := p.Explain(); !strings.Contains(s, "mode=serial") || !strings.Contains(s, "feedback=serial(merge-bound)") {
		t.Fatalf("merge-bound observation did not demote to serial:\n%s", s)
	}

	// A selective query (few result tuples) is not demoted.
	fb2 := plan.NewFeedback()
	plan.SeedObservationForTest(fb2, node.Key(), 2*n, 8)
	env.Feedback = fb2
	p, err = plan.Compile(env, node)
	if err != nil {
		t.Fatal(err)
	}
	if s := p.Explain(); strings.Contains(s, "serial(merge-bound)") {
		t.Fatalf("selective observation wrongly demoted:\n%s", s)
	}
}

// TestFeedbackReset: a reset drops observations, returning compiles to
// their unobserved selections.
func TestFeedbackReset(t *testing.T) {
	fb := plan.NewFeedback()
	plan.SeedObservationForTest(fb, "k", 100, 100)
	if _, ok := fb.Lookup("k"); !ok {
		t.Fatal("seeded observation missing")
	}
	fb.Reset()
	if _, ok := fb.Lookup("k"); ok {
		t.Fatal("observation survived Reset")
	}
}
