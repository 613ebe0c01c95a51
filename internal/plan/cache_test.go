package plan

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/timeline"
)

func aggNode(attr string) *Aggregate {
	return &Aggregate{
		Op:    TemporalOp{Op: OpUnion, A: IntervalRef{From: "t0"}, B: IntervalRef{From: "t1"}},
		Attrs: []string{attr},
		Kind:  "all",
	}
}

// TestCacheHit checks that recompiling the same canonical query returns
// the identical plan.
func TestCacheHit(t *testing.T) {
	g := core.PaperExample()
	cache := NewCache(0)
	env := Env{Graph: g, Cache: cache}

	p1, err := Compile(env, aggNode("gender"))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Compile(env, aggNode("gender"))
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("identical query recompiled instead of served from cache")
	}
	if cache.Len() != 1 {
		t.Errorf("cache has %d plans, want 1", cache.Len())
	}
}

// TestCacheNormalization checks that the cache keys on the canonical
// logical text: differently-spelled equivalent queries share one plan.
// (The front ends normalize case and sugar before building the IR; here
// two IR nodes with equivalent kind spellings land on the same key.)
func TestCacheNormalization(t *testing.T) {
	g := core.PaperExample()
	cache := NewCache(0)
	env := Env{Graph: g, Cache: cache}

	n1 := aggNode("gender")
	n1.Kind = "all"
	n2 := aggNode("gender")
	n2.Kind = "ALL"
	p1, err := Compile(env, n1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Compile(env, n2)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Errorf("equivalent spellings compiled to distinct plans (keys %q vs %q)", n1.Key(), n2.Key())
	}
}

// TestCacheBounded: a state's plans and answers stay within its byte
// budget, and an answer larger than the whole budget is served but not
// kept — the next call runs the operator again.
func TestCacheBounded(t *testing.T) {
	g := core.PaperExample()
	const budget = 3 << 9
	cache := NewCache(budget)
	env := Env{Graph: g, Cache: cache}
	answer := func(node Logical) (*Result, bool) {
		t.Helper()
		p, err := Compile(env, node)
		if err != nil {
			t.Fatal(err)
		}
		res, memo, err := p.Answer(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st := cache.plans.Stats(); st.Bytes > budget {
			t.Fatalf("%s: %d resident bytes, budget %d", node.Key(), st.Bytes, budget)
		}
		return res, memo
	}
	for n := 1; n <= 8; n++ {
		answer(&Top{N: n, Event: "growth", Attrs: []string{"gender"}})
	}
	if st := cache.plans.Stats(); st.Evictions == 0 {
		t.Fatalf("8 plans and answers fit %d bytes: the budget bound nothing (%+v)", budget, st)
	}
	big := &Aggregate{
		Op:    TemporalOp{Op: OpUnion, A: IntervalRef{From: "t0"}, B: IntervalRef{From: "t2"}},
		Attrs: []string{"gender", "publications"},
	}
	first, _ := answer(big)
	if bp, _ := Compile(env, big); planBytes(bp.root)+first.bytes() <= budget {
		t.Fatalf("the answer takes %d bytes: not larger than the %d-byte budget", first.bytes(), budget)
	}
	again, memo := answer(big)
	if memo {
		t.Fatal("an answer larger than the budget was kept")
	}
	if !first.Agg.Equal(again.Agg) {
		t.Fatal("the recomputed answer differs")
	}
}

// TestCacheChargesViews: a plan keeps its views, whose bitsets span the
// whole graph, so filling one state with distinct one-off scans holds the
// heap near the state's budget. Charging a plan a flat size instead admits
// every scan here, and the views alone take several times the budget.
func TestCacheChargesViews(t *testing.T) {
	g := dataset.DBLPScaled(1, 0.5)
	const budget = 512 << 10
	scan := func(cache *Cache, a, b int) {
		t.Helper()
		p, err := Compile(Env{Graph: g, Cache: cache}, &Aggregate{
			Op: TemporalOp{Op: OpUnion,
				A: IntervalRef{From: g.Timeline().Label(timeline.Time(a))},
				B: IntervalRef{From: g.Timeline().Label(timeline.Time(b))}},
			Attrs: []string{"gender"},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := p.Answer(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	scan(NewCache(budget), 0, 1) // builds the graph's per-point indices and tuple codes
	cache := NewCache(budget)
	before := heap()
	points := g.Timeline().Len()
	for a := 0; a < points; a++ {
		for b := 0; b < points; b++ {
			scan(cache, a, b)
		}
	}
	grown := int64(heap()) - int64(before)
	if st := cache.plans.Stats(); st.Bytes > budget || st.Evictions == 0 {
		t.Fatalf("%d scans: %+v, budget %d", points*points, st, budget)
	}
	if grown > 2*budget {
		t.Fatalf("%d one-off scans grew the heap by %d bytes, budget %d", points*points, grown, budget)
	}
	runtime.KeepAlive(cache)
}

// TestCacheKeepsHotStatement: eviction is least-recently-used, so a
// statement asked again and again stays memoized while more than 256
// distinct one-off scans pass through the same state and push each other
// out of a budget that holds a few dozen (a FIFO evicts it).
func TestCacheKeepsHotStatement(t *testing.T) {
	g := core.PaperExample()
	cache := NewCache(64 << 10)
	env := Env{Graph: g, Cache: cache}
	hot := &Aggregate{
		Op:    TemporalOp{Op: OpIntersection, A: IntervalRef{From: "t0"}, B: IntervalRef{From: "t1"}},
		Attrs: []string{"gender"},
	}
	ask := func(node Logical) bool {
		t.Helper()
		p, err := Compile(env, node)
		if err != nil {
			t.Fatal(err)
		}
		_, memo, err := p.Answer(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return memo
	}
	ask(hot)
	runs := Selections.DenseAgg.Value()
	for n := 1; n <= 300; n++ {
		ask(&Top{N: n, Event: "stability", Attrs: []string{"gender"}})
		if n%25 == 0 && !ask(hot) {
			t.Fatalf("the hot statement was evicted after %d one-off scans", n)
		}
	}
	if got := Selections.DenseAgg.Value() - runs; got != 0 {
		t.Fatalf("the hot statement ran %d more times", got)
	}
	if cache.plans.Stats().Evictions == 0 {
		t.Fatal("the one-off scans evicted nothing: the test exercised no eviction")
	}
}

// expiringCtx passes its first n Err polls and then reports an expired
// deadline, so a run that polls is cancelled in the middle.
type expiringCtx struct {
	context.Context
	n     int32
	polls atomic.Int32
}

func (c *expiringCtx) Err() error {
	if c.polls.Add(1) > c.n {
		return context.DeadlineExceeded
	}
	return nil
}

// TestCancelledAnswerKeepsNothing: a run whose deadline expires midway
// memoizes nothing, and the next call computes the complete answer.
func TestCancelledAnswerKeepsNothing(t *testing.T) {
	g := core.PaperExample()
	for _, node := range []Logical{
		&Aggregate{Op: TemporalOp{Op: OpIntersection, A: IntervalRef{From: "t0"}, B: IntervalRef{From: "t1"}}, Attrs: []string{"gender"}},
		&Explore{Event: "stability", Attrs: []string{"gender"}, K: 1},
		&Top{N: 2, Event: "growth", Attrs: []string{"gender"}},
		&Timeline{Attrs: []string{"gender"}},
		&Events{Attrs: []string{"gender"}},
		&Evolve{Attrs: []string{"gender"}, From: IntervalRef{From: "t0"}, To: IntervalRef{From: "t1"}},
	} {
		cache := NewCache(0)
		p, err := Compile(Env{Graph: g, Cache: cache}, node)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := p.Answer(&expiringCtx{Context: context.Background(), n: 2}); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: a run cancelled midway returned %v", node.Key(), err)
		}
		if p.answer.Load() != nil || cache.plans.Stats().Bytes > planBytes(p.root)+int64(len(p.key))+64 {
			t.Fatalf("%s: the cancelled run memoized an answer", node.Key())
		}
		got, memo, err := p.Answer(context.Background())
		if err != nil || memo {
			t.Fatalf("%s: after a cancelled run: memo %v, err %v", node.Key(), memo, err)
		}
		want, err := p.Execute(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		got.Elapsed, want.Elapsed = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the answer after a cancelled run is incomplete", node.Key())
		}
		if again, memo, _ := p.Answer(context.Background()); !memo || again != got {
			t.Fatalf("%s: the complete answer was not memoized", node.Key())
		}
	}
}

// TestConcurrentAnswer: 16 goroutines answering one cold plan at once all
// get an equal answer, one of them is kept, and every later call returns
// it; under -race this checks the memo's publication.
func TestConcurrentAnswer(t *testing.T) {
	g := core.PaperExample()
	p, err := Compile(Env{Graph: g, Cache: NewCache(0)}, &Events{Attrs: []string{"gender"}})
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*Result, 16)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, _, err := p.Answer(context.Background())
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	kept, memo, err := p.Answer(context.Background())
	if err != nil || !memo {
		t.Fatalf("after 16 concurrent answers: memo %v, err %v", memo, err)
	}
	for i, r := range results {
		if r != nil && !reflect.DeepEqual(r.Events, kept.Events) {
			t.Errorf("goroutine %d got a different answer", i)
		}
	}
}

// TestCacheSkipsErrors checks that failed compiles are never cached: a
// correction of the query must not replay the failure, and a failing
// spelling re-resolves each time (error positions depend on query text).
func TestCacheSkipsErrors(t *testing.T) {
	g := core.PaperExample()
	cache := NewCache(0)
	env := Env{Graph: g, Cache: cache}
	if _, err := Compile(env, aggNode("nope")); err == nil {
		t.Fatal("unknown attribute compiled")
	}
	if cache.Len() != 0 {
		t.Errorf("failed compile cached (%d entries)", cache.Len())
	}
}

// TestConcurrentExecute hammers one compiled plan from many goroutines;
// run under -race this checks that compiled state is execution-immutable
// (fresh engines per run, shared point index built once).
func TestConcurrentExecute(t *testing.T) {
	g := core.PaperExample()
	cache := NewCache(0)
	env := Env{Graph: g, Cache: cache}

	nodes := []Logical{
		aggNode("gender"),
		&Explore{Event: "stability", Attrs: []string{"gender"}, K: 1},
		&Top{N: 2, Event: "growth", Attrs: []string{"gender"}},
		&Timeline{Attrs: []string{"gender"}},
	}
	for _, node := range nodes {
		p, err := Compile(env, node)
		if err != nil {
			t.Fatal(err)
		}
		base, err := p.Execute(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		results := make([]*Result, 8)
		for i := range results {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				r, err := p.Execute(context.Background())
				if err != nil {
					t.Error(err)
					return
				}
				results[i] = r
			}(i)
		}
		wg.Wait()
		base.Elapsed = 0 // a measurement, not part of the answer
		for i, r := range results {
			if r == nil {
				continue // error already reported
			}
			if r.Elapsed = 0; !reflect.DeepEqual(r, base) {
				t.Errorf("%s: concurrent execution %d diverged", node.Key(), i)
			}
		}
	}
}
