package plan

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/materialize"
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

// TestCacheGenerationFlush checks that swapping the (graph, catalog) pair
// flushes every cached plan: plans bind resolved views to one graph.
func TestCacheGenerationFlush(t *testing.T) {
	g1 := core.PaperExample()
	g2 := core.PaperExample()
	cache := NewCache(0)

	p1, err := Compile(Env{Graph: g1, Cache: cache}, aggNode("gender"))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Compile(Env{Graph: g2, Cache: cache}, aggNode("gender"))
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Error("plan served across a graph swap")
	}
	if cache.Len() != 1 {
		t.Errorf("cache has %d plans after flush, want 1", cache.Len())
	}

	// A catalog change is a generation change too.
	cat := materialize.NewCatalogWith(g2, materialize.CatalogConfig{})
	if _, err := Compile(Env{Graph: g2, Catalog: cat, Cache: cache}, aggNode("gender")); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 1 {
		t.Errorf("cache has %d plans after catalog swap, want 1", cache.Len())
	}
}

// TestCacheAdvanceSuffixInvalidation checks the append-only rebind path:
// Advance keeps bounded plans over the clean prefix, evicts bounded plans
// reaching the dirty suffix and every unbounded plan, and degrades
// retired-generation traffic to misses instead of flushes.
func TestCacheAdvanceSuffixInvalidation(t *testing.T) {
	g1 := core.PaperExample()
	g2 := core.PaperExample() // stands in for the extended snapshot
	cache := NewCache(0)
	env := Env{Graph: g1, Cache: cache}

	prefix := aggNode("gender") // touches t0,t1 → maxTime 1
	suffix := &Aggregate{
		Op:    TemporalOp{Op: OpUnion, A: IntervalRef{From: "t0"}, B: IntervalRef{From: "t2"}},
		Attrs: []string{"gender"},
		Kind:  "all",
	} // touches t2 → maxTime 2
	unbounded := &Timeline{Attrs: []string{"gender"}}

	pPrefix, err := Compile(env, prefix)
	if err != nil {
		t.Fatal(err)
	}
	if !pPrefix.bounded || pPrefix.maxTime != 1 {
		t.Fatalf("prefix plan span = (bounded=%v, maxTime=%d), want (true, 1)", pPrefix.bounded, pPrefix.maxTime)
	}
	pSuffix, err := Compile(env, suffix)
	if err != nil {
		t.Fatal(err)
	}
	if !pSuffix.bounded || pSuffix.maxTime != 2 {
		t.Fatalf("suffix plan span = (bounded=%v, maxTime=%d), want (true, 2)", pSuffix.bounded, pSuffix.maxTime)
	}
	pUnbounded, err := Compile(env, unbounded)
	if err != nil {
		t.Fatal(err)
	}
	if pUnbounded.bounded {
		t.Fatal("timeline plan must be unbounded")
	}

	// Advance with first dirty point 2: the t0,t1 plan survives, the plan
	// reaching t2 and the whole-timeline plan go.
	kept, evicted := cache.Advance(g2, nil, 2)
	if kept != 1 || evicted != 2 {
		t.Fatalf("Advance kept %d evicted %d, want 1/2", kept, evicted)
	}
	env2 := Env{Graph: g2, Cache: cache}
	got, err := Compile(env2, prefix)
	if err != nil {
		t.Fatal(err)
	}
	if got != pPrefix {
		t.Error("clean-prefix plan was not served across the advance")
	}
	if p2, err := Compile(env2, suffix); err != nil {
		t.Fatal(err)
	} else if p2 == pSuffix {
		t.Error("suffix-dirty plan served stale across the advance")
	}

	// Retired-generation traffic: a miss and a dropped store, never a flush.
	before := cache.Len()
	if p := cache.lookup(g1, nil, prefix.Key()); p != nil {
		t.Error("retired-generation lookup returned a plan")
	}
	cache.store(g1, nil, unbounded.Key(), pUnbounded)
	if cache.Len() != before {
		t.Errorf("retired-generation traffic changed the cache: %d → %d entries", before, cache.Len())
	}
	if got, err := Compile(env2, prefix); err != nil || got != pPrefix {
		t.Errorf("current-generation hit lost after retired traffic (err=%v)", err)
	}
}

// TestCacheBounded checks FIFO eviction at the entry bound.
func TestCacheBounded(t *testing.T) {
	g := core.PaperExample()
	cache := NewCache(2)
	env := Env{Graph: g, Cache: cache}
	for _, attr := range []string{"gender", "publications"} {
		if _, err := Compile(env, aggNode(attr)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Compile(env, &Top{N: 1, Event: "growth", Attrs: []string{"gender"}}); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 2 {
		t.Errorf("cache has %d plans, want bound of 2", cache.Len())
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

// TestCacheAdvanceConcurrentOldGeneration races Advance against sustained
// compile/lookup/store traffic on the outgoing generation. Run under
// -race this checks the retired-generation degradation is merely a miss:
// old-generation stores are dropped, old-generation lookups return nil,
// and the clean-prefix plan carried across the advance keeps being served
// to the new generation throughout.
func TestCacheAdvanceConcurrentOldGeneration(t *testing.T) {
	g1 := core.PaperExample()
	g2 := core.PaperExample() // stands in for the appended snapshot
	cache := NewCache(0)
	env1 := Env{Graph: g1, Cache: cache}

	pPrefix, err := Compile(env1, aggNode("gender")) // maxTime 1: survives Advance(…, 2)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	attrs := []string{"gender", "publications"}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				node := aggNode(attrs[n%2])
				p, err := Compile(env1, node)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := p.Execute(context.Background()); err != nil {
					t.Error(err)
					return
				}
				// Raw cache traffic on the (soon to be) retired generation.
				cache.lookup(g1, nil, node.Key())
				cache.store(g1, nil, node.Key(), p)
			}
		}()
	}

	time.Sleep(2 * time.Millisecond) // let the old-generation traffic spin up
	cache.Advance(g2, nil, 2)

	env2 := Env{Graph: g2, Cache: cache}
	for i := 0; i < 50; i++ {
		got, err := Compile(env2, aggNode("gender"))
		if err != nil {
			t.Fatal(err)
		}
		if got != pPrefix {
			t.Fatalf("iteration %d: clean-prefix plan lost under concurrent retired traffic", i)
		}
	}
	close(stop)
	wg.Wait()

	// With traffic stopped: the retired generation still misses, and the
	// current generation still hits.
	if p := cache.lookup(g1, nil, aggNode("gender").Key()); p != nil {
		t.Error("retired-generation lookup returned a plan after the advance")
	}
	if got, err := Compile(env2, aggNode("gender")); err != nil || got != pPrefix {
		t.Errorf("current-generation hit lost after concurrent traffic (err=%v)", err)
	}
}
