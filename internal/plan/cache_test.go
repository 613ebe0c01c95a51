package plan

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
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
