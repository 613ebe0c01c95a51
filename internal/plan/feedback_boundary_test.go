package plan

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// TestMateriallyBoundary pins the cardinality hysteresis at its exact
// edge: a 2x move in either direction is material, one short of 2x is
// not, and equal values never are (including the 0→0 case, where the
// lo*2 <= hi comparison would otherwise be trivially true).
func TestMateriallyBoundary(t *testing.T) {
	cases := []struct {
		a, b int
		want bool
	}{
		{4, 8, true},  // exactly 2x growth is material
		{4, 7, false}, // one short of 2x is not
		{8, 4, true},  // exactly half is material (symmetric)
		{9, 5, false}, // just above half is not
		{0, 0, false}, // equal never bumps, even at zero
		{0, 1, true},  // from zero any growth is material
		{1, 0, true},  // collapse to zero likewise
		{100, 199, false},
		{100, 200, true},
	}
	for _, tc := range cases {
		if got := materially(tc.a, tc.b); got != tc.want {
			t.Errorf("materially(%d, %d) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

// TestObserveEpochBoundary drives observe through the hysteresis edges
// and checks the epoch (the plan-cache invalidation signal) moves exactly
// when a dimension crosses 2x — entities and results independently.
func TestObserveEpochBoundary(t *testing.T) {
	f := NewFeedback()
	const key = "k"
	step := func(entities, results, wantEpoch int) {
		t.Helper()
		f.observe(key, entities, results)
		if got := f.epochFor(key); got != wantEpoch {
			t.Fatalf("after observe(%d, %d): epoch = %d, want %d", entities, results, got, wantEpoch)
		}
	}
	step(100, 10, 1) // first observation opens epoch 1
	step(199, 10, 1) // sub-2x entity move: no bump
	step(398, 10, 2) // exactly 2x entities: bump
	step(398, 20, 3) // exactly 2x results: bump
	step(398, 39, 3) // sub-2x results: no bump
	step(199, 39, 4) // exactly half entities (shrink direction): bump
	step(199, 39, 4) // identical observation: never bumps
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
