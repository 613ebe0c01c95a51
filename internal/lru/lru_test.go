package lru

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestGetPut(t *testing.T) {
	c := New[int](Config{})
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache returned a value")
	}
	c.Put("a", 1, 8)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	c.Put("a", 2, 8) // overwrite
	if v, _ := c.Get("a"); v != 2 {
		t.Fatalf("overwrite lost: %d", v)
	}
	if n := c.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
}

func TestLRUEviction(t *testing.T) {
	// One shard so the eviction order is fully observable. Each entry
	// costs 100 declared bytes + 1 key byte + overhead.
	per := int64(100 + 1 + entryOverhead)
	c := New[int](Config{MaxBytes: 3 * per, Shards: 1})
	c.Put("a", 1, 100)
	c.Put("b", 2, 100)
	c.Put("c", 3, 100)
	c.Get("a") // refresh a: b is now least recent
	c.Put("d", 4, 100)
	if _, ok := c.Get("b"); ok {
		t.Error("least-recently-used entry b survived over budget")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("entry %s evicted unexpectedly", k)
		}
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}

func TestDoComputesOnceAndCaches(t *testing.T) {
	c := New[string](Config{})
	calls := 0
	compute := func() (string, error) { calls++; return "v", nil }
	size := func(s string) int64 { return int64(len(s)) }
	v, cached, err := c.Do("k", size, compute)
	if v != "v" || cached || err != nil {
		t.Fatalf("first Do = %q, %v, %v", v, cached, err)
	}
	v, cached, err = c.Do("k", size, compute)
	if v != "v" || !cached || err != nil {
		t.Fatalf("second Do = %q, %v, %v", v, cached, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c := New[int](Config{})
	wantErr := fmt.Errorf("boom")
	_, _, err := c.Do("k", func(int) int64 { return 0 }, func() (int, error) { return 0, wantErr })
	if err != wantErr {
		t.Fatalf("err = %v", err)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("error result was cached")
	}
	v, cached, err := c.Do("k", func(int) int64 { return 0 }, func() (int, error) { return 7, nil })
	if v != 7 || cached || err != nil {
		t.Fatalf("retry Do = %d, %v, %v", v, cached, err)
	}
}

func TestDoSingleflight(t *testing.T) {
	c := New[int](Config{})
	var computes atomic.Int64
	gate := make(chan struct{})
	const workers = 16
	var wg sync.WaitGroup
	results := make([]int, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do("k", func(int) int64 { return 8 }, func() (int, error) {
				computes.Add(1)
				<-gate // hold every concurrent caller in flight
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	close(gate)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times under concurrency, want 1", n)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("worker %d got %d", i, v)
		}
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Misses)
	}
	if st.Deduped+st.Hits != workers-1 {
		t.Errorf("deduped+hits = %d, want %d", st.Deduped+st.Hits, workers-1)
	}
}

// TestRenew: a renewed cache starts empty with the same budget, the old
// cache keeps its entries, and both count into one set of totals.
func TestRenew(t *testing.T) {
	c := New[int](Config{MaxBytes: 4 * (10 + 1 + entryOverhead), Shards: 1})
	c.Put("a", 1, 10)
	c.Put("b", 2, 10)
	c.Get("a")
	r := c.Renew()
	if r.Len() != 0 {
		t.Fatalf("Len after renew = %d", r.Len())
	}
	if st := r.Stats(); st.Bytes != 0 || st.Entries != 0 || st.Hits != 1 {
		t.Fatalf("renewed stats = %+v, want empty with the old hit", st)
	}
	if v, ok := c.Get("b"); !ok || v != 2 {
		t.Fatalf("old cache lost b: %v %v", v, ok)
	}
	for _, k := range []string{"c", "d", "e", "f", "g"} {
		r.Put(k, 0, 10)
	}
	old, renewed := c.Stats(), r.Stats()
	if renewed.Evictions != 1 || renewed.Entries != 4 {
		t.Fatalf("renewed cache: %+v, want 4 entries and 1 eviction at its own budget", renewed)
	}
	if old.Hits != 2 || old.Evictions != renewed.Evictions || old.Entries != 2 {
		t.Fatalf("old cache: %+v, want its 2 entries and the shared totals", old)
	}
}

func TestConcurrentMixedOps(t *testing.T) {
	c := New[int](Config{MaxBytes: 1 << 16, Shards: 4})
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (w*7+i)%64)
				switch i % 4 {
				case 0:
					c.Put(key, i, 64)
				case 1:
					c.Get(key)
				case 2:
					c.Do(key, func(int) int64 { return 64 }, func() (int, error) { return i, nil })
				default:
					c.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	// Budget respected after the dust settles.
	if st := c.Stats(); st.Bytes > 1<<16 {
		t.Errorf("resident bytes %d exceed budget", st.Bytes)
	}
}
