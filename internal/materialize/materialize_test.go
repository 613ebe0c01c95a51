package materialize

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/gtest"
	"repro/internal/ops"
	"repro/internal/timeline"
)

// UnionAllLinear is the reference composition: merge the per-point
// map-based aggregates one at a time, O(|interval|) map merges. The dense
// engine is cross-checked against it.
func (st *Store) UnionAllLinear(iv timeline.Interval) *agg.Graph {
	out := &agg.Graph{
		Schema: st.schema,
		Kind:   agg.All,
		Nodes:  make(map[agg.Tuple]int64),
		Edges:  make(map[agg.EdgeKey]int64),
	}
	for _, t := range iv.Times() {
		out.Merge(st.perPoint[t])
	}
	return out
}

// Answered returns the total number of answered requests.
func (s Stats) Answered() int64 {
	return s.Scratch + s.Cached + s.TDistributive + s.DDistributive
}

func TestUnionAllComposition(t *testing.T) {
	g := core.PaperExample()
	tl := g.Timeline()
	s := agg.MustSchema(g, g.MustAttr("gender"), g.MustAttr("publications"))
	st := NewStore(g, s)

	iv := tl.Range(0, 1)
	scratch := agg.Aggregate(ops.Union(g, iv, iv), s, agg.All)
	for name, composed := range map[string]*agg.Graph{
		"prefix": st.UnionAll(iv),
		"linear": st.UnionAllLinear(iv),
	} {
		if !composed.Equal(scratch) {
			t.Fatalf("%s T-distributive composition disagrees:\n%s\nvs\n%s", name, composed, scratch)
		}
		// Spot check the paper's ALL number: w(f,1) = 4 on the union of t0,t1.
		f1, _ := s.Encode("f", "1")
		if composed.NodeWeight(f1) != 4 {
			t.Errorf("%s composed w(f,1) = %d, want 4", name, composed.NodeWeight(f1))
		}
	}
}

func TestUnionAllEmptyAndNonContiguous(t *testing.T) {
	g := core.PaperExample()
	s := agg.MustSchema(g, g.MustAttr("gender"))
	st := NewStore(g, s)
	tl := g.Timeline()

	empty := st.UnionAll(tl.Empty())
	if len(empty.Nodes) != 0 || len(empty.Edges) != 0 {
		t.Errorf("empty interval composed non-empty aggregate: %s", empty)
	}
	// Non-contiguous {t0, t2} decomposes into two runs.
	iv := tl.Of(0, 2)
	want := st.UnionAllLinear(iv)
	if got := st.UnionAll(iv); !got.Equal(want) {
		t.Errorf("prefix composition over %s differs from linear", iv)
	}
}

func TestPointSubsetRollup(t *testing.T) {
	g := core.PaperExample()
	s := agg.MustSchema(g, g.MustAttr("gender"), g.MustAttr("publications"))
	st := NewStore(g, s)
	gender := g.MustAttr("gender")
	for tp := 0; tp < 3; tp++ {
		rolled, err := st.PointSubset(timeline.Time(tp), gender)
		if err != nil {
			t.Fatal(err)
		}
		direct := agg.Aggregate(ops.At(g, timeline.Time(tp)), agg.MustSchema(g, gender), agg.All)
		if !rolled.Equal(direct) {
			t.Errorf("t%d: rollup disagrees with direct", tp)
		}
	}
}

func TestStorePanicsOnForeignSchema(t *testing.T) {
	g1 := core.PaperExample()
	g2 := core.PaperExample()
	s := agg.MustSchema(g2, g2.MustAttr("gender"))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewStore(g1, s)
}

func TestCatalogSources(t *testing.T) {
	g := core.PaperExample()
	tl := g.Timeline()
	gender := g.MustAttr("gender")
	pubs := g.MustAttr("publications")

	c := NewCatalog(g)
	// Nothing materialized: scratch.
	_, src, err := c.UnionAll(tl.Range(0, 1), gender)
	if err != nil {
		t.Fatal(err)
	}
	if src != Scratch {
		t.Errorf("source = %v, want scratch", src)
	}
	// Same request again: cached.
	_, src, _ = c.UnionAll(tl.Range(0, 1), gender)
	if src != Cached {
		t.Errorf("source = %v, want cached", src)
	}
	// Materialize (gender): T-distributive for other intervals.
	if _, err := c.Materialize(gender); err != nil {
		t.Fatal(err)
	}
	got, src, _ := c.UnionAll(tl.Range(0, 2), gender)
	if src != TDistributive {
		t.Errorf("source = %v, want t-distributive", src)
	}
	want := agg.Aggregate(ops.Union(g, tl.Range(0, 2), tl.Range(0, 2)), agg.MustSchema(g, gender), agg.All)
	if !got.Equal(want) {
		t.Error("t-distributive answer differs from scratch")
	}
	// Materialize (gender, pubs): single-point subset requests roll up.
	if _, err := c.Materialize(gender, pubs); err != nil {
		t.Fatal(err)
	}
	gotP, src, _ := c.UnionAll(tl.Point(2), pubs)
	if src != DDistributive {
		t.Errorf("source = %v, want d-distributive", src)
	}
	wantP := agg.Aggregate(ops.At(g, 2), agg.MustSchema(g, pubs), agg.All)
	if !gotP.Equal(wantP) {
		t.Error("d-distributive answer differs from scratch")
	}
	st := c.Stats()
	if st.Scratch != 1 || st.Cached != 1 || st.TDistributive != 1 || st.DDistributive != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Answered() != 4 {
		t.Errorf("answered = %d, want 4", st.Answered())
	}
	if st.Stores != 2 {
		t.Errorf("stores = %d, want 2", st.Stores)
	}
	if st.CacheEntries != 3 || st.CacheBytes <= 0 {
		t.Errorf("cache residency = %d entries / %d bytes", st.CacheEntries, st.CacheBytes)
	}
}

func TestCatalogBadAttrs(t *testing.T) {
	g := core.PaperExample()
	c := NewCatalog(g)
	if _, err := c.Materialize(); err == nil {
		t.Error("Materialize with no attributes should fail")
	}
	if _, _, err := c.UnionAll(g.Timeline().Point(0)); err == nil {
		t.Error("UnionAll with no attributes should fail")
	}
	if st := c.Stats(); st.Answered() != 0 {
		t.Errorf("failed requests were counted: %+v", st)
	}
}

func TestCatalogEviction(t *testing.T) {
	g := core.PaperExample()
	// A budget far below one aggregate's footprint: every result is evicted
	// immediately, so repeats recompute instead of hitting the cache.
	c := NewCatalogWith(g, CatalogConfig{MaxBytes: 1, Shards: 1})
	gender := g.MustAttr("gender")
	for i := 0; i < 3; i++ {
		if _, _, err := c.UnionAll(g.Timeline().Range(0, 1), gender); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Cached != 0 {
		t.Errorf("cached answers under a zero budget: %+v", st)
	}
	if st.Scratch != 3 {
		t.Errorf("scratch = %d, want 3", st.Scratch)
	}
	if st.CacheEvictions < 3 {
		t.Errorf("evictions = %d, want >= 3", st.CacheEvictions)
	}
}

// TestCatalogConcurrentHammer drives a catalog from 16 goroutines mixing
// UnionAll (varied intervals and attribute sets), Materialize and Stats —
// the -race workload of the concurrent serving layer. Every answer is
// checked against a serially computed reference.
func TestCatalogConcurrentHammer(t *testing.T) {
	g := core.PaperExample()
	tl := g.Timeline()
	gender := g.MustAttr("gender")
	pubs := g.MustAttr("publications")

	type query struct {
		iv    timeline.Interval
		attrs []core.AttrID
	}
	var queries []query
	for a := 0; a < tl.Len(); a++ {
		for b := a; b < tl.Len(); b++ {
			iv := tl.Range(timeline.Time(a), timeline.Time(b))
			queries = append(queries,
				query{iv, []core.AttrID{gender}},
				query{iv, []core.AttrID{pubs}},
				query{iv, []core.AttrID{gender, pubs}})
		}
	}
	want := make([]*agg.Graph, len(queries))
	for i, q := range queries {
		s := agg.MustSchema(g, q.attrs...)
		want[i] = agg.Aggregate(ops.Union(g, q.iv, q.iv), s, agg.All)
	}

	c := NewCatalogWith(g, CatalogConfig{MaxBytes: 1 << 20, Shards: 4})
	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w%4 == 0 { // some workers race store materialization
				if _, err := c.Materialize(gender); err != nil {
					errs <- err
					return
				}
			}
			for rep := 0; rep < 3; rep++ {
				for off := 0; off < len(queries); off++ {
					i := (off + w*7) % len(queries)
					got, _, err := c.UnionAll(queries[i].iv, queries[i].attrs...)
					if err != nil {
						errs <- err
						return
					}
					if !got.Equal(want[i]) {
						errs <- fmt.Errorf("worker %d: wrong answer for query %d", w, i)
						return
					}
				}
				c.Stats()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := c.Stats()
	if got := st.Answered(); got != int64(workers*3*len(queries)) {
		t.Errorf("answered = %d, want %d", got, workers*3*len(queries))
	}
}

// TestQuickDenseEqualsLinear is the randomized equivalence of the dense
// composition engines against the linear map-merge reference: random
// graphs, random attribute subsets, random (possibly non-contiguous)
// intervals.
func TestQuickDenseEqualsLinear(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := gtest.RandomGraph(r, gtest.DefaultParams())
		if g.NumAttrs() == 0 {
			return true
		}
		// Random non-empty attribute subset in random order.
		perm := r.Perm(g.NumAttrs())
		n := 1 + r.Intn(g.NumAttrs())
		attrs := make([]core.AttrID, n)
		for i := 0; i < n; i++ {
			attrs[i] = core.AttrID(perm[i])
		}
		s := agg.MustSchema(g, attrs...)
		st := NewStore(g, s)
		for trial := 0; trial < 4; trial++ {
			var iv timeline.Interval
			if trial%2 == 0 {
				iv = gtest.RandomInterval(r, g.Timeline())
			} else {
				// Arbitrary point set: exercises the run decomposition.
				var ts []timeline.Time
				for p := 0; p < g.Timeline().Len(); p++ {
					if r.Intn(2) == 0 {
						ts = append(ts, timeline.Time(p))
					}
				}
				iv = g.Timeline().Of(ts...)
			}
			want := st.UnionAllLinear(iv)
			if !st.UnionAll(iv).Equal(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTDistributiveEqualsScratch(t *testing.T) {
	// §4.3's claim: union + non-distinct aggregation is T-distributive.
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
		s := agg.MustSchema(g, attrs...)
		st := NewStore(g, s)
		iv := gtest.RandomInterval(r, g.Timeline())
		composed := st.UnionAll(iv)
		scratch := agg.Aggregate(ops.Union(g, iv, iv), s, agg.All)
		return composed.Equal(scratch)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCatalogAnswersMatchScratch(t *testing.T) {
	// Whatever is materialized, a single-point request on any attribute
	// list equals the from-scratch aggregate, and it is rolled up
	// (D-distributive) exactly when some store's attributes cover the
	// request and no store holds the list itself.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := gtest.RandomGraph(r, gtest.DefaultParams())
		if g.NumAttrs() == 0 {
			return true
		}
		randomAttrs := func() []core.AttrID {
			perm := r.Perm(g.NumAttrs())
			attrs := make([]core.AttrID, 1+r.Intn(g.NumAttrs()))
			for i := range attrs {
				attrs[i] = core.AttrID(perm[i])
			}
			return attrs
		}
		c := NewCatalog(g)
		var stored [][]core.AttrID
		for n := r.Intn(4); n > 0; n-- {
			attrs := randomAttrs()
			if _, err := c.Materialize(attrs...); err != nil {
				return false
			}
			stored = append(stored, attrs)
		}
		asked := map[string]bool{}
		for trial := 0; trial < 6; trial++ {
			attrs := randomAttrs()
			tp := timeline.Time(r.Intn(g.Timeline().Len()))
			got, src, err := c.UnionAll(g.Timeline().Point(tp), attrs...)
			if err != nil {
				return false
			}
			want := agg.Aggregate(ops.At(g, tp), agg.MustSchema(g, attrs...), agg.All)
			if !got.Equal(want) {
				return false
			}
			exact, superset := false, false
			for _, st := range stored {
				exact = exact || attrsKey(st) == attrsKey(attrs)
				superset = superset || covers(st, attrs)
			}
			wantSrc := Scratch
			switch key := fmt.Sprint(attrs, tp); {
			case asked[key]:
				wantSrc = Cached
			case exact:
				wantSrc = TDistributive
			case superset:
				wantSrc = DDistributive
			}
			asked[fmt.Sprint(attrs, tp)] = true
			if src != wantSrc {
				t.Logf("seed %d: %v@%d answered from %v, want %v (stores %v)", seed, attrs, tp, src, wantSrc, stored)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDistinctNotTDistributiveWitness(t *testing.T) {
	// §4.3 also notes DIST union aggregates are NOT T-distributive: find a
	// witness where summing per-point DIST aggregates over-counts.
	found := false
	for seed := int64(0); seed < 300 && !found; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := gtest.RandomGraph(r, gtest.DefaultParams())
		if g.NumAttrs() == 0 {
			continue
		}
		attrs := make([]core.AttrID, g.NumAttrs())
		for i := range attrs {
			attrs[i] = core.AttrID(i)
		}
		s := agg.MustSchema(g, attrs...)
		iv := g.Timeline().All()
		summed := &agg.Graph{Schema: s, Kind: agg.Distinct,
			Nodes: map[agg.Tuple]int64{}, Edges: map[agg.EdgeKey]int64{}}
		for tp := 0; tp < g.Timeline().Len(); tp++ {
			summed.Merge(agg.Aggregate(ops.At(g, timeline.Time(tp)), s, agg.Distinct))
		}
		scratch := agg.Aggregate(ops.Union(g, iv, iv), s, agg.Distinct)
		if !summed.Equal(scratch) {
			found = true
		}
	}
	if !found {
		t.Fatal("no witness that DIST is not T-distributive")
	}
}
