package materialize

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/gtest"
	"repro/internal/ops"
	"repro/internal/stream"
	"repro/internal/timeline"
)

// retroSnap builds a one-node ingest batch for the retro tests.
func retroSnap(node, gender, pubs string, peers ...string) stream.Snapshot {
	s := stream.Snapshot{Nodes: []stream.NodeRecord{{
		Label:   node,
		Static:  map[string]string{"gender": gender},
		Varying: map[string]string{"publications": pubs},
	}}}
	for _, p := range peers {
		s.Nodes = append(s.Nodes, stream.NodeRecord{
			Label:   p,
			Static:  map[string]string{"gender": "f"},
			Varying: map[string]string{"publications": "1"},
		})
		s.Edges = append(s.Edges, stream.EdgeRecord{U: node, V: p})
	}
	return s
}

func retroSeries(t *testing.T) *stream.Series {
	t.Helper()
	s := stream.New(
		core.AttrSpec{Name: "gender", Kind: core.Static},
		core.AttrSpec{Name: "publications", Kind: core.TimeVarying},
	)
	for i, batch := range []struct {
		label string
		snap  stream.Snapshot
	}{
		{"t0", retroSnap("u1", "m", "3", "u2")},
		{"t1", retroSnap("u1", "m", "1", "u2", "u3")},
		{"t2", retroSnap("u2", "f", "2", "u3")},
	} {
		if err := s.Append(batch.label, batch.snap); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	return s
}

func seriesGraph(t *testing.T, s *stream.Series) *core.Graph {
	t.Helper()
	g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestAdvanceRetroExtendsStores splices a retroactive point into a catalog
// with live stores and requires the extended stores to match a rebuild.
func TestAdvanceRetroExtendsStores(t *testing.T) {
	s := retroSeries(t)
	g := seriesGraph(t, s)
	cat := NewCatalog(g)
	attrs := []core.AttrID{g.MustAttr("gender")}
	if _, err := cat.Materialize(attrs...); err != nil {
		t.Fatal(err)
	}
	both := []core.AttrID{g.MustAttr("gender"), g.MustAttr("publications")}
	if _, err := cat.Materialize(both...); err != nil {
		t.Fatal(err)
	}

	// Retro batch: existing nodes only (u2 appears at t0/t1/t2 already),
	// so entity identities are stable and stores can splice.
	if _, err := s.AppendAt("t0b", retroSnap("u2", "f", "4"), "t1"); err != nil {
		t.Fatal(err)
	}
	newG := seriesGraph(t, s)
	stats, err := cat.Advance(newG)
	if err != nil {
		t.Fatalf("Advance: %v", err)
	}
	if cat.Graph() != g {
		t.Fatal("Advance moved the catalog off its graph")
	}
	cat = stats.Catalog
	if stats.NewPoints != 1 || stats.FirstDirty != 1 {
		t.Fatalf("stats = %+v, want NewPoints=1 FirstDirty=1", stats)
	}
	if stats.Extended+stats.Rebuilt != 2 {
		t.Fatalf("stats = %+v, want 2 stores touched", stats)
	}
	if cat.Graph() != newG {
		t.Fatal("the successor catalog does not serve the new graph")
	}

	r := rand.New(rand.NewSource(11))
	st, ok := cat.store(attrsKey(attrs))
	if !ok {
		t.Fatal("gender store vanished across the advance")
	}
	checkStoreEquivalence(t, r, newG, st, attrs)
	st2, ok := cat.store(attrsKey(both))
	if !ok {
		t.Fatal("gender+publications store vanished across the advance")
	}
	checkStoreEquivalence(t, r, newG, st2, both)
}

// TestRetiredCatalogAnswersItsOwnGraph: a request that reaches a catalog
// after a retroactive advance replaced it answers over that catalog's graph,
// through a store and through scratch, and nothing it computes reaches the
// successor, which answers over the new graph from a fresh cache.
func TestRetiredCatalogAnswersItsOwnGraph(t *testing.T) {
	s := retroSeries(t)
	g1 := seriesGraph(t, s)
	c1 := NewCatalog(g1)
	gender := []core.AttrID{g1.MustAttr("gender")}
	both := []core.AttrID{g1.MustAttr("gender"), g1.MustAttr("publications")}
	if _, err := c1.Materialize(gender...); err != nil { // both stays scratch
		t.Fatal(err)
	}
	if _, err := s.AppendAt("t0b", retroSnap("u2", "f", "4"), "t1"); err != nil {
		t.Fatal(err)
	}
	g2 := seriesGraph(t, s)
	adv, err := c1.Advance(g2)
	if err != nil {
		t.Fatal(err)
	}
	c2 := adv.Catalog
	scratch := func(g *core.Graph, iv timeline.Interval, attrs []core.AttrID) []byte {
		return mustJSON(t, agg.Aggregate(ops.Union(g, iv, iv), agg.MustSchema(g, attrs...), agg.All))
	}
	iv1 := g1.Timeline().Range(1, 2) // [t1,t2] on the old timeline
	for _, attrs := range [][]core.AttrID{gender, both} {
		got, _, err := c1.UnionAll(iv1, attrs...)
		if err != nil {
			t.Fatal(err)
		}
		if want := scratch(g1, iv1, attrs); !bytes.Equal(mustJSON(t, got), want) {
			t.Errorf("retired catalog, %v over %s:\n%s\nwant\n%s", attrs, iv1, mustJSON(t, got), want)
		}
	}
	if n := c2.Stats().CacheEntries; n != 0 {
		t.Errorf("the successor holds %d results the retired catalog computed", n)
	}
	iv2 := g2.Timeline().Range(2, 3) // [t1,t2] on the new timeline
	for _, attrs := range [][]core.AttrID{gender, both} {
		got, src, err := c2.UnionAll(iv2, attrs...)
		if err != nil {
			t.Fatal(err)
		}
		if src == Cached {
			t.Errorf("successor answered %v over %s from cache", attrs, iv2)
		}
		if want := scratch(g2, iv2, attrs); !bytes.Equal(mustJSON(t, got), want) {
			t.Errorf("successor, %v over %s:\n%s\nwant\n%s", attrs, iv2, mustJSON(t, got), want)
		}
	}
}

// TestAdvanceRetroTailAndMiddle mixes a trailing append into the same
// retro delta: both points are inserts relative to the old timeline.
func TestAdvanceRetroTailAndMiddle(t *testing.T) {
	s := retroSeries(t)
	g := seriesGraph(t, s)
	cat := NewCatalog(g)
	attrs := []core.AttrID{g.MustAttr("gender")}
	if _, err := cat.Materialize(attrs...); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendAt("t1b", retroSnap("u3", "f", "2"), "t2"); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("t3", retroSnap("u1", "m", "2")); err != nil {
		t.Fatal(err)
	}
	newG := seriesGraph(t, s)
	stats, err := cat.Advance(newG)
	if err != nil {
		t.Fatalf("Advance: %v", err)
	}
	cat = stats.Catalog
	if stats.NewPoints != 2 || stats.FirstDirty != 2 {
		t.Fatalf("stats = %+v, want NewPoints=2 FirstDirty=2", stats)
	}
	st, _ := cat.store(attrsKey(attrs))
	checkStoreEquivalence(t, rand.New(rand.NewSource(12)), newG, st, attrs)
}

// TestAdvanceRetroRebuildOnRenumber: a retro batch that introduces a NEW
// node renumbers every node first seen after the insert position — the
// incremental path must refuse and the caller rebuilds.
func TestAdvanceRetroRebuildOnRenumber(t *testing.T) {
	s := retroSeries(t)
	g := seriesGraph(t, s)
	cat := NewCatalog(g)
	if _, err := cat.Materialize(g.MustAttr("gender")); err != nil {
		t.Fatal(err)
	}
	// u9 is new and lands before t1: u3 (first seen at t1) shifts by one.
	if _, err := s.AppendAt("t0b", retroSnap("u9", "m", "7"), "t1"); err != nil {
		t.Fatal(err)
	}
	_, err := cat.Advance(seriesGraph(t, s))
	if !errors.Is(err, ErrNotExtension) {
		t.Fatalf("Advance = %v, want ErrNotExtension", err)
	}
}

// TestAdvanceRetroRejectsDroppedPoint: the new timeline must contain the
// old one as a subsequence.
func TestAdvanceRetroRejectsDroppedPoint(t *testing.T) {
	s := retroSeries(t)
	g := seriesGraph(t, s)
	cat := NewCatalog(g)

	s2 := stream.New(s.Attrs()...)
	if err := s2.Append("t0", retroSnap("u1", "m", "3", "u2")); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Advance(seriesGraph(t, s2)); !errors.Is(err, ErrNotExtension) {
		t.Fatalf("Advance onto a timeline that drops points = %v, want ErrNotExtension", err)
	}
}

// TestInsertAtSplicesVector checks the store-level splice directly: the
// inserted point is aggregated fresh, old points keep their objects.
func TestInsertAtSplicesVector(t *testing.T) {
	s := retroSeries(t)
	g := seriesGraph(t, s)
	attrs := []core.AttrID{g.MustAttr("gender")}
	st := NewStore(g, agg.MustSchema(g, attrs...))
	oldPoints := []*agg.Graph{st.perPoint[0], st.perPoint[1], st.perPoint[2]}

	if _, err := s.AppendAt("t0b", retroSnap("u2", "f", "4"), "t1"); err != nil {
		t.Fatal(err)
	}
	newG := seriesGraph(t, s)
	next, err := st.Extend(newG, []int{1})
	if err != nil {
		t.Fatalf("Extend: %v", err)
	}
	// Old per-point aggregates are position-shifted, not recomputed.
	if next.perPoint[0] != oldPoints[0] || next.perPoint[2] != oldPoints[1] || next.perPoint[3] != oldPoints[2] {
		t.Fatal("Extend recomputed aggregates that should have been carried over")
	}
	scratch := NewStore(newG, agg.MustSchema(newG, attrs...))
	for tp := 0; tp < 4; tp++ {
		got, want := mustJSON(t, next.perPoint[tp]), mustJSON(t, scratch.perPoint[tp])
		if !bytes.Equal(got, want) {
			t.Fatalf("point %d diverged after splice:\n%s\nvs\n%s", tp, got, want)
		}
	}

	// Shape errors: wrong insert count does not bridge the timelines.
	if _, err := st.Extend(newG, []int{1, 2}); err == nil {
		t.Fatal("Extend with excess positions succeeded")
	}
}

// historyPoint renders time point tp of a random history: node i is present
// with probability 2/3 from its first point on (always at that first point),
// carries a fixed static colour and a varying load drawn from a domain that
// widens with tp — so late points grow the dictionary when they arrive and
// re-order it when they arrive early.
func historyPoint(seed int64, tp int, firstSeen []int, colours []string) stream.Snapshot {
	r := rand.New(rand.NewSource(seed*1000 + int64(tp)))
	var snap stream.Snapshot
	var alive []string
	for i, first := range firstSeen {
		if tp < first || tp > first && r.Intn(3) == 0 {
			continue
		}
		label := fmt.Sprintf("n%d", i)
		alive = append(alive, label)
		snap.Nodes = append(snap.Nodes, stream.NodeRecord{
			Label:   label,
			Static:  map[string]string{"colour": colours[i]},
			Varying: map[string]string{"load": fmt.Sprintf("l%d", r.Intn(2+tp/3))},
		})
	}
	seen := map[stream.EdgeRecord]bool{}
	for k := 0; k < 2*len(alive); k++ {
		e := stream.EdgeRecord{U: alive[r.Intn(len(alive))], V: alive[r.Intn(len(alive))]}
		if e.U != e.V && !seen[e] {
			seen[e] = true
			snap.Edges = append(snap.Edges, e)
		}
	}
	return snap
}

// TestAdvanceRandomHistories drives the one Advance with histories whose
// points arrive out of valid order: tail appends, mid-timeline inserts and
// single advances that carry both. After every step the catalog must be
// indistinguishable from a scratch catalog over the new graph, FirstDirty is
// the lowest arrived position, the result cache survives exactly the
// suffix-only steps, and a refusal (a late-born node arriving early renumbers
// its successors) is typed and leaves the old graph serving.
func TestAdvanceRandomHistories(t *testing.T) {
	const points = 12
	var splices, suffixes, refusals int
	for seed := int64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		firstSeen := make([]int, 5+r.Intn(6))
		colours := make([]string, len(firstSeen))
		for i := range firstSeen {
			colours[i] = fmt.Sprintf("c%d", r.Intn(3))
			if seed%3 == 0 && r.Intn(4) == 0 {
				firstSeen[i] = 1 + r.Intn(points-1) // late-born: may force a refusal
			}
		}
		s := stream.New(
			core.AttrSpec{Name: "colour", Kind: core.Static},
			core.AttrSpec{Name: "load", Kind: core.TimeVarying},
		)
		label := func(tp int) string { return fmt.Sprintf("t%02d", tp) }
		if err := s.Append(label(0), historyPoint(seed, 0, firstSeen, colours)); err != nil {
			t.Fatal(err)
		}
		g := seriesGraph(t, s)
		attrSets := [][]core.AttrID{{g.MustAttr("colour")}, {g.MustAttr("load")}, {g.MustAttr("colour"), g.MustAttr("load")}}
		withStores := func(cat *Catalog) *Catalog {
			for _, as := range attrSets {
				if _, err := cat.Materialize(as...); err != nil {
					t.Fatal(err)
				}
			}
			return cat
		}
		cat := withStores(NewCatalog(g))

		arrived := []int{0}
		order := r.Perm(points - 1)
		for len(order) > 0 {
			oldG, oldN := cat.Graph(), len(arrived)
			// Warm the result cache with the whole old timeline.
			whole := oldG.Timeline().All()
			if _, _, err := cat.UnionAll(whole, attrSets[0]...); err != nil {
				t.Fatal(err)
			}
			firstDirty := -1
			for batch := 1 + r.Intn(2); batch > 0 && len(order) > 0; batch-- {
				tp := order[0] + 1
				order = order[1:]
				at := sort.SearchInts(arrived, tp)
				before := ""
				if at < len(arrived) {
					before = label(arrived[at])
				}
				if _, err := s.AppendAt(label(tp), historyPoint(seed, tp, firstSeen, colours), before); err != nil {
					t.Fatalf("seed %d: ingest %s before %q: %v", seed, label(tp), before, err)
				}
				arrived = slices.Insert(arrived, at, tp)
			}
			for i, tp := range arrived {
				if _, ok := oldG.Timeline().TimeOf(label(tp)); !ok {
					firstDirty = i
					break
				}
			}
			newG := seriesGraph(t, s)
			stats, err := cat.Advance(newG)
			if err != nil {
				if !errors.Is(err, ErrNotExtension) {
					t.Fatalf("seed %d: Advance = %v, want success or ErrNotExtension", seed, err)
				}
				if cat.Graph() != oldG {
					t.Fatalf("seed %d: refused advance moved the catalog off its graph", seed)
				}
				refusals++
				cat = withStores(cat.Rebuild(newG))
				continue
			}
			cat = stats.Catalog
			if stats.FirstDirty != firstDirty || stats.NewPoints != len(arrived)-oldN || stats.Extended+stats.Rebuilt != len(attrSets) {
				t.Fatalf("seed %d: stats %+v, want FirstDirty=%d NewPoints=%d over %d stores", seed, stats, firstDirty, len(arrived)-oldN, len(attrSets))
			}
			if suffixOnly := firstDirty >= oldN; suffixOnly {
				suffixes++
				ag, src, err := cat.UnionAll(newG.Timeline().Range(0, timeline.Time(oldN-1)), attrSets[0]...)
				if err != nil || src != Cached {
					t.Fatalf("seed %d: suffix-only advance lost the cached result (source %v, err %v)", seed, src, err)
				}
				want := NewStore(newG, agg.MustSchema(newG, attrSets[0]...)).UnionAllLinear(newG.Timeline().Range(0, timeline.Time(oldN-1)))
				if !bytes.Equal(mustJSON(t, ag), mustJSON(t, want)) {
					t.Fatalf("seed %d: retained cache entry diverged from scratch", seed)
				}
			} else {
				splices++
				if n := cat.Stats().CacheEntries; n != 0 {
					t.Fatalf("seed %d: mid-timeline advance kept %d cached results", seed, n)
				}
			}
			scratch := NewCatalog(newG)
			for _, as := range attrSets {
				st, ok := cat.store(attrsKey(as))
				if !ok {
					t.Fatalf("seed %d: store %v vanished", seed, as)
				}
				checkStoreEquivalence(t, r, newG, st, as)
				for i := 0; i < 4; i++ {
					iv := gtest.RandomRange(r, newG.Timeline())
					got, _, err := cat.UnionAll(iv, as...)
					if err != nil {
						t.Fatal(err)
					}
					want, _, err := scratch.UnionAll(iv, as...)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(mustJSON(t, got), mustJSON(t, want)) {
						t.Fatalf("seed %d: UnionAll %v over %s diverged:\n%s\nvs\n%s", seed, as, iv, mustJSON(t, got), mustJSON(t, want))
					}
				}
				tp := timeline.Time(r.Intn(len(arrived)))
				sub, err := st.PointSubset(tp, as[:1]...)
				if err != nil {
					t.Fatal(err)
				}
				want, err := NewStore(newG, agg.MustSchema(newG, as...)).PointSubset(tp, as[:1]...)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(mustJSON(t, sub), mustJSON(t, want)) {
					t.Fatalf("seed %d: PointSubset %v at %d diverged", seed, as, tp)
				}
			}
		}
	}
	if splices == 0 || suffixes == 0 || refusals == 0 {
		t.Fatalf("histories exercised %d splices, %d suffix-only advances, %d refusals; want all three", splices, suffixes, refusals)
	}
}
