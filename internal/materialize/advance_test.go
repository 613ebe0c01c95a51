package materialize

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gtest"
	"repro/internal/ops"
	"repro/internal/stream"
	"repro/internal/timeline"
)

// The equivalence oracle: replay a finished graph point by point through a
// core.Accumulator (the production ingest path), Advance a catalog after
// every point, and require the incrementally maintained stores to be
// byte-identical — via the sorted, label-decoded JSON encoding — to stores
// rebuilt from scratch on the final graph.

// replayAdvance feeds g's time points one at a time into a fresh
// accumulator, creating a catalog at the first point, materializing
// attrSets, and advancing after every later point. It returns the catalog
// and the summed advance stats.
func replayAdvance(t *testing.T, g *core.Graph, attrSets [][]core.AttrID) (*Catalog, AdvanceStats) {
	t.Helper()
	acc := core.NewAccumulator(g.Attrs()...)
	labels := g.Timeline().Labels()
	var cat *Catalog
	var total AdvanceStats
	for tp := 0; tp < len(labels); tp++ {
		gtest.ReplayPoint(acc, g, tp)
		snap := acc.Snapshot()
		if cat == nil {
			cat = NewCatalog(snap)
			for _, as := range attrSets {
				if _, err := cat.Materialize(as...); err != nil {
					t.Fatalf("materialize %v: %v", as, err)
				}
			}
			continue
		}
		stats, err := cat.Advance(snap)
		if err != nil {
			t.Fatalf("advance to point %d: %v", tp, err)
		}
		cat = stats.Catalog
		total.NewPoints += stats.NewPoints
		total.Extended += stats.Extended
		total.Rebuilt += stats.Rebuilt
	}
	return cat, total
}

// mustJSON renders an aggregate with the deterministic (sorted,
// label-decoded) encoding.
func mustJSON(t *testing.T, ag *agg.Graph) []byte {
	t.Helper()
	b, err := json.Marshal(ag)
	if err != nil {
		t.Fatalf("marshal aggregate: %v", err)
	}
	return b
}

// checkStoreEquivalence requires the incrementally maintained store inc to
// agree byte-for-byte with a from-scratch rebuild on final, per point and
// over intervals through all three composition engines.
func checkStoreEquivalence(t *testing.T, r *rand.Rand, final *core.Graph, inc *Store, attrs []core.AttrID) {
	t.Helper()
	scratch := NewStore(final, agg.MustSchema(final, attrs...))
	tl := final.Timeline()
	n := tl.Len()
	if got := len(inc.perPoint); got != n {
		t.Fatalf("incremental store covers %d points, want %d", got, n)
	}
	for tp := 0; tp < n; tp++ {
		got, want := mustJSON(t, inc.perPoint[tp]), mustJSON(t, scratch.perPoint[tp])
		if !bytes.Equal(got, want) {
			t.Fatalf("point %d diverged:\nincremental: %s\nscratch:     %s", tp, got, want)
		}
	}
	ivs := []timeline.Interval{tl.Range(0, timeline.Time(n-1)), tl.Range(timeline.Time(n-1), timeline.Time(n-1))}
	for i := 0; i < 8; i++ {
		a := r.Intn(n)
		b := a + r.Intn(n-a)
		ivs = append(ivs, tl.Range(timeline.Time(a), timeline.Time(b)))
	}
	for _, iv := range ivs {
		want := mustJSON(t, scratch.UnionAllLinear(iv))
		for name, got := range map[string][]byte{
			"prefix": mustJSON(t, inc.UnionAll(iv)),
			"linear": mustJSON(t, inc.UnionAllLinear(iv)),
		} {
			if !bytes.Equal(got, want) {
				t.Fatalf("%s over %s diverged:\nincremental: %s\nscratch:     %s", name, iv, got, want)
			}
		}
	}
}

func dblpAttrSets(g *core.Graph) [][]core.AttrID {
	gender, pubs := g.MustAttr("gender"), g.MustAttr("publications")
	return [][]core.AttrID{{gender}, {pubs}, {gender, pubs}}
}

func TestAdvanceEquivalenceDBLP(t *testing.T) {
	for _, scale := range []float64{0.005, 0.01, 0.02} {
		scale := scale
		t.Run(fmt.Sprintf("scale=%v", scale), func(t *testing.T) {
			g := dataset.DBLPScaled(1, scale)
			cat, stats := replayAdvance(t, g, dblpAttrSets(g))
			if stats.NewPoints != g.Timeline().Len()-1 {
				t.Errorf("advanced %d points, want %d", stats.NewPoints, g.Timeline().Len()-1)
			}
			if stats.Extended == 0 {
				t.Errorf("no store was ever extended incrementally (extended=0, rebuilt=%d)", stats.Rebuilt)
			}
			final := cat.Graph()
			r := rand.New(rand.NewSource(int64(1000 * scale)))
			for _, as := range dblpAttrSets(g) {
				st, err := cat.Materialize(as...)
				if err != nil {
					t.Fatal(err)
				}
				checkStoreEquivalence(t, r, final, st, as)
			}
		})
	}
}

func TestAdvanceEquivalenceRandom(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := gtest.RandomGraph(r, gtest.DefaultParams())
		if g.NumAttrs() == 0 {
			continue
		}
		var attrSets [][]core.AttrID
		for a := 0; a < g.NumAttrs(); a++ {
			attrSets = append(attrSets, []core.AttrID{core.AttrID(a)})
		}
		if g.NumAttrs() >= 2 {
			attrSets = append(attrSets, []core.AttrID{0, 1})
		}
		cat, _ := replayAdvance(t, g, attrSets)
		final := cat.Graph()
		for _, as := range attrSets {
			st, err := cat.Materialize(as...)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			checkStoreEquivalence(t, r, final, st, as)
		}
	}
}

// TestAdvanceCodingChange pins both advance outcomes: points that introduce
// no new attribute value extend stores incrementally, a point whose new
// value grows a dictionary forces a counted rebuild — and the result is
// correct either way.
func TestAdvanceCodingChange(t *testing.T) {
	acc := core.NewAccumulator(core.AttrSpec{Name: "color", Kind: core.Static})
	addPoint := func(label string, nodes map[string]string) *core.Graph {
		acc.AddPoint(label)
		for n, c := range nodes {
			id := acc.EnsureNode(n)
			acc.SetNodeTime(id)
			acc.SetStatic(0, id, c)
		}
		return acc.Snapshot()
	}

	g0 := addPoint("t0", map[string]string{"a": "red", "b": "blue"})
	cat := NewCatalog(g0)
	if _, err := cat.Materialize(0); err != nil {
		t.Fatal(err)
	}

	// Same domain: pure delta apply.
	g1 := addPoint("t1", map[string]string{"a": "red", "c": "blue"})
	stats, err := cat.Advance(g1)
	if err != nil {
		t.Fatal(err)
	}
	cat = stats.Catalog
	if stats.Extended != 1 || stats.Rebuilt != 0 {
		t.Fatalf("same-coding advance: extended=%d rebuilt=%d, want 1/0", stats.Extended, stats.Rebuilt)
	}

	// New value "green" (on a fresh node) grows the color dictionary:
	// coding changes, the store must be rebuilt.
	g2 := addPoint("t2", map[string]string{"d": "green"})
	stats, err = cat.Advance(g2)
	if err != nil {
		t.Fatal(err)
	}
	cat = stats.Catalog
	if stats.Extended != 0 || stats.Rebuilt != 1 {
		t.Fatalf("coding-change advance: extended=%d rebuilt=%d, want 0/1", stats.Extended, stats.Rebuilt)
	}

	st, err := cat.Materialize(0)
	if err != nil {
		t.Fatal(err)
	}
	checkStoreEquivalence(t, rand.New(rand.NewSource(1)), g2, st, []core.AttrID{0})
}

// TestAdvanceRejectsStaticBackfill pins the soundness guard: filling in a
// static value for a node that already existed changes its tuple at every
// OLD time point, so the delta must be refused (the server falls back to a
// full rebuild).
func TestAdvanceRejectsStaticBackfill(t *testing.T) {
	acc := core.NewAccumulator(core.AttrSpec{Name: "color", Kind: core.Static})
	acc.AddPoint("t0")
	id := acc.EnsureNode("a")
	acc.SetNodeTime(id) // no color yet
	g0 := acc.Snapshot()
	cat := NewCatalog(g0)
	if _, err := cat.Materialize(0); err != nil {
		t.Fatal(err)
	}

	acc.AddPoint("t1")
	acc.SetNodeTime(id)
	acc.SetStatic(0, id, "red") // back-fills t0 retroactively
	g1 := acc.Snapshot()
	if _, err := cat.Advance(g1); !errors.Is(err, ErrStaticBackfill) {
		t.Fatalf("advance after static backfill: err = %v, want ErrStaticBackfill", err)
	}
	// The refused catalog still serves its old generation correctly.
	if got := cat.Graph(); got != g0 {
		t.Error("refused advance must leave the catalog on its old generation")
	}
}

// TestAdvanceRejectsNonExtension: a graph that rewrites a time point label,
// or one over a different attribute schema, is refused with the typed error
// and the catalog keeps serving its own graph.
func TestAdvanceRejectsNonExtension(t *testing.T) {
	build := func(point string, attrs ...core.AttrSpec) *core.Graph {
		acc := core.NewAccumulator(attrs...)
		acc.AddPoint(point)
		id := acc.EnsureNode("a")
		acc.SetNodeTime(id)
		acc.SetStatic(0, id, "x")
		return acc.Snapshot()
	}
	c := core.AttrSpec{Name: "c", Kind: core.Static}
	g0 := build("t0", c)
	cat := NewCatalog(g0)
	for name, g := range map[string]*core.Graph{
		"rewritten time point label": build("u0", c),
		"attribute schema changed":   build("t0", c, core.AttrSpec{Name: "d", Kind: core.Static}),
	} {
		if _, err := cat.Advance(g); !errors.Is(err, ErrNotExtension) {
			t.Errorf("%s: Advance = %v, want ErrNotExtension", name, err)
		}
		if cat.Graph() != g0 {
			t.Fatalf("%s: refused advance moved the catalog off its graph", name)
		}
	}
}

// TestAdvanceConcurrentHammer runs a writer that moves the head catalog
// through tail appends, retroactive inserts and one refused advance
// (Rebuild) against 15 readers that load the head from an atomic pointer, as
// the server does. Each reader resolves its interval on the graph of the
// catalog it loaded and requires the catalog's answer to equal scratch over
// that graph, whichever catalog is the head by the time it runs — under
// -race it proves a catalog keeps answering over its own graph while its
// successors take over.
func TestAdvanceConcurrentHammer(t *testing.T) {
	const (
		readers = 15
		steps   = 40
		nodes   = 20
	)
	s := stream.New(
		core.AttrSpec{Name: "color", Kind: core.Static},
		core.AttrSpec{Name: "load", Kind: core.TimeVarying},
	)
	wr := rand.New(rand.NewSource(99))
	record := func(label string, color int) stream.NodeRecord {
		return stream.NodeRecord{
			Label:   label,
			Static:  map[string]string{"color": fmt.Sprintf("c%d", color)},
			Varying: map[string]string{"load": fmt.Sprintf("l%d", wr.Intn(4))},
		}
	}
	// batch draws 6 of the original nodes (every one of them is born at the
	// first point, so a retroactive batch of them renumbers nothing) plus
	// any new ones, and a few edges among them.
	batch := func(newNodes ...string) stream.Snapshot {
		var snap stream.Snapshot
		for _, n := range wr.Perm(nodes)[:6] {
			snap.Nodes = append(snap.Nodes, record(fmt.Sprintf("n%d", n), n%3))
		}
		for _, l := range newNodes {
			snap.Nodes = append(snap.Nodes, record(l, 0))
		}
		for i := 1; i < len(snap.Nodes); i += 2 {
			snap.Edges = append(snap.Edges, stream.EdgeRecord{U: snap.Nodes[i-1].Label, V: snap.Nodes[i].Label})
		}
		return snap
	}
	var first stream.Snapshot
	for n := 0; n < nodes; n++ {
		first.Nodes = append(first.Nodes, record(fmt.Sprintf("n%d", n), n%3))
	}
	if err := s.Append("t0", first); err != nil {
		t.Fatal(err)
	}
	attrSets := [][]core.AttrID{{0}, {0, 1}, {1}} // the last has no store
	withStores := func(cat *Catalog) *Catalog {
		for _, as := range attrSets[:2] {
			if _, err := cat.Materialize(as...); err != nil {
				t.Fatal(err)
			}
		}
		return cat
	}
	var head atomic.Pointer[Catalog]
	head.Store(withStores(NewCatalog(seriesGraph(t, s))))

	var (
		wg    sync.WaitGroup
		reads atomic.Int64
	)
	stop := make(chan struct{})
	errc := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				// One session: several requests on the catalog loaded at its
				// start, which the writer may retire in the meantime.
				cat := head.Load()
				g := cat.Graph()
				for q := 0; q < 8; q++ {
					iv := gtest.RandomRange(r, g.Timeline())
					attrs := attrSets[r.Intn(len(attrSets))]
					got, _, err := cat.UnionAll(iv, attrs...)
					if err != nil {
						errc <- err
						return
					}
					want := agg.Aggregate(ops.Union(g, iv, iv), agg.MustSchema(g, attrs...), agg.All)
					gb, _ := json.Marshal(got)
					wb, _ := json.Marshal(want)
					if !bytes.Equal(gb, wb) {
						errc <- fmt.Errorf("UnionAll %v over %s of a %d-point graph:\n%s\nscratch:\n%s", attrs, iv, g.Timeline().Len(), gb, wb)
						return
					}
					if st, ok := cat.store(attrsKey(attrs)); ok && !st.UnionAll(iv).Equal(st.UnionAllLinear(iv)) {
						errc <- fmt.Errorf("composed result over %s diverged from linear reference", iv)
						return
					}
					reads.Add(1)
				}
			}
		}(int64(i))
	}

	// The writer: tail appends, a retroactive insert every fourth step, and
	// at mid-run a tail point with a new node followed by a retroactive
	// point with another new node before it — that renumbers the first, so
	// the advance is refused and the head is rebuilt.
	var tails, retros, refusals int
	write := func() error {
		lateLabel := ""
		for step := 1; step < steps; step++ {
			old := head.Load()
			labels := old.Graph().Timeline().Labels()
			var err error
			switch {
			case step == steps/2:
				lateLabel = fmt.Sprintf("t%d", step)
				err = s.Append(lateLabel, batch("late"))
			case step == steps/2+1:
				_, err = s.AppendAt(fmt.Sprintf("r%d", step), batch("early"), lateLabel)
			case step%4 == 0:
				_, err = s.AppendAt(fmt.Sprintf("r%d", step), batch(), labels[1+wr.Intn(len(labels)-1)])
			default:
				err = s.Append(fmt.Sprintf("t%d", step), batch())
			}
			if err != nil {
				return fmt.Errorf("step %d: %w", step, err)
			}
			g := seriesGraph(t, s)
			adv, err := old.Advance(g)
			next := adv.Catalog
			switch {
			case errors.Is(err, ErrNotExtension):
				refusals++
				next = withStores(old.Rebuild(g))
			case err != nil:
				return fmt.Errorf("step %d: %w", step, err)
			case adv.FirstDirty < len(labels):
				retros++
			default:
				tails++
			}
			head.Store(next)
			// Let the readers see every head before the next one replaces it.
			for reads.Load() < int64(step*readers) && len(errc) == 0 {
				time.Sleep(100 * time.Microsecond)
			}
		}
		return nil
	}
	err := write()
	close(stop)
	wg.Wait()
	close(errc)
	if err != nil {
		t.Fatal(err)
	}
	for err := range errc {
		t.Error(err)
	}
	if tails == 0 || retros == 0 || refusals != 1 {
		t.Errorf("writer made %d tail advances, %d retroactive ones and %d refusals; want some, some and 1", tails, retros, refusals)
	}
}
