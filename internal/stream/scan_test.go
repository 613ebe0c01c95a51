package stream_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"weak"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dict"
	"repro/internal/evolution"
	"repro/internal/explore"
	"repro/internal/gtest"
	"repro/internal/materialize"
	"repro/internal/ops"
	"repro/internal/stream"
	"repro/internal/timeline"
)

// pointsOf cuts a finished graph into the per-point batches that ingest it.
func pointsOf(g *core.Graph) ([]string, []stream.Snapshot) {
	labels, snaps := g.Timeline().Labels(), make([]stream.Snapshot, g.Timeline().Len())
	for n := 0; n < g.NumNodes(); n++ {
		id := core.NodeID(n)
		g.NodeTau(id).ForEach(func(tp int) {
			rec := stream.NodeRecord{Label: g.NodeLabel(id), Static: map[string]string{}, Varying: map[string]string{}}
			for a, spec := range g.Attrs() {
				c := g.Value(core.AttrID(a), id, timeline.Time(tp))
				if c == dict.None {
					continue
				}
				if spec.Kind == core.Static {
					rec.Static[spec.Name] = g.Dict(core.AttrID(a)).Value(c)
				} else {
					rec.Varying[spec.Name] = g.Dict(core.AttrID(a)).Value(c)
				}
			}
			snaps[tp].Nodes = append(snaps[tp].Nodes, rec)
		})
	}
	for e := 0; e < g.NumEdges(); e++ {
		ep := g.Edge(core.EdgeID(e))
		g.EdgeTau(core.EdgeID(e)).ForEach(func(tp int) {
			snaps[tp].Edges = append(snaps[tp].Edges, stream.EdgeRecord{U: g.NodeLabel(ep.U), V: g.NodeLabel(ep.V)})
		})
	}
	return labels, snaps
}

// TestPointIndexFollowsEveryPublication: on random histories — tail appends
// and retroactive inserts, which rebuild the accumulator — every graph the
// series publishes, every transaction replayed from the journal and every
// graph resumed from an earlier one carries an index equal to the transpose
// of its τ.
func TestPointIndexFollowsEveryPublication(t *testing.T) {
	p := gtest.DefaultParams()
	p.MaxTimes, p.MaxNodes, p.MaxEdges = 12, 150, 400
	for seed := int64(1); seed <= 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		src := gtest.RandomGraph(r, p)
		labels, snaps := pointsOf(src)
		s := stream.New(src.Attrs()...)
		check := func(what string, g *core.Graph, err error) {
			t.Helper()
			if err == nil && g != nil {
				err = gtest.PointIndexError(g)
			}
			if err != nil {
				t.Fatalf("seed %d, %s: %v", seed, what, err)
			}
		}
		// Every third point arrives late, before the one after it.
		for i := 0; i < len(labels); i++ {
			if i%3 == 1 && i+1 < len(labels) {
				check("append", nil, s.Append(labels[i+1], snaps[i+1]))
				g, err := s.Graph()
				check("graph after append", g, err)
				_, err = s.AppendAt(labels[i], snaps[i], labels[i+1])
				check("retroactive insert", nil, err)
				i++
			} else {
				check("append", nil, s.Append(labels[i], snaps[i]))
			}
			g, err := s.Graph()
			check(fmt.Sprintf("graph at %d points", s.Len()), g, err)
		}
		final, _ := s.Graph()
		if final.NumNodes() != src.NumNodes() || final.NumEdges() != src.NumEdges() {
			t.Fatalf("seed %d: streamed %d/%d entities of %d/%d", seed, final.NumNodes(), final.NumEdges(), src.NumNodes(), src.NumEdges())
		}
		journal := s.Journal()
		for txn := 1; txn <= s.Txn(); txn++ {
			g, err := s.ReplayTo(txn)
			check(fmt.Sprintf("replay to txn %d", txn), g, err)
			// Restore the series at the pin and re-ingest the batches that
			// follow it, retroactive inserts included.
			res, err := stream.Restore(g, journal[:txn], txn)
			check(fmt.Sprintf("restore at txn %d", txn), nil, err)
			for _, e := range journal[txn:] {
				_, err := res.AppendRecord(e.Record)
				check(fmt.Sprintf("append to the series restored at txn %d", txn), nil, err)
				g, err := res.Graph()
				check(fmt.Sprintf("resumed from txn %d", txn), g, err)
			}
		}
	}
}

// TestScansRaceWithIngest hammers the incremental index: 16 goroutines run
// the ten one-off scan shapes (every operator × DIST/ALL except union-ALL,
// on the time-varying and the mixed schema) plus EXPLORE and TOP against
// whatever generation the series currently publishes, while a writer keeps
// appending points. The index columns are written under the series lock and
// read without one; run with -race.
func TestScansRaceWithIngest(t *testing.T) {
	src := dataset.DBLPScaled(3, 0.02)
	labels, snaps := pointsOf(src)
	s := stream.New(src.Attrs()...)
	const preload = 6
	for i := 0; i < preload; i++ {
		if err := s.Append(labels[i], snaps[i]); err != nil {
			t.Fatal(err)
		}
	}
	viewOps := []func(*core.Graph, timeline.Interval, timeline.Interval) *ops.View{ops.Union, ops.Intersection, ops.Difference}
	scan := func(g *core.Graph, r *rand.Rand, shape int) error {
		tl := g.Timeline()
		switch {
		case shape == 10:
			ex := &explore.Explorer{Graph: g, Schema: agg.MustSchema(g, g.MustAttr("gender")), Kind: agg.Distinct, Result: explore.TotalEdges}
			ex.Explore(evolution.Growth, explore.UnionSemantics, explore.ExtendNew, 50)
			ex.Explore(evolution.Stability, explore.IntersectionSemantics, explore.ExtendNew, 5)
		case shape == 11:
			ex := &explore.Explorer{Graph: g, Schema: agg.MustSchema(g, g.MustAttr("gender")), Kind: agg.Distinct, Result: explore.TotalEdges}
			explore.TopEdgeTuples(ex, evolution.Shrinkage, 3)
		default:
			attrs := []core.AttrID{g.MustAttr("publications")}
			if shape%2 == 0 {
				attrs = []core.AttrID{g.MustAttr("gender"), g.MustAttr("publications")}
			}
			op, kind := shape/2%3, agg.Kind(shape/6) // shapes 0..5 DIST; 6..9 ALL on intersection, difference
			if kind == agg.All {
				op = 1 + (shape-6)/2
			}
			schema := agg.MustSchema(g, attrs...)
			v := viewOps[op](g, gtest.RandomRange(r, tl), gtest.RandomRange(r, tl))
			got, err := agg.AggregateParallelCtx(context.Background(), v, schema, kind, 1+r.Intn(3))
			if err != nil {
				return err
			}
			if want := agg.AggregateMap(v, schema, kind); !got.Equal(want) {
				return fmt.Errorf("shape %d at %d points: kernel\n%s\nreference\n%s", shape, tl.Len(), got, want)
			}
		}
		return nil
	}

	done := make(chan struct{})
	progress := make(chan struct{}, 1) // a scan finished; the writer paces its appends on it
	failed := make(chan struct{})      // a reader gave up; the writer must not wait for it
	var failOnce sync.Once
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				select {
				case <-done:
					if i >= 12 { // every reader runs every shape at least once
						return
					}
				default:
				}
				g, err := s.Graph()
				if err == nil {
					err = scan(g, r, (w+i)%12)
				}
				if err != nil {
					t.Error(err)
					failOnce.Do(func() { close(failed) })
					return
				}
				select {
				case progress <- struct{}{}:
				default:
				}
			}
		}(w)
	}
	for i := preload; i < len(labels) && !t.Failed(); i++ {
		for scans := 0; scans < 8; scans++ { // so every generation is scanned while the next is written
			select {
			case <-progress:
			case <-failed:
			}
		}
		if err := s.Append(labels[i], snaps[i]); err != nil {
			t.Error(err)
			break
		}
		if g, err := s.Graph(); err != nil {
			t.Error(err)
		} else if err := gtest.PointIndexError(g); err != nil {
			t.Error(err)
		}
	}
	close(done)
	wg.Wait()
}

// TestAdvanceReleasesRetiredRows: a catalog advanced over every ingest,
// with scans between the ingests, leaves no tuple-code rows on a retired
// generation. The scans build rows on each generation's schemas; the
// catalog's stores and cached results keep retired generations reachable.
func TestAdvanceReleasesRetiredRows(t *testing.T) {
	src := dataset.DBLPScaled(3, 0.02)
	labels, snaps := pointsOf(src)
	s := stream.New(src.Attrs()...)
	var cat *materialize.Catalog
	var gens []weak.Pointer[core.Graph]
	for i := range labels {
		if err := s.Append(labels[i], snaps[i]); err != nil {
			t.Fatal(err)
		}
		g, err := s.Graph()
		if err != nil {
			t.Fatal(err)
		}
		gens = append(gens, weak.Make(g))
		gender, both := []core.AttrID{g.MustAttr("gender")}, []core.AttrID{g.MustAttr("gender"), g.MustAttr("publications")}
		if cat == nil {
			cat = materialize.NewCatalog(g)
			if _, err := cat.Materialize(gender...); err != nil {
				t.Fatal(err)
			}
		} else {
			adv, err := cat.Advance(g)
			if err != nil {
				t.Fatal(err)
			}
			cat = adv.Catalog
		}
		all := g.Timeline().All()
		agg.Aggregate(ops.Union(g, all, all), agg.MustSchema(g, both...), agg.Distinct)
		for _, attrs := range [][]core.AttrID{gender, both} { // a store's answer, a scratch one
			if _, _, err := cat.UnionAll(all, attrs...); err != nil {
				t.Fatal(err)
			}
		}
		if agg.TupleRowBytes(g) == 0 {
			t.Fatalf("generation %d: the scans built no tuple-code rows", i)
		}
	}
	for range 3 {
		runtime.GC()
	}
	kept := 0
	for i, w := range gens[:len(gens)-1] {
		if g := w.Value(); g != nil {
			kept++
			if n := agg.TupleRowBytes(g); n != 0 {
				t.Errorf("retired generation %d still holds %d bytes of tuple-code rows", i, n)
			}
		}
	}
	if kept == 0 {
		t.Fatal("no retired generation is reachable: the test checks nothing")
	}
	runtime.KeepAlive(cat)
}
