package agg

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gtest"
	"repro/internal/ops"
	"repro/internal/timeline"
)

// A graph keeps the bytes of each wire form its first render produced (the
// wire JSON and the JSON-escaped text), and every later render appends
// them. These tests hold every render, first and later, to a reference that
// sorts the maps afresh with SortedTuples / SortedEdgeKeys and looks every
// weight up — what each render did before anything was kept.

func sorterJSON(ag *Graph) []byte {
	s := ag.Schema
	out := jsonGraph{Attributes: s.AttrNames(), Kind: ag.Kind.String()}
	for _, tu := range SortedTuples(s, ag.Nodes) {
		out.Nodes = append(out.Nodes, jsonNode{s.Decode(tu), ag.Nodes[tu]})
	}
	for _, k := range SortedEdgeKeys(s, ag.Edges) {
		out.Edges = append(out.Edges, jsonEdge{s.Decode(k.From), s.Decode(k.To), ag.Edges[k]})
	}
	data, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	return data
}

func sorterString(ag *Graph) string {
	s := ag.Schema
	var b strings.Builder
	fmt.Fprintf(&b, "aggregate graph (%s) on %d tuples\n", ag.Kind, len(ag.Nodes))
	for _, tu := range SortedTuples(s, ag.Nodes) {
		fmt.Fprintf(&b, "  node (%s) w=%d\n", s.Label(tu), ag.Nodes[tu])
	}
	for _, k := range SortedEdgeKeys(s, ag.Edges) {
		fmt.Fprintf(&b, "  edge (%s)→(%s) w=%d\n", s.Label(k.From), s.Label(k.To), ag.Edges[k])
	}
	return b.String()
}

// checkRemembered renders two fresh copies of ag twice each, one JSON
// first and one text first, and holds every render to the reference.
func checkRemembered(t *testing.T, ag *Graph) {
	t.Helper()
	wantJSON, wantString := sorterJSON(ag), sorterString(ag)
	wantText := AppendJSONString(nil, wantString)
	wantNodes, wantEdges := SortedTuples(ag.Schema, ag.Nodes), SortedEdgeKeys(ag.Schema, ag.Edges)
	for _, jsonFirst := range []bool{true, false} {
		fresh := ag.Clone()
		for round := 0; round < 2; round++ {
			for _, renderJSON := range []bool{jsonFirst, !jsonFirst} {
				if renderJSON {
					if got := fresh.AppendJSON(nil); !bytes.Equal(got, wantJSON) {
						t.Fatalf("AppendJSON round %d (json first %v) differs from the sorter\n got %s\nwant %s", round, jsonFirst, got, wantJSON)
					}
				} else if got := fresh.AppendJSONText(nil); !bytes.Equal(got, wantText) {
					t.Fatalf("AppendJSONText round %d (json first %v) differs from the sorter\n got %s\nwant %s", round, jsonFirst, got, wantText)
				}
				if got := fresh.String(); got != wantString {
					t.Fatalf("String round %d (json first %v) differs from the sorter\n got %q\nwant %q", round, jsonFirst, got, wantString)
				}
			}
		}
		if !slices.Equal(fresh.SortedNodes(), wantNodes) || !slices.Equal(fresh.SortedEdges(), wantEdges) {
			t.Fatal("SortedNodes/SortedEdges differ from SortedTuples/SortedEdgeKeys")
		}
	}
}

// orderedAttrSets returns every single attribute and every ordered pair.
func orderedAttrSets(g *core.Graph) [][]core.AttrID {
	var sets [][]core.AttrID
	for a := 0; a < g.NumAttrs(); a++ {
		sets = append(sets, []core.AttrID{core.AttrID(a)})
		for b := 0; b < g.NumAttrs(); b++ {
			if a != b {
				sets = append(sets, []core.AttrID{core.AttrID(a), core.AttrID(b)})
			}
		}
	}
	return sets
}

func TestWireOrderRememberedOnPaperExample(t *testing.T) {
	g := core.PaperExample()
	tl := g.Timeline()
	last := timeline.Time(tl.Len() - 1)
	views := []*ops.View{
		ops.Union(g, tl.Point(0), tl.Point(last)),
		ops.Intersection(g, tl.Point(0), tl.Point(1)),
		ops.Difference(g, tl.Range(0, last), tl.Point(0)),
	}
	for t0 := 0; t0 < tl.Len(); t0++ {
		views = append(views, ops.At(g, timeline.Time(t0)))
	}
	for _, attrs := range orderedAttrSets(g) {
		for _, v := range views {
			for _, kind := range []Kind{Distinct, All} {
				checkRemembered(t, Aggregate(v, MustSchema(g, attrs...), kind))
			}
		}
	}
}

func TestWireOrderRememberedOnRandomGraphs(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := gtest.RandomGraph(r, gtest.DefaultParams())
		if g.NumAttrs() == 0 {
			continue
		}
		tl := g.Timeline()
		v := ops.Union(g, gtest.RandomInterval(r, tl), gtest.RandomInterval(r, tl))
		for _, attrs := range orderedAttrSets(g) {
			for _, kind := range []Kind{Distinct, All} {
				checkRemembered(t, Aggregate(v, MustSchema(g, attrs...), kind))
			}
		}
	}
}

func TestWireOrderRememberedOnDBLP(t *testing.T) {
	g := dataset.DBLPScaled(1, 0.2)
	tl := g.Timeline()
	mid := timeline.Time(tl.Len() / 2)
	v := ops.Union(g, tl.Range(0, mid-1), tl.Range(mid, timeline.Time(tl.Len()-1)))
	for _, attrs := range [][]string{{"gender"}, {"publications"}, {"gender", "publications"}, {"publications", "gender"}} {
		s, err := ByName(g, attrs...)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []Kind{Distinct, All} {
			checkRemembered(t, Aggregate(v, s, kind))
		}
	}
}

// TestWireOrderRememberedOnOrderCorners covers order.go's two traps: the
// values "1" and "10", which order one way as node labels and the other way
// inside edge labels, and labels that collide through ",".
func TestWireOrderRememberedOnOrderCorners(t *testing.T) {
	for _, values := range [][]string{{"1", "10", "f", "m"}, {"a,b", "c", "a", "b,c"}} {
		g := gtest.ValueGraph(values)
		v := ops.Union(g, g.Timeline().Point(0), g.Timeline().Point(1))
		for _, attrs := range orderedAttrSets(g) {
			for _, kind := range []Kind{Distinct, All} {
				checkRemembered(t, Aggregate(v, MustSchema(g, attrs...), kind))
			}
		}
	}
}

// TestWireOrderMergeForgets: Merge after a render must show up in the next
// render — new groups in their place, summed weights on the old ones — and
// that render must equal a fresh graph's.
func TestWireOrderMergeForgets(t *testing.T) {
	g := core.PaperExample()
	s := MustSchema(g, g.MustAttr("gender"), g.MustAttr("publications"))
	ag := Aggregate(ops.At(g, 0), s, All)
	other := Aggregate(ops.At(g, 1), s, All)
	before, beforeText := ag.AppendJSON(nil), ag.AppendJSONText(nil)
	newNode, newEdge := false, false
	for tu := range other.Nodes {
		_, ok := ag.Nodes[tu]
		newNode = newNode || !ok
	}
	for k := range other.Edges {
		_, ok := ag.Edges[k]
		newEdge = newEdge || !ok
	}
	if !newNode || !newEdge {
		t.Fatalf("fixture: t1 adds no new node (%v) or edge (%v) group to t0", newNode, newEdge)
	}
	ag.Merge(other)
	fresh := ag.Clone()
	got, gotText := ag.AppendJSON(nil), ag.AppendJSONText(nil)
	if bytes.Equal(got, before) || bytes.Equal(gotText, beforeText) {
		t.Fatal("render after Merge repeats the render before it")
	}
	if want := fresh.AppendJSON(nil); !bytes.Equal(got, want) || !bytes.Equal(got, sorterJSON(ag)) {
		t.Fatalf("AppendJSON after Merge\n got %s\nwant %s", got, want)
	}
	if want := fresh.AppendJSONText(nil); !bytes.Equal(gotText, want) {
		t.Fatalf("AppendJSONText after Merge\n got %s\nwant %s", gotText, want)
	}
	if got, want := ag.String(), sorterString(ag); got != want {
		t.Fatalf("String after Merge\n got %q\nwant %q", got, want)
	}
	if !slices.Equal(ag.SortedNodes(), SortedTuples(s, ag.Nodes)) || !slices.Equal(ag.SortedEdges(), SortedEdgeKeys(s, ag.Edges)) {
		t.Fatal("SortedNodes/SortedEdges after Merge are stale")
	}
}

// TestWireOrderConcurrentFirstRender starts 16 goroutines on one graph that
// was never rendered, the way concurrent requests meet a fresh catalog
// entry: half render the wire JSON first, half the escaped text, and every
// goroutine must get the same bytes of both. Run under -race.
func TestWireOrderConcurrentFirstRender(t *testing.T) {
	g := dataset.DBLPScaled(1, 0.05)
	base := Aggregate(ops.Union(g, g.Timeline().All(), g.Timeline().All()), MustSchema(g, 0, 1), All)
	wantJSON, wantText := sorterJSON(base), AppendJSONString(nil, sorterString(base))
	for round := 0; round < 5; round++ {
		ag := base.Clone()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 16; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				var gotJSON, gotText []byte
				if w%2 == 0 {
					gotJSON = ag.AppendJSON(nil)
					gotText = ag.AppendJSONText(nil)
				} else {
					gotText = ag.AppendJSONText(nil)
					gotJSON = ag.AppendJSON(nil)
				}
				if !bytes.Equal(gotJSON, wantJSON) || !bytes.Equal(gotText, wantText) {
					t.Error("a concurrent first render differs from the sorter")
				}
				if !bytes.Equal(ag.AppendJSON(nil), wantJSON) || !bytes.Equal(ag.AppendJSONText(nil), wantText) {
					t.Error("a concurrent second render differs from the sorter")
				}
			}()
		}
		close(start)
		wg.Wait()
	}
}

// TestWireOrderWarmAppendJSONAllocs: a warm render of a cached panel, wire
// JSON or escaped text, into a buffer with room for it allocates nothing —
// no sort, no decode buffer, no attribute names.
func TestWireOrderWarmAppendJSONAllocs(t *testing.T) {
	g := dataset.DBLPScaled(1, 0.2)
	s, err := ByName(g, "gender", "publications")
	if err != nil {
		t.Fatal(err)
	}
	ag := Aggregate(ops.Union(g, g.Timeline().All(), g.Timeline().All()), s, All)
	buf := ag.AppendJSON(nil)
	if allocs := testing.AllocsPerRun(50, func() { buf = ag.AppendJSON(buf[:0]) }); allocs != 0 {
		t.Fatalf("warm AppendJSON allocates %.1f times per render, want 0", allocs)
	}
	buf = ag.AppendJSONText(nil)
	if allocs := testing.AllocsPerRun(50, func() { buf = ag.AppendJSONText(buf[:0]) }); allocs != 0 {
		t.Fatalf("warm AppendJSONText allocates %.1f times per render, want 0", allocs)
	}
}
