package stream

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
)

// paperSnapshots feeds the running example of Fig. 1 point by point.
func paperSnapshots() (attrs []core.AttrSpec, labels []string, snaps []Snapshot) {
	attrs = []core.AttrSpec{
		{Name: "gender", Kind: core.Static},
		{Name: "publications", Kind: core.TimeVarying},
	}
	n := func(label, gender, pubs string) NodeRecord {
		return NodeRecord{
			Label:   label,
			Static:  map[string]string{"gender": gender},
			Varying: map[string]string{"publications": pubs},
		}
	}
	labels = []string{"t0", "t1", "t2"}
	snaps = []Snapshot{
		{
			Nodes: []NodeRecord{n("u1", "m", "3"), n("u2", "f", "1"), n("u3", "f", "1"), n("u4", "f", "2")},
			Edges: []EdgeRecord{{"u1", "u2"}, {"u1", "u3"}, {"u2", "u4"}},
		},
		{
			Nodes: []NodeRecord{n("u1", "m", "1"), n("u2", "f", "1"), n("u4", "f", "1")},
			Edges: []EdgeRecord{{"u1", "u2"}, {"u2", "u4"}, {"u1", "u4"}},
		},
		{
			Nodes: []NodeRecord{n("u2", "f", "1"), n("u4", "f", "1"), n("u5", "m", "3")},
			Edges: []EdgeRecord{{"u2", "u4"}, {"u4", "u5"}, {"u2", "u5"}},
		},
	}
	return attrs, labels, snaps
}

func buildSeries(t *testing.T) *Series {
	t.Helper()
	attrs, labels, snaps := paperSnapshots()
	s := New(attrs...)
	for i, snap := range snaps {
		if err := s.Append(labels[i], snap); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestSeriesGraphMatchesFixture(t *testing.T) {
	s := buildSeries(t)
	g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	want := core.PaperExample()
	if g.NumNodes() != want.NumNodes() || g.NumEdges() != want.NumEdges() {
		t.Fatalf("sizes %d/%d, want %d/%d", g.NumNodes(), g.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	for n := 0; n < want.NumNodes(); n++ {
		label := want.NodeLabel(core.NodeID(n))
		gn, ok := g.NodeByLabel(label)
		if !ok || !g.NodeTau(gn).Equal(want.NodeTau(core.NodeID(n))) {
			t.Errorf("τu(%s) differs", label)
		}
	}
	// Cache: same pointer until the next append.
	g2, _ := s.Graph()
	if g != g2 {
		t.Error("Graph() should be cached")
	}
}

func TestSeriesValidation(t *testing.T) {
	attrs, labels, snaps := paperSnapshots()
	s := New(attrs...)
	if _, err := s.Graph(); err == nil {
		t.Error("Graph of empty series should fail")
	}
	if err := s.Append(labels[0], snaps[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(labels[0], snaps[1]); err == nil {
		t.Error("duplicate label should fail")
	}
	if err := s.Append("tX", Snapshot{Edges: []EdgeRecord{{"a", "b"}}}); err == nil {
		t.Error("edge without nodes should fail")
	}
	if err := s.Append("tY", Snapshot{Nodes: []NodeRecord{{Label: ""}}}); err == nil {
		t.Error("empty node label should fail")
	}
	if err := s.Append("tZ", Snapshot{Nodes: []NodeRecord{{Label: "a"}, {Label: "a"}}}); err == nil {
		t.Error("duplicate node in snapshot should fail")
	}
}

func TestStaticConflictDetected(t *testing.T) {
	s := New(core.AttrSpec{Name: "gender", Kind: core.Static})
	if err := s.Append("t0", Snapshot{Nodes: []NodeRecord{{Label: "a", Static: map[string]string{"gender": "m"}}}}); err != nil {
		t.Fatal(err)
	}
	// The conflicting batch is rejected at Append time (two-phase
	// validation), leaving the series untouched.
	if err := s.Append("t1", Snapshot{Nodes: []NodeRecord{{Label: "a", Static: map[string]string{"gender": "f"}}}}); err == nil {
		t.Error("static attribute conflict should fail Append")
	}
	if got := s.Len(); got != 1 {
		t.Errorf("rejected batch must not extend the series: Len()=%d", got)
	}
	g, err := s.Graph()
	if err != nil {
		t.Fatalf("Graph() after rejected batch: %v", err)
	}
	if g.Timeline().Len() != 1 {
		t.Errorf("graph has %d points, want 1", g.Timeline().Len())
	}
	// Repeating the original (consistent) value is fine.
	if err := s.Append("t1", Snapshot{Nodes: []NodeRecord{{Label: "a", Static: map[string]string{"gender": "m"}}}}); err != nil {
		t.Errorf("consistent static value should be accepted: %v", err)
	}
}

// TestSeriesConcurrentHammer exercises the Series lock under -race: one
// goroutine keeps appending fresh time points while others hammer the
// read paths (Len, Labels, Points, Graph).
func TestSeriesConcurrentHammer(t *testing.T) {
	_, labels, snaps := paperSnapshots()
	s := buildSeries(t)

	const extra = 40
	done := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // writer: keeps the series growing
		defer wg.Done()
		defer close(done)
		for i := 0; i < extra; i++ {
			snap := snaps[i%len(snaps)]
			if err := s.Append(fmt.Sprintf("x%d", i), snap); err != nil {
				t.Errorf("append x%d: %v", i, err)
				return
			}
		}
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				n := s.Len()
				if got := len(s.Labels()); got < n {
					t.Errorf("Labels len %d < earlier Len %d", got, n)
					return
				}
				g, err := s.Graph()
				if err != nil {
					t.Errorf("graph: %v", err)
					return
				}
				if got := g.Timeline().Len(); got < n {
					t.Errorf("Graph has %d points after Len %d", got, n)
					return
				}
			}
		}()
	}
	wg.Wait()

	if got, want := s.Len(), len(labels)+extra; got != want {
		t.Fatalf("final Len = %d, want %d", got, want)
	}
}

// TestWriteAttrMapAllocatesNothing: ordering an attribute map's pairs takes
// a stack array, so encoding a record allocates its buffer only.
func TestWriteAttrMapAllocatesNothing(t *testing.T) {
	e := &codec.Enc{B: make([]byte, 0, 256)}
	m := map[string]string{"b": "2", "a": "1", "c": "3"}
	if n := testing.AllocsPerRun(100, func() { e.B = e.B[:0]; writeAttrMap(e, m) }); n != 0 {
		t.Errorf("writeAttrMap allocates %.0f times per call, want 0", n)
	}
}
