package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gtest"
	"repro/internal/stream"
	"repro/internal/timeline"
)

// graphsEqual compares two graphs structurally by decoded values, so the
// comparison is independent of internal dictionary code assignment.
func graphsEqual(t *testing.T, a, b *core.Graph) {
	t.Helper()
	la, lb := a.Timeline().Labels(), b.Timeline().Labels()
	if fmt.Sprint(la) != fmt.Sprint(lb) {
		t.Fatalf("timelines differ: %v vs %v", la, lb)
	}
	if fmt.Sprint(a.Attrs()) != fmt.Sprint(b.Attrs()) {
		t.Fatalf("schemas differ: %v vs %v", a.Attrs(), b.Attrs())
	}
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("sizes differ: %d/%d nodes, %d/%d edges",
			a.NumNodes(), b.NumNodes(), a.NumEdges(), b.NumEdges())
	}
	T := a.Timeline().Len()
	for n := 0; n < a.NumNodes(); n++ {
		id := core.NodeID(n)
		if a.NodeLabel(id) != b.NodeLabel(id) {
			t.Fatalf("node %d label %q vs %q", n, a.NodeLabel(id), b.NodeLabel(id))
		}
		if !a.NodeTau(id).Equal(b.NodeTau(id)) {
			t.Fatalf("node %d tau %v vs %v", n, a.NodeTau(id), b.NodeTau(id))
		}
		for ai := 0; ai < a.NumAttrs(); ai++ {
			for tt := 0; tt < T; tt++ {
				va := a.ValueString(core.AttrID(ai), id, timeline.Time(tt))
				vb := b.ValueString(core.AttrID(ai), id, timeline.Time(tt))
				if va != vb {
					t.Fatalf("node %d attr %d at t%d: %q vs %q", n, ai, tt, va, vb)
				}
			}
		}
	}
	for e := 0; e < a.NumEdges(); e++ {
		id := core.EdgeID(e)
		if a.Edge(id) != b.Edge(id) {
			t.Fatalf("edge %d endpoints %v vs %v", e, a.Edge(id), b.Edge(id))
		}
		if !a.EdgeTau(id).Equal(b.EdgeTau(id)) {
			t.Fatalf("edge %d tau %v vs %v", e, a.EdgeTau(id), b.EdgeTau(id))
		}
	}
}

func roundTrip(t *testing.T, g *core.Graph) {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		t.Fatalf("Save: %v", err)
	}
	saved := append([]byte(nil), buf.Bytes()...)
	snap, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	graphsEqual(t, g, snap.Graph)
	// Save∘Load is the identity on bytes: dictionary and entity order
	// survive.
	var again bytes.Buffer
	if err := Save(&again, snap.Graph); err != nil {
		t.Fatalf("re-Save: %v", err)
	}
	if !bytes.Equal(again.Bytes(), saved) {
		t.Fatalf("Save(Load(f)) differs from f (%d vs %d bytes)", again.Len(), len(saved))
	}
}

func TestRoundTripDBLPScales(t *testing.T) {
	scales := []float64{0.004, 0.01, 0.03}
	if testing.Short() {
		scales = scales[:2]
	}
	for _, scale := range scales {
		t.Run(fmt.Sprintf("scale=%g", scale), func(t *testing.T) {
			roundTrip(t, dataset.DBLPScaled(7, scale))
		})
	}
}

func TestRoundTripMovieLens(t *testing.T) {
	roundTrip(t, dataset.MovieLensScaled(11, 0.002))
}

func TestRoundTripRandomGraphs(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	p := gtest.DefaultParams()
	for i := 0; i < 50; i++ {
		roundTrip(t, gtest.RandomGraph(r, p))
	}
}

// streamedGraph is a stream.Series graph on a timeline of several words
// (300 points): node "gone" and its edge appear only in the first 260, so
// their accumulator-built timestamp sets are shorter than the timeline.
func streamedGraph(t *testing.T) *core.Graph {
	t.Helper()
	s := stream.New(core.AttrSpec{Name: "gender", Kind: core.Static})
	for i := 0; i < 300; i++ {
		snap := stream.Snapshot{Nodes: []stream.NodeRecord{{Label: "stays", Static: map[string]string{"gender": "f"}}}}
		if i < 260 {
			snap.Nodes = append(snap.Nodes, stream.NodeRecord{Label: "gone", Static: map[string]string{"gender": "m"}})
			snap.Edges = []stream.EdgeRecord{{U: "stays", V: "gone"}}
		}
		if err := s.Append(fmt.Sprintf("t%03d", i), snap); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRoundTripStreamedGraph(t *testing.T) {
	roundTrip(t, streamedGraph(t))
}

func TestSaveFileAtomicAndLoadFile(t *testing.T) {
	g := dataset.DBLPScaled(5, 0.004)
	path := filepath.Join(t.TempDir(), "g.gts")
	if err := SaveFile(path, g); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	got, err := LoadGraph(path)
	if err != nil {
		t.Fatalf("LoadGraph: %v", err)
	}
	graphsEqual(t, g, got)
	// Overwrite in place with a different graph: readers must never see a
	// partial file, and the new content wins.
	g2 := dataset.DBLPScaled(6, 0.004)
	if err := SaveFile(path, g2); err != nil {
		t.Fatalf("SaveFile overwrite: %v", err)
	}
	got2, err := LoadGraph(path)
	if err != nil {
		t.Fatalf("LoadGraph after overwrite: %v", err)
	}
	graphsEqual(t, g2, got2)
}
