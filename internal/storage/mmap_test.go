package storage

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gtest"
	"repro/internal/materialize"
	"repro/internal/ops"
	"repro/internal/timeline"
)

// TestOpenMappedEquivalence: a mapped snapshot must expose exactly the
// graph (and stores) the decode path reconstructs.
func TestOpenMappedEquivalence(t *testing.T) {
	g := gtest.LongLivedGraph(rand.New(rand.NewSource(17)), 320)
	st := materialize.NewStore(g, agg.MustSchema(g, 0))
	path := filepath.Join(t.TempDir(), "g.gts")
	if err := SaveFile(path, g, st); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}

	m, err := OpenMapped(path)
	if err != nil {
		t.Fatalf("OpenMapped: %v", err)
	}
	defer m.Close()
	if m.Source != "mmap" && m.Source != "heap" {
		t.Fatalf("v2 OpenMapped used source %q", m.Source)
	}
	graphsEqual(t, g, m.Graph)
	if len(m.Stores) != 1 {
		t.Fatalf("mapped snapshot has %d stores, want 1", len(m.Stores))
	}

	// Lookups that need the lazy indexes work on mapped graphs.
	lbl := g.NodeLabel(core.NodeID(3))
	if id, ok := m.Graph.NodeByLabel(lbl); !ok || id != core.NodeID(3) {
		t.Fatalf("NodeByLabel(%q) = %v,%v on mapped graph", lbl, id, ok)
	}
}

// TestOpenMappedStreamedGraph maps a snapshot of a graph whose timestamp
// sets are shorter than its timeline (an entity that stopped appearing).
func TestOpenMappedStreamedGraph(t *testing.T) {
	g := streamedGraph(t)
	path := filepath.Join(t.TempDir(), "g.gts")
	if err := SaveFile(path, g); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatalf("OpenMapped: %v", err)
	}
	defer m.Close()
	graphsEqual(t, g, m.Graph)
}

// TestOpenMappedAgreesWithLoad compares whole aggregation results between
// the two read paths — the end-to-end identity the CI job also checks
// through the HTTP API.
func TestOpenMappedAgreesWithLoad(t *testing.T) {
	g := dataset.DBLPScaled(13, 0.01)
	path := filepath.Join(t.TempDir(), "g.gts")
	if err := SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	graphsEqual(t, snap.Graph, m.Graph)
	sa := agg.MustSchema(snap.Graph, snap.Graph.MustAttr("gender"))
	sb := agg.MustSchema(m.Graph, m.Graph.MustAttr("gender"))
	for tt := 0; tt < snap.Graph.Timeline().Len(); tt++ {
		at := timeline.Time(tt)
		aga := agg.Aggregate(ops.At(snap.Graph, at), sa, agg.All)
		agb := agg.Aggregate(ops.At(m.Graph, at), sb, agg.All)
		if len(aga.Nodes) != len(agb.Nodes) || len(aga.Edges) != len(agb.Edges) {
			t.Fatalf("t%d: aggregate sizes diverge between decode and mmap", tt)
		}
		for tu, w := range aga.Nodes {
			gtu, ok := sb.Encode(sa.Decode(tu)...)
			if !ok || agb.Nodes[gtu] != w {
				t.Fatalf("t%d: tuple %v weight diverges", tt, sa.Decode(tu))
			}
		}
	}
}

// TestOpenMappedNeverPanics drives the mapped reader through truncations
// at every boundary and byte corruptions across the framed region: every
// outcome must be a clean error or a successful open, never a panic.
// (Blob payload corruption is undetectable by design on the mapped path —
// the decode path's CRCs cover it — but must still not panic.)
func TestOpenMappedNeverPanics(t *testing.T) {
	g := gtest.LongLivedGraph(rand.New(rand.NewSource(5)), 320)
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	for cut := 0; cut < len(data); cut += 97 {
		m, err := OpenMapped(writeTemp(t, data[:cut]))
		if err == nil {
			m.Close()
			t.Fatalf("truncation to %d bytes loaded successfully", cut)
		}
	}
	for off := 0; off < len(data); off += 53 {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0xff
		if m, err := OpenMapped(writeTemp(t, mut)); err == nil {
			m.Close()
		}
	}
}

// TestLoadV2CorruptionDetected: unlike the mapped path, the decode path
// checksums every blob, so any byte flip anywhere in the file must either
// fail or (for padding bytes) leave the content identical.
func TestLoadV2CorruptionDetected(t *testing.T) {
	g := gtest.LongLivedGraph(rand.New(rand.NewSource(7)), 320)
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for off := 0; off < len(data); off += 31 {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		snap, err := Load(bytes.NewReader(mut))
		if err == nil {
			graphsEqual(t, g, snap.Graph) // padding flip: content must be intact
		}
	}
}
