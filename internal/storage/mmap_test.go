package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/materialize"
	"repro/internal/ops"
	"repro/internal/timeline"
)

// runHeavyGraph builds a graph with a timeline long enough for the
// density heuristic to elect compression (≥ 4 words) and contiguous
// entity lifetimes so it actually fires.
func runHeavyGraph(t *testing.T, seed int64) *core.Graph {
	t.Helper()
	const T = 320
	labels := make([]string, T)
	for i := range labels {
		labels[i] = fmt.Sprintf("w%03d", i)
	}
	tl := timeline.MustNew(labels...)
	b := core.NewBuilder(tl,
		core.AttrSpec{Name: "grp", Kind: core.Static},
		core.AttrSpec{Name: "act", Kind: core.TimeVarying})
	rng := rand.New(rand.NewSource(seed))
	const nNodes = 60
	lifeLo := make([]int, nNodes)
	lifeHi := make([]int, nNodes)
	for n := 0; n < nNodes; n++ {
		id := b.AddNode(fmt.Sprintf("n%d", n))
		lo := rng.Intn(T - 1)
		hi := lo + 1 + rng.Intn(T-lo)
		lifeLo[n], lifeHi[n] = lo, hi
		for tt := lo; tt < hi; tt++ {
			b.SetNodeTime(id, timeline.Time(tt))
			if rng.Intn(4) == 0 {
				b.SetVarying(1, id, timeline.Time(tt), fmt.Sprintf("a%d", rng.Intn(3)))
			}
		}
		if rng.Intn(10) != 0 {
			b.SetStatic(0, id, fmt.Sprintf("g%d", rng.Intn(4)))
		}
	}
	for k := 0; k < 3*nNodes; k++ {
		u, v := rng.Intn(nNodes), rng.Intn(nNodes)
		lo, hi := max(lifeLo[u], lifeLo[v]), min(lifeHi[u], lifeHi[v])
		if lo >= hi {
			continue
		}
		e := b.AddEdge(core.NodeID(u), core.NodeID(v))
		for tt := lo; tt < hi; tt++ {
			b.SetEdgeTime(e, timeline.Time(tt))
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestOpenMappedEquivalence: a mapped snapshot must expose exactly the
// graph (and stores) the decode path reconstructs, and adopt the persisted
// run-length choices instead of re-scanning.
func TestOpenMappedEquivalence(t *testing.T) {
	g := runHeavyGraph(t, 17)
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

	// The persisted compression choices are adopted: stats are available
	// and match a fresh scan over the original graph.
	want := g.TauStats()
	if want.Compressed == 0 {
		t.Fatalf("fixture graph compressed nothing (stats %+v) — heuristic regressed?", want)
	}
	got := m.Graph.TauStats()
	if got.Compressed != want.Compressed || got.Runs != want.Runs {
		t.Fatalf("mapped tau stats %+v, want %+v", got, want)
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
	if got := m.Graph.TauStats(); got.Compressed == 0 {
		t.Fatalf("mapped graph adopted no run vectors (stats %+v)", got)
	}
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

// TestOpenMappedV1FallsBackToDecode: v1 files cannot be aliased; the
// mapped entry point must still serve them via the decode path.
func TestOpenMappedV1FallsBackToDecode(t *testing.T) {
	g := dataset.DBLPScaled(21, 0.004)
	var buf bytes.Buffer
	if err := writeSnapshotV1(&buf, g, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(writeTemp(t, buf.Bytes()))
	if err != nil {
		t.Fatalf("OpenMapped(v1): %v", err)
	}
	defer m.Close()
	if m.Source != "decode" {
		t.Fatalf("v1 OpenMapped source %q, want decode", m.Source)
	}
	graphsEqual(t, g, m.Graph)
}

// TestOpenMappedNeverPanics drives the mapped reader through truncations
// at every boundary and byte corruptions across the framed region: every
// outcome must be a clean error or a successful open, never a panic.
// (Blob payload corruption is undetectable by design on the mapped path —
// the decode path's CRCs cover it — but must still not panic.)
func TestOpenMappedNeverPanics(t *testing.T) {
	g := runHeavyGraph(t, 5)
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
	g := runHeavyGraph(t, 7)
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
