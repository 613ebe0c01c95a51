package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/materialize"
	"repro/internal/timeline"
)

// legacyRunsFile is a version-2 snapshot of legacyRunsGraph (with one
// store on grp) written by the last commit whose writer emitted section 12:
// run lists for the run-dominated τ vectors, beside the dense blobs.
const legacyRunsFile = "testdata/v2_tau_runs.gts"

// legacyRunsGraph rebuilds the graph legacyRunsFile holds: 256 time points
// (four words, the shortest timeline the old writer compressed), long-lived
// and two-run entities it stored as run lists, and every-other-point
// entities it left dense.
func legacyRunsGraph(t *testing.T) *core.Graph {
	t.Helper()
	const T = 256
	labels := make([]string, T)
	for i := range labels {
		labels[i] = fmt.Sprintf("w%03d", i)
	}
	b := core.NewBuilder(timeline.MustNew(labels...), core.AttrSpec{Name: "grp", Kind: core.Static})
	type span struct{ lo, hi, step int }
	nodes := []struct {
		grp   string
		spans []span
	}{
		{"a", []span{{0, 256, 1}}},
		{"b", []span{{10, 200, 1}}},
		{"a", []span{{64, 128, 1}, {192, 250, 1}}},
		{"b", []span{{0, 256, 2}}},
		{"", []span{{100, 101, 1}}},
	}
	for i, n := range nodes {
		id := b.AddNode(fmt.Sprintf("n%d", i))
		if n.grp != "" {
			b.SetStatic(0, id, n.grp)
		}
		for _, s := range n.spans {
			for tt := s.lo; tt < s.hi; tt += s.step {
				b.SetNodeTime(id, timeline.Time(tt))
			}
		}
	}
	edges := []struct {
		u, v  core.NodeID
		spans []span
	}{
		{0, 1, []span{{10, 200, 1}}},
		{0, 2, []span{{64, 128, 1}, {192, 250, 1}}},
		{1, 2, []span{{64, 128, 1}}},
		{0, 3, []span{{0, 256, 2}}},
		{1, 3, []span{{10, 200, 2}}},
		{0, 4, []span{{100, 101, 1}}},
	}
	for _, e := range edges {
		id := b.AddEdge(e.u, e.v)
		for _, s := range e.spans {
			for tt := s.lo; tt < s.hi; tt += s.step {
				b.SetEdgeTime(id, timeline.Time(tt))
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// findSection walks the framed records of a version-2 snapshot and returns
// the payload bounds of section id within data (ok false when absent).
func findSection(t *testing.T, data []byte, id byte) (lo, hi int, ok bool) {
	t.Helper()
	for off := 10; ; {
		payload, next, err := readRecordBytes(data, off)
		if err != nil {
			t.Fatalf("walking sections at offset %d: %v", off, err)
		}
		switch payload[0] {
		case id:
			return off + 8, next, true
		case secEnd:
			return 0, 0, false
		}
		off = next
	}
}

// TestLegacyTauRunsSectionIgnored: files written while τ had a second,
// run-length representation still load — section 12 is recognised,
// checksummed by the framing like every record, and its payload skipped in
// favour of the dense blobs — and the writer no longer emits it.
func TestLegacyTauRunsSectionIgnored(t *testing.T) {
	data, err := os.ReadFile(legacyRunsFile)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, ok := findSection(t, data, secTauRuns)
	if !ok {
		t.Fatalf("%s carries no section %d: not the legacy fixture", legacyRunsFile, secTauRuns)
	}
	want := legacyRunsGraph(t)

	snap, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	graphsEqual(t, want, snap.Graph)
	if len(snap.Stores) != 1 {
		t.Fatalf("Load kept %d stores, want 1", len(snap.Stores))
	}
	g, err := LoadGraph(legacyRunsFile)
	if err != nil {
		t.Fatalf("LoadGraph: %v", err)
	}
	graphsEqual(t, want, g)
	m, err := OpenMapped(legacyRunsFile)
	if err != nil {
		t.Fatalf("OpenMapped: %v", err)
	}
	defer m.Close()
	if m.Source == "decode" {
		t.Fatalf("OpenMapped fell back to the decode path")
	}
	graphsEqual(t, want, m.Graph)
	if len(m.Stores) != 1 {
		t.Fatalf("OpenMapped kept %d stores, want 1", len(m.Stores))
	}

	// Skipped is not unchecked: the section is still a CRC-framed record.
	mut := append([]byte(nil), data...)
	mut[(lo+hi)/2] ^= 0x01
	if _, err := Load(bytes.NewReader(mut)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("Load with a flipped byte in section %d: %v, want ErrChecksum", secTauRuns, err)
	}
	if m, err := OpenMapped(writeTemp(t, mut)); !errors.Is(err, ErrChecksum) {
		if err == nil {
			m.Close()
		}
		t.Fatalf("OpenMapped with a flipped byte in section %d: %v, want ErrChecksum", secTauRuns, err)
	}

	path := filepath.Join(t.TempDir(), "new.gts")
	if err := SaveFile(path, want, materialize.NewStore(want, agg.MustSchema(want, 0))); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	fresh, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := findSection(t, fresh, secTauRuns); ok {
		t.Fatalf("SaveFile still writes section %d", secTauRuns)
	}
}
