package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/timeline"
)

// legacyRunsFile is a version-2 snapshot of legacyRunsGraph (with one
// store on grp) written by the last commit whose writer emitted section 12:
// run lists for the run-dominated τ vectors, beside the dense blobs.
const legacyRunsFile = "testdata/v2_tau_runs.gts"

// legacyStoresFile is `gtgen -dataset example -format binary -materialize
// gender,publications` as written by the last commit whose writer emitted
// section 9: one materialized store beside the paper's example graph.
const legacyStoresFile = "testdata/v2_stores.gts"

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

// TestLegacyTauRunsSectionIgnored: files written while the format had
// reserved sections still load — section 12 (a second, run-length τ) and
// section 9 (materialized stores) are recognised, checksummed by the
// framing like every record, and their payload skipped — and the writer
// emits neither.
func TestLegacyTauRunsSectionIgnored(t *testing.T) {
	for _, tc := range []struct {
		file string
		sec  byte
		want func(*testing.T) *core.Graph
	}{
		{legacyRunsFile, secTauRuns, legacyRunsGraph},
		{legacyStoresFile, secStores, func(*testing.T) *core.Graph { return core.PaperExample() }},
	} {
		t.Run(filepath.Base(tc.file), func(t *testing.T) {
			data, err := os.ReadFile(tc.file)
			if err != nil {
				t.Fatal(err)
			}
			lo, hi, ok := findSection(t, data, tc.sec)
			if !ok {
				t.Fatalf("%s carries no section %d: not the legacy fixture", tc.file, tc.sec)
			}
			want := tc.want(t)

			snap, err := Load(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			graphsEqual(t, want, snap.Graph)
			g, err := LoadGraph(tc.file)
			if err != nil {
				t.Fatalf("LoadGraph: %v", err)
			}
			graphsEqual(t, want, g)

			// Skipped is not unchecked: the section is still a CRC-framed record.
			mut := append([]byte(nil), data...)
			mut[(lo+hi)/2] ^= 0x01
			if _, err := Load(bytes.NewReader(mut)); !errors.Is(err, ErrChecksum) {
				t.Fatalf("Load with a flipped byte in section %d: %v, want ErrChecksum", tc.sec, err)
			}

			path := filepath.Join(t.TempDir(), "new.gts")
			if err := SaveFile(path, want); err != nil {
				t.Fatalf("SaveFile: %v", err)
			}
			fresh, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range []byte{secStores, secTauRuns} {
				if _, _, ok := findSection(t, fresh, id); ok {
					t.Fatalf("SaveFile still writes section %d", id)
				}
			}
		})
	}
}
