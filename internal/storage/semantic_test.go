package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ops"
	"repro/internal/timeline"
)

func writeTemp(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snap.gts")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestUnknownVersionRejected: the reader accepts exactly one format
// version. Any other header — version 1 (the framed-column layout older
// builds wrote) included — fails with ErrVersion naming the accepted
// version, under Load and OpenMapped alike, and is never misparsed.
func TestUnknownVersionRejected(t *testing.T) {
	g := dataset.DBLPScaled(9, 0.004)
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, v := range []uint16{0, 1, 3, 0xffff} {
		binary.LittleEndian.PutUint16(data[8:10], v)
		_, lerr := Load(bytes.NewReader(data))
		m, merr := OpenMapped(writeTemp(t, data))
		if merr == nil {
			m.Close()
		}
		for name, err := range map[string]error{"Load": lerr, "OpenMapped": merr} {
			if !errors.Is(err, ErrVersion) {
				t.Fatalf("version %d %s: %v, want ErrVersion", v, name, err)
			}
			if !strings.Contains(err.Error(), "accepts version 2") {
				t.Fatalf("version %d %s: %q does not name the accepted version", v, name, err)
			}
		}
	}
}

// violationGraph is small enough to address by hand: T = 3 (one word per
// τ), nodes a, b, c, d with d isolated, edges (a,b) and (b,c).
//
//	τu: a=111 b=111 c=011 d=100      τe: (a,b)=110 (b,c)=010
func violationGraph(t *testing.T) *core.Graph {
	t.Helper()
	b := core.NewBuilder(timeline.MustNew("t0", "t1", "t2"),
		core.AttrSpec{Name: "grp", Kind: core.Static},
		core.AttrSpec{Name: "lvl", Kind: core.TimeVarying})
	for i, times := range [][]int{{0, 1, 2}, {0, 1, 2}, {0, 1}, {2}} {
		n := b.AddNode(string(rune('a' + i)))
		b.SetStatic(0, n, []string{"x", "y"}[i%2])
		for _, tt := range times {
			b.SetNodeTime(n, timeline.Time(tt))
			b.SetVarying(1, n, timeline.Time(tt), []string{"lo", "hi"}[(i+tt)%2])
		}
	}
	for _, e := range []struct {
		u, v  core.NodeID
		times []int
	}{{0, 1, []int{1, 2}}, {1, 2, []int{1}}} {
		id := b.AddEdge(e.u, e.v)
		for _, tt := range e.times {
			b.SetEdgeTime(id, timeline.Time(tt))
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// restamp rewrites the CRC of the framed record whose payload starts at lo.
func restamp(data []byte, lo, hi int) {
	binary.LittleEndian.PutUint32(data[lo-4:lo], crc32.Checksum(data[lo:hi], castagnoli))
}

// mutateBlob applies fn to the blob (kind, param) of a copy of data and
// re-stamps the blob's CRC in the directory and the directory record's own,
// so the result is checksum-valid throughout.
func mutateBlob(t *testing.T, data []byte, kind, param uint32, fn func(b []byte)) []byte {
	t.Helper()
	mut := append([]byte(nil), data...)
	lo, hi, ok := findSection(t, mut, secBlobDir)
	if !ok {
		t.Fatal("no blob directory")
	}
	for ent := lo + 1 + 4 + 8; ent+blobDirEntryLen <= hi; ent += blobDirEntryLen {
		if binary.LittleEndian.Uint32(mut[ent:]) != kind || binary.LittleEndian.Uint32(mut[ent+4:]) != param {
			continue
		}
		off := binary.LittleEndian.Uint64(mut[ent+8:])
		length := binary.LittleEndian.Uint64(mut[ent+16:])
		b := mut[off : off+length]
		fn(b)
		binary.LittleEndian.PutUint32(mut[ent+24:], crc32.Checksum(b, castagnoli))
		restamp(mut, lo, hi)
		return mut
	}
	t.Fatalf("no blob kind %d param %d", kind, param)
	return nil
}

// TestLoadSemanticViolations: files whose every checksum holds but whose
// content breaks one rule of core.Graph.Validate. Load must name the rule
// under ErrCorrupt; OpenMapped, which skips Validate, must reject the file
// or serve it without panicking.
func TestLoadSemanticViolations(t *testing.T) {
	g := violationGraph(t)
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := Load(bytes.NewReader(data)); err != nil {
		t.Fatalf("unmutated file: %v", err)
	}
	word := func(i int, w uint64) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint64(b[i*8:], w) }
	}
	code := func(i int, c int32) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint32(b[i*4:], uint32(c)) }
	}
	type violation struct {
		name string
		mut  []byte
		want string
	}
	cases := []violation{
		{"empty node tau", mutateBlob(t, data, blobNodeTau, 1, word(3, 0)), "node d has empty timestamp"},
		{"empty edge tau", mutateBlob(t, data, blobEdgeTau, 1, word(1, 0)), "edge (b,c) has empty timestamp"},
		{"edge outlives endpoint", mutateBlob(t, data, blobEdgeTau, 1, word(1, 0b110)), "edge (b,c) exists at a time its endpoints do not"},
		{"duplicate edge", mutateBlob(t, data, blobEdges, 0, func(b []byte) { copy(b[8:16], b[0:8]) }), "duplicate edge (a,b)"},
		{"endpoint beyond nodes", mutateBlob(t, data, blobEdges, 0, code(3, 4)), "out of range"},
		{"static code beyond domain", mutateBlob(t, data, blobStatic, 0, code(2, 2)), `"grp" code 2 outside its dictionary`},
		{"varying code below none", mutateBlob(t, data, blobVarying, 1, code(4, -2)), `"lvl" code -2 outside its dictionary`},
		{"node bit beyond timeline", mutateBlob(t, data, blobNodeTau, 1, word(0, 0b1111)), "node a has existence bits beyond the timeline"},
		{"edge bit beyond timeline", mutateBlob(t, data, blobEdgeTau, 1, word(0, 1<<40|0b110)), "edge 0 has existence bits beyond the timeline"},
	}
	// Node labels live in a framed section, not a blob: rename d to a.
	dup := append([]byte(nil), data...)
	lo, hi, _ := findSection(t, dup, secNodes)
	dup[hi-1] = 'a'
	restamp(dup, lo, hi)
	cases = append(cases, violation{"duplicate node label", dup, `duplicate node label "a"`})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Load(bytes.NewReader(c.mut))
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Load: %v, want ErrCorrupt naming %q", err, c.want)
			}
			m, err := OpenMapped(writeTemp(t, c.mut))
			if err != nil {
				if !isStorageError(err) {
					t.Fatalf("OpenMapped: untyped error %v", err)
				}
				return
			}
			defer m.Close()
			// Served unvalidated: every read path must stay in bounds.
			mg := m.Graph
			all := mg.Timeline().All()
			for _, kind := range []agg.Kind{agg.Distinct, agg.All} {
				agg.Aggregate(ops.Union(mg, all, all), agg.MustSchema(mg, 0, 1), kind)
			}
			for tt := 0; tt < mg.Timeline().Len(); tt++ {
				mg.NodesAt(timeline.Time(tt))
				mg.EdgesAt(timeline.Time(tt))
			}
			mg.NodeByLabel("a")
			mg.EdgeByEndpoints(0, 1)
		})
	}
}

// TestSwapFields pins the big-endian conversion on a copied blob of a real
// file: after the in-place swap a big-endian read of every field yields
// what a little-endian read of the original does, for both field widths the
// format has, and a second swap restores the bytes.
func TestSwapFields(t *testing.T) {
	data := validSnapshotBytes(t)
	p, err := parseV2(data, true)
	if err != nil {
		t.Fatal(err)
	}
	tau := append([]byte(nil), p.nodeTauB...)
	swapFields(tau, 8)
	for i := 0; i+8 <= len(tau); i += 8 {
		if got, want := binary.BigEndian.Uint64(tau[i:]), binary.LittleEndian.Uint64(p.nodeTauB[i:]); got != want {
			t.Fatalf("tau word %d: %#x after swap, want %#x", i/8, got, want)
		}
	}
	edges := append([]byte(nil), p.edgesB...)
	swapFields(edges, 4)
	for i := 0; i+4 <= len(edges); i += 4 {
		if got, want := binary.BigEndian.Uint32(edges[i:]), binary.LittleEndian.Uint32(p.edgesB[i:]); got != want {
			t.Fatalf("endpoint %d: %#x after swap, want %#x", i/4, got, want)
		}
	}
	swapFields(tau, 8)
	swapFields(edges, 4)
	if !bytes.Equal(tau, p.nodeTauB) || !bytes.Equal(edges, p.edgesB) {
		t.Fatal("swapping twice is not the identity")
	}
}
