package storage

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/gtest"
	"repro/internal/ops"
	"repro/internal/timeline"
)

// nodeMajorDir holds one snapshot per layoutSources graph, written by the
// last writer that stored time-varying attributes node-major (blob kind 5).
const nodeMajorDir = "testdata/node_major"

// layoutSources are the graphs the layout tests read back, named after
// their file in nodeMajorDir: built graphs (dense rows of |V| codes), an
// accumulator snapshot (rows frozen at each point's node count) and an
// accumulator resumed from a loaded snapshot (both in one graph).
func layoutSources() []struct {
	name string
	g    *core.Graph
} {
	long := gtest.LongLivedGraph(rand.New(rand.NewSource(29)), 70)
	random := gtest.RandomGraph(rand.New(rand.NewSource(16)),
		gtest.Params{MaxTimes: 9, MaxNodes: 40, MaxEdges: 80, MaxStatic: 1, MaxVarying: 2, MaxDomain: 4})
	return []struct {
		name string
		g    *core.Graph
	}{
		{"longlived", long},
		{"random", random},
		{"values", gtest.ValueGraph(gtest.NastyValues)},
		{"accumulated", gtest.Accumulated(random)},
		{"resumed", resumedGraph(long, 40)},
	}
}

// resumedGraph replays g's first k points into an accumulator, round-trips
// that snapshot through Save and Load, resumes from it and replays the rest.
func resumedGraph(g *core.Graph, k int) *core.Graph {
	acc := core.NewAccumulator(g.Attrs()...)
	for tp := 0; tp < k; tp++ {
		gtest.ReplayPoint(acc, g, tp)
	}
	var buf bytes.Buffer
	if err := Save(&buf, acc.Snapshot()); err != nil {
		panic(err)
	}
	snap, err := Load(&buf)
	if err != nil {
		panic(err)
	}
	acc = core.ResumeAccumulator(snap.Graph)
	for tp := k; tp < g.Timeline().Len(); tp++ {
		gtest.ReplayPoint(acc, g, tp)
	}
	return acc.Snapshot()
}

func saved(t *testing.T, g *core.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

// columnKinds returns the blob kind of every attribute column of a file.
func columnKinds(t *testing.T, data []byte) []uint32 {
	t.Helper()
	p, err := parseV2(data, true)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p.attrKind
}

// TestCrossLayoutEquivalence: every way a graph reaches a reader — as
// built, as an accumulator snapshot, Load(Save(g)), and a node-major file an
// older writer produced, loaded — reads the same value at every (attribute,
// node, time point) and aggregates to the same ALL and DIST graphs over
// random intervals.
func TestCrossLayoutEquivalence(t *testing.T) {
	for _, src := range layoutSources() {
		t.Run(src.name, func(t *testing.T) {
			g := src.g
			if !hasVarying(g) {
				t.Fatal("source carries no time-varying attribute")
			}
			path := filepath.Join(t.TempDir(), "g.gts")
			if err := SaveFile(path, g); err != nil {
				t.Fatal(err)
			}
			legacy := filepath.Join(nodeMajorDir, src.name+".gts")
			readings := map[string]*core.Graph{
				"accumulator": gtest.Accumulated(g),
				"load":        loadGraph(t, path),
				"legacy load": loadGraph(t, legacy),
			}
			r := rand.New(rand.NewSource(int64(len(src.name))))
			ivs := make([][2]timeline.Interval, 12)
			for i := range ivs {
				ivs[i] = [2]timeline.Interval{gtest.RandomInterval(r, g.Timeline()), gtest.RandomInterval(r, g.Timeline())}
			}
			for name, got := range readings {
				sameValues(t, name, g, got)
				for _, iv := range ivs {
					for _, kind := range []agg.Kind{agg.All, agg.Distinct} {
						want := aggregated(g, iv, kind)
						if have := aggregated(got, iv, kind); !equalMaps(want, have) {
							t.Fatalf("%s: %s aggregate over %v differs:\n%v\nwant\n%v", name, kind, iv, have, want)
						}
					}
				}
			}
		})
	}
}

// TestRowsFileBytes pins the writer: Save∘Load is the identity on every
// file it writes (short accumulator rows come back padded and re-save to the
// same bytes), a node-major file re-saves as exactly what the writer makes
// of the graph it holds, and no fresh save carries a node-major blob.
func TestRowsFileBytes(t *testing.T) {
	for _, src := range layoutSources() {
		t.Run(src.name, func(t *testing.T) {
			fresh := saved(t, src.g)
			for _, k := range columnKinds(t, fresh) {
				if k == blobVarying {
					t.Fatalf("Save still writes blob kind %d", blobVarying)
				}
			}
			snap, err := Load(bytes.NewReader(fresh))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(saved(t, snap.Graph), fresh) {
				t.Fatal("Save(Load(f)) differs from f")
			}

			if src.name == "accumulated" || src.name == "resumed" {
				if !hasShortRow(src.g) {
					t.Fatal("every row holds every node: the source does not exercise padding")
				}
			}

			legacy, err := os.ReadFile(filepath.Join(nodeMajorDir, src.name+".gts"))
			if err != nil {
				t.Fatal(err)
			}
			if !containsKind(columnKinds(t, legacy), blobVarying) {
				t.Fatalf("%s/%s.gts carries no blob kind %d: not the legacy fixture", nodeMajorDir, src.name, blobVarying)
			}
			old, err := Load(bytes.NewReader(legacy))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(saved(t, old.Graph), fresh) {
				t.Fatal("a node-major file does not re-save as the rows file of its graph")
			}
		})
	}
}

// TestLoadRowsAliasBuffer: every row VaryingRows returns is a window of the
// buffer decode was handed — nothing is copied or derived at load or on a
// scan.
func TestLoadRowsAliasBuffer(t *testing.T) {
	g := gtest.LongLivedGraph(rand.New(rand.NewSource(29)), 70)
	data := saved(t, g)
	snap, err := decode(data)
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(&data[0]))
	hi := lo + uintptr(len(data))
	rows := snap.Graph.VaryingRows(snap.Graph.MustAttr("act"))
	if len(rows) != g.Timeline().Len() {
		t.Fatalf("%d rows for %d points", len(rows), g.Timeline().Len())
	}
	for tp, row := range rows {
		if len(row) != g.NumNodes() {
			t.Fatalf("row %d has %d codes, want %d", tp, len(row), g.NumNodes())
		}
		if p := uintptr(unsafe.Pointer(&row[0])); p < lo || p+uintptr(len(row))*4 > hi {
			t.Fatalf("row %d lives at %#x, outside the buffer [%#x,%#x)", tp, p, lo, hi)
		}
	}
}

func hasVarying(g *core.Graph) bool {
	for _, a := range g.Attrs() {
		if a.Kind == core.TimeVarying {
			return true
		}
	}
	return false
}

// hasShortRow reports whether some time-varying row of g stops before its
// last node.
func hasShortRow(g *core.Graph) bool {
	for a, spec := range g.Attrs() {
		if spec.Kind != core.TimeVarying {
			continue
		}
		for _, row := range g.VaryingRows(core.AttrID(a)) {
			if len(row) < g.NumNodes() {
				return true
			}
		}
	}
	return false
}

func containsKind(kinds []uint32, k uint32) bool {
	for _, x := range kinds {
		if x == k {
			return true
		}
	}
	return false
}

func loadGraph(t *testing.T, path string) *core.Graph {
	t.Helper()
	g, err := LoadGraph(path)
	if err != nil {
		t.Fatalf("LoadGraph %s: %v", path, err)
	}
	return g
}

// sameValues compares got with want at every (attribute, node, time point):
// by code when got numbers nodes and values as want does, by decoded value
// through the node label otherwise (an accumulator numbers by first
// appearance).
func sameValues(t *testing.T, name string, want, got *core.Graph) {
	t.Helper()
	if strings.Join(want.Timeline().Labels(), ",") != strings.Join(got.Timeline().Labels(), ",") ||
		want.NumNodes() != got.NumNodes() || want.NumAttrs() != got.NumAttrs() {
		t.Fatalf("%s: shape differs", name)
	}
	sameCoding := true
	for n := 0; n < want.NumNodes() && sameCoding; n++ {
		sameCoding = want.NodeLabel(core.NodeID(n)) == got.NodeLabel(core.NodeID(n))
	}
	for a := 0; a < want.NumAttrs() && sameCoding; a++ {
		sameCoding = strings.Join(want.Dict(core.AttrID(a)).Values(), "\x00") == strings.Join(got.Dict(core.AttrID(a)).Values(), "\x00")
	}
	for n := 0; n < want.NumNodes(); n++ {
		wn := core.NodeID(n)
		gn, ok := got.NodeByLabel(want.NodeLabel(wn))
		if !ok {
			t.Fatalf("%s: node %q missing", name, want.NodeLabel(wn))
		}
		for a := 0; a < want.NumAttrs(); a++ {
			ai := core.AttrID(a)
			for tp := 0; tp < want.Timeline().Len(); tp++ {
				at := timeline.Time(tp)
				if sameCoding && want.Value(ai, wn, at) != got.Value(ai, gn, at) {
					t.Fatalf("%s: attr %d node %d t%d: code %d, want %d", name, a, n, tp, got.Value(ai, gn, at), want.Value(ai, wn, at))
				}
				if w, h := want.ValueString(ai, wn, at), got.ValueString(ai, gn, at); w != h {
					t.Fatalf("%s: attr %d node %q t%d: %q, want %q", name, a, want.NodeLabel(wn), tp, h, w)
				}
			}
		}
	}
}

// aggregated is the union aggregate of g over iv on every attribute, keyed
// by decoded values so graphs with different codings compare.
func aggregated(g *core.Graph, iv [2]timeline.Interval, kind agg.Kind) map[string]int64 {
	attrs := make([]core.AttrID, g.NumAttrs())
	for a := range attrs {
		attrs[a] = core.AttrID(a)
	}
	s := agg.MustSchema(g, attrs...)
	ag := agg.Aggregate(ops.Union(g, iv[0], iv[1]), s, kind)
	out := make(map[string]int64, len(ag.Nodes)+len(ag.Edges))
	key := func(tu agg.Tuple) string { return strings.Join(s.Decode(tu), "\x00") }
	for tu, w := range ag.Nodes {
		out["n\x01"+key(tu)] = w
	}
	for k, w := range ag.Edges {
		out["e\x01"+key(k.From)+"\x01"+key(k.To)] = w
	}
	return out
}

func equalMaps(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}
