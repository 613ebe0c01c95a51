package agg

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gtest"
	"repro/internal/ops"
	"repro/internal/timeline"
)

// The reflection rendering AppendJSON replaced survives here as its
// byte-identity oracle: the wire structs through encoding/json, in an order
// recomputed the naive way — labels rebuilt inside the comparator, with the
// element-wise tie-break the wire order specifies.

type jsonNode struct {
	Values []string `json:"values"`
	Weight int64    `json:"weight"`
}

type jsonEdge struct {
	From   []string `json:"from"`
	To     []string `json:"to"`
	Weight int64    `json:"weight"`
}

type jsonGraph struct {
	Attributes []string   `json:"attributes"`
	Kind       string     `json:"kind"`
	Nodes      []jsonNode `json:"nodes"`
	Edges      []jsonEdge `json:"edges"`
}

func oracleOrder(ag *Graph) ([]Tuple, []EdgeKey) {
	s := ag.Schema
	label := func(tu Tuple) string { return strings.Join(s.Decode(tu), ",") }
	nodes := make([]Tuple, 0, len(ag.Nodes))
	for tu := range ag.Nodes {
		nodes = append(nodes, tu)
	}
	sort.Slice(nodes, func(i, j int) bool {
		if li, lj := label(nodes[i]), label(nodes[j]); li != lj {
			return li < lj
		}
		return slices.Compare(s.Decode(nodes[i]), s.Decode(nodes[j])) < 0
	})
	edges := make([]EdgeKey, 0, len(ag.Edges))
	for k := range ag.Edges {
		edges = append(edges, k)
	}
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if li, lj := label(a.From)+"→"+label(a.To), label(b.From)+"→"+label(b.To); li != lj {
			return li < lj
		}
		if c := slices.Compare(s.Decode(a.From), s.Decode(b.From)); c != 0 {
			return c < 0
		}
		return slices.Compare(s.Decode(a.To), s.Decode(b.To)) < 0
	})
	return nodes, edges
}

func oracleJSON(t testing.TB, ag *Graph) []byte {
	t.Helper()
	s := ag.Schema
	out := jsonGraph{Kind: ag.Kind.String()}
	for _, a := range s.attrs {
		out.Attributes = append(out.Attributes, s.g.Attr(a).Name)
	}
	nodes, edges := oracleOrder(ag)
	for _, tu := range nodes {
		out.Nodes = append(out.Nodes, jsonNode{Values: s.Decode(tu), Weight: ag.Nodes[tu]})
	}
	for _, k := range edges {
		out.Edges = append(out.Edges, jsonEdge{From: s.Decode(k.From), To: s.Decode(k.To), Weight: ag.Edges[k]})
	}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func oracleString(ag *Graph) string {
	var b strings.Builder
	label := func(tu Tuple) string { return strings.Join(ag.Schema.Decode(tu), ",") }
	fmt.Fprintf(&b, "aggregate graph (%s) on %d tuples\n", ag.Kind, len(ag.Nodes))
	nodes, edges := oracleOrder(ag)
	for _, tu := range nodes {
		fmt.Fprintf(&b, "  node (%s) w=%d\n", label(tu), ag.Nodes[tu])
	}
	for _, k := range edges {
		fmt.Fprintf(&b, "  edge (%s)→(%s) w=%d\n", label(k.From), label(k.To), ag.Edges[k])
	}
	return b.String()
}

// checkWire holds every rendering of ag to the oracle, twice: the first
// round renders each kept form into a prefixed buffer, the second appends
// the bytes the first kept. The escaped text is held to encoding/json of
// the text oracle, and each kept form to its share of ApproxBytes.
func checkWire(t testing.TB, ag *Graph) {
	t.Helper()
	want := oracleJSON(t, ag)
	wantText, err := json.Marshal(oracleString(ag))
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("prefix")
	for round := 0; round < 2; round++ {
		if got := ag.AppendJSON(slices.Clone(prefix)); !bytes.Equal(got, append(slices.Clone(prefix), want...)) {
			t.Fatalf("round %d: AppendJSON into a prefixed buffer differs from the reflection oracle\n got %s\nwant prefix%s", round, got, want)
		}
		if got := ag.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Fatalf("round %d: AppendJSON differs from the reflection oracle\n got %s\nwant %s", round, got, want)
		}
		// What bench/oracle.go and every other encoding/json caller sees.
		if got, err := json.Marshal(ag); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("round %d: json.Marshal differs from the reflection oracle (err %v)\n got %s\nwant %s", round, err, got, want)
		}
		if got := ag.AppendJSONText(slices.Clone(prefix)); !bytes.Equal(got, append(slices.Clone(prefix), wantText...)) {
			t.Fatalf("round %d: AppendJSONText into a prefixed buffer differs from encoding/json\n got %s\nwant prefix%s", round, got, wantText)
		}
		if got := ag.AppendJSONText(nil); !bytes.Equal(got, wantText) {
			t.Fatalf("round %d: AppendJSONText differs from encoding/json\n got %s\nwant %s", round, got, wantText)
		}
		if got, want := ag.String(), oracleString(ag); got != want {
			t.Fatalf("round %d: String differs from the fmt oracle\n got %q\nwant %q", round, got, want)
		}
	}
	jsonBound, textBound := ag.renderBounds()
	if int64(len(want)) > jsonBound || int64(len(wantText)) > textBound {
		t.Fatalf("kept %d wire and %d text bytes; ApproxBytes charges %d and %d for them", len(want), len(wantText), jsonBound, textBound)
	}
}

// TestWireMatchesOracleOnDBLP is the differential suite: every attribute
// order, kind and temporal operator — one of them with an empty result,
// which must render its lists as null.
func TestWireMatchesOracleOnDBLP(t *testing.T) {
	g := dataset.DBLPScaled(1, 0.2)
	tl := g.Timeline()
	mid := timeline.Time(tl.Len() / 2)
	early, late := tl.Range(0, mid-1), tl.Range(mid, timeline.Time(tl.Len()-1))
	views := map[string]*ops.View{
		"project":          ops.Project(g, tl.Range(mid, mid+1)),
		"union":            ops.Union(g, early, late),
		"intersection":     ops.Intersection(g, early, late),
		"difference":       ops.Difference(g, late, early),
		"difference-empty": ops.Difference(g, late, late),
	}
	if v := views["difference-empty"]; v.NumNodes() != 0 {
		t.Fatalf("A − A kept %d nodes; the suite needs one empty result", v.NumNodes())
	}
	for _, attrs := range [][]string{{"gender"}, {"publications"}, {"gender", "publications"}, {"publications", "gender"}} {
		s, err := ByName(g, attrs...)
		if err != nil {
			t.Fatal(err)
		}
		for name, v := range views {
			for _, kind := range []Kind{Distinct, All} {
				t.Run(fmt.Sprintf("%s/%s/%s", strings.Join(attrs, "+"), name, kind), func(t *testing.T) {
					ag := Aggregate(v, s, kind)
					checkWire(t, ag)
					if name == "difference-empty" && !bytes.Contains(ag.AppendJSON(nil), []byte(`"nodes":null,"edges":null`)) {
						t.Fatalf("empty result must render null lists: %s", ag.AppendJSON(nil))
					}
				})
			}
		}
	}
}

// TestWireMatchesOracleOnNastyValues: values that escape to six bytes a
// byte still render within the bounds ApproxBytes charges (checkWire) —
// also in a graph of one value with every weight 20 characters wide, where
// each group renders as wide as its bound allows.
func TestWireMatchesOracleOnNastyValues(t *testing.T) {
	graphs := []*core.Graph{gtest.ValueGraph(gtest.NastyValues)}
	for _, value := range gtest.NastyValues {
		graphs = append(graphs, gtest.ValueGraph([]string{value}))
	}
	for _, g := range graphs {
		v := ops.Union(g, g.Timeline().Point(0), g.Timeline().Point(1))
		for _, attrs := range [][]core.AttrID{{0}, {1}, {0, 1}, {1, 0}} {
			for _, kind := range []Kind{Distinct, All} {
				ag := Aggregate(v, MustSchema(g, attrs...), kind)
				checkWire(t, ag)
				wide := ag.Clone()
				for tu := range wide.Nodes {
					wide.Nodes[tu] = math.MinInt64
				}
				for k := range wide.Edges {
					wide.Edges[k] = math.MinInt64
				}
				checkWire(t, wide)
			}
		}
	}
}

// TestWireEscapesAttributeNames: stream mode takes attribute names from the
// command line, so they are escaped like values.
func TestWireEscapesAttributeNames(t *testing.T) {
	b := core.NewBuilder(timeline.MustNew("t0"), core.AttrSpec{Name: "a<&>\"\n\xff", Kind: core.Static})
	n := b.AddNode("u")
	b.SetNodeTime(n, 0)
	b.SetStatic(0, n, "v")
	g := b.MustBuild()
	checkWire(t, Aggregate(ops.At(g, 0), MustSchema(g, 0), Distinct))
}

// TestWireOrderGolden pins the order trap: edges sort by the concatenated
// string label(from)+"→"+label(to), not by the (from, to) pair, so
// (f,10)→… precedes (f,1)→… although node (f,1) precedes node (f,10).
func TestWireOrderGolden(t *testing.T) {
	b := core.NewBuilder(timeline.MustNew("t0"),
		core.AttrSpec{Name: "gender", Kind: core.Static}, core.AttrSpec{Name: "publications", Kind: core.TimeVarying})
	node := func(label, gender, pubs string) core.NodeID {
		n := b.AddNode(label)
		b.SetNodeTime(n, 0)
		b.SetStatic(0, n, gender)
		b.SetVarying(1, n, 0, pubs)
		return n
	}
	f1, f10, m1 := node("u1", "f", "1"), node("u2", "f", "10"), node("u3", "m", "1")
	b.SetEdgeTime(b.AddEdge(f1, m1), 0)
	b.SetEdgeTime(b.AddEdge(f10, m1), 0)
	g := b.MustBuild()
	for _, tc := range []struct {
		attrs []core.AttrID
		want  string
	}{
		{[]core.AttrID{0, 1}, `{"attributes":["gender","publications"],"kind":"DIST",` +
			`"nodes":[{"values":["f","1"],"weight":1},{"values":["f","10"],"weight":1},{"values":["m","1"],"weight":1}],` +
			`"edges":[{"from":["f","10"],"to":["m","1"],"weight":1},{"from":["f","1"],"to":["m","1"],"weight":1}]}`},
		{[]core.AttrID{1, 0}, `{"attributes":["publications","gender"],"kind":"DIST",` +
			`"nodes":[{"values":["1","f"],"weight":1},{"values":["1","m"],"weight":1},{"values":["10","f"],"weight":1}],` +
			`"edges":[{"from":["1","f"],"to":["1","m"],"weight":1},{"from":["10","f"],"to":["1","m"],"weight":1}]}`},
	} {
		ag := Aggregate(ops.At(g, 0), MustSchema(g, tc.attrs...), Distinct)
		if got := string(ag.AppendJSON(nil)); got != tc.want {
			t.Errorf("attrs %v:\n got %s\nwant %s", tc.attrs, got, tc.want)
		}
		checkWire(t, ag)
	}
}

// TestWireLabelCollisionIsDeterministic: ("a,b","c") and ("a","b,c") share
// the label "a,b,c". The element-wise tie-break must order them the same
// way on every run, whatever order the maps iterate in.
func TestWireLabelCollisionIsDeterministic(t *testing.T) {
	g := gtest.ValueGraph([]string{"a,b", "c", "a", "b,c"})
	s := MustSchema(g, 0, 1)
	first := Aggregate(ops.At(g, 0), s, All).AppendJSON(nil)
	if !bytes.Contains(first, []byte(`{"values":["a","b,c"],"weight":1},{"values":["a,b","c"],"weight":1}`)) {
		t.Fatalf("colliding labels not ordered element-wise: %s", first)
	}
	for i := 0; i < 50; i++ {
		ag := Aggregate(ops.At(g, 0), s, All).Clone() // a fresh map, a fresh iteration order
		if got := ag.AppendJSON(nil); !bytes.Equal(got, first) {
			t.Fatalf("run %d rendered equal graphs differently:\n%s\n%s", i, got, first)
		}
	}
}

// TestWireConcurrentEncode hammers one shared graph — what the catalog hands
// every request of a hot panel — from 16 goroutines. Run under -race.
func TestWireConcurrentEncode(t *testing.T) {
	g := dataset.DBLPScaled(1, 0.05)
	ag := Aggregate(ops.Union(g, g.Timeline().All(), g.Timeline().All()), MustSchema(g, 0, 1), All)
	want := oracleJSON(t, ag)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for i := 0; i < 20; i++ {
				if buf = ag.AppendJSON(buf[:0]); !bytes.Equal(buf, want) {
					t.Error("concurrent encode differs from the oracle")
					return
				}
				if got, want := ag.String(), oracleString(ag); got != want {
					t.Error("concurrent String differs from the oracle")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzGraphWireJSON holds the encoder to the reflection oracle on arbitrary
// attribute values, first render and kept bytes alike, on a graph and on an
// empty one, and the string appender to encoding/json itself.
func FuzzGraphWireJSON(f *testing.F) {
	for i := 0; i+2 < len(gtest.NastyValues); i += 3 {
		f.Add(gtest.NastyValues[i], gtest.NastyValues[i+1], gtest.NastyValues[i+2])
	}
	f.Add("f,1", "f", "1→m")
	f.Fuzz(func(t *testing.T, a, b, c string) {
		for _, v := range []string{a, b, c} {
			want, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			if got := AppendJSONString(nil, v); !bytes.Equal(got, want) {
				t.Fatalf("AppendJSONString(%q) = %s, encoding/json says %s", v, got, want)
			}
		}
		values := []string{a}
		for _, v := range []string{b, c} {
			if !slices.Contains(values, v) {
				values = append(values, v)
			}
		}
		g := gtest.ValueGraph(values)
		t0 := g.Timeline().Point(0)
		for _, attrs := range [][]core.AttrID{{0}, {1, 0}} {
			checkWire(t, Aggregate(ops.At(g, 0), MustSchema(g, attrs...), All))
			checkWire(t, Aggregate(ops.Difference(g, t0, t0), MustSchema(g, attrs...), Distinct))
		}
	})
}

func TestMarshalJSON(t *testing.T) {
	g := core.PaperExample()
	s := MustSchema(g, g.MustAttr("gender"), g.MustAttr("publications"))
	tl := g.Timeline()
	ag := Aggregate(ops.Union(g, tl.Point(0), tl.Point(1)), s, Distinct)

	data, err := json.Marshal(ag)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Attributes []string `json:"attributes"`
		Kind       string   `json:"kind"`
		Nodes      []struct {
			Values []string `json:"values"`
			Weight int64    `json:"weight"`
		} `json:"nodes"`
		Edges []struct {
			From   []string `json:"from"`
			To     []string `json:"to"`
			Weight int64    `json:"weight"`
		} `json:"edges"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Kind != "DIST" {
		t.Errorf("kind = %q", decoded.Kind)
	}
	if len(decoded.Attributes) != 2 || decoded.Attributes[0] != "gender" {
		t.Errorf("attributes = %v", decoded.Attributes)
	}
	found := false
	for _, n := range decoded.Nodes {
		if n.Values[0] == "f" && n.Values[1] == "1" {
			found = true
			if n.Weight != 3 {
				t.Errorf("JSON w(f,1) = %d, want 3", n.Weight)
			}
		}
	}
	if !found {
		t.Error("node (f,1) missing from JSON")
	}
	if len(decoded.Edges) != 4 {
		t.Errorf("edges = %d, want 4", len(decoded.Edges))
	}
}
