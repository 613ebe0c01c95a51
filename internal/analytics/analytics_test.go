package analytics

import (
	"encoding/json"
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/materialize"
)

// mustSchema builds a node-group schema over the named attributes.
func mustSchema(t testing.TB, g *core.Graph, names ...string) *agg.Schema {
	t.Helper()
	s, err := agg.ByName(g, names...)
	if err != nil {
		t.Fatalf("schema %v: %v", names, err)
	}
	return s
}

// asJSON renders a result for byte comparison.
func asJSON(t testing.TB, v interface{}) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

func TestEventsPaperExample(t *testing.T) {
	g := core.PaperExample()
	spec := EventsSpec{Schema: mustSchema(t, g, "gender"), Kind: agg.Distinct, Width: 1}
	res := EventsSweep(g, spec)
	if res.Steps != g.Timeline().Len()-1 {
		t.Fatalf("steps = %d, want %d", res.Steps, g.Timeline().Len()-1)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no event rows on the paper example")
	}
	for _, r := range res.Rows {
		if r.Class != classOf(r.Gr, r.Shr) {
			t.Errorf("row %+v: class mismatch", r)
		}
	}
	// Engine and oracle agree to the byte.
	if a, b := asJSON(t, res), asJSON(t, NaiveEvents(g, spec)); a != b {
		t.Errorf("sweep vs naive:\n%s\n%s", a, b)
	}
}

func TestEventsMinFilters(t *testing.T) {
	g := core.PaperExample()
	spec := EventsSpec{Schema: mustSchema(t, g, "gender"), Kind: agg.Distinct, Width: 1, Min: 1}
	for _, r := range EventsSweep(g, spec).Rows {
		if r.Gr+r.Shr < 1 {
			t.Errorf("row %+v below MIN", r)
		}
	}
}

func TestEventsWideWindowSingleStep(t *testing.T) {
	g := core.PaperExample()
	T := g.Timeline().Len()
	// Width covering the whole timeline: one window, zero steps.
	spec := EventsSpec{Schema: mustSchema(t, g, "gender"), Kind: agg.All, Width: T}
	for name, res := range map[string]*EventsResult{
		"sweep": EventsSweep(g, spec), "naive": NaiveEvents(g, spec),
	} {
		if res.Steps != 0 || len(res.Rows) != 0 {
			t.Errorf("%s: steps=%d rows=%d, want 0/0", name, res.Steps, len(res.Rows))
		}
	}
}

func TestTrendPaperExample(t *testing.T) {
	g := core.PaperExample()
	spec := TrendSpec{Schema: mustSchema(t, g, "gender"), Kind: agg.All, Width: 2}
	scan := TrendScan(g, spec)
	if scan.Windows != g.Timeline().Len()-1 {
		t.Fatalf("windows = %d, want %d", scan.Windows, g.Timeline().Len()-1)
	}
	cat, err := TrendCatalog(materialize.NewCatalog(g), g, spec)
	if err != nil {
		t.Fatalf("catalog: %v", err)
	}
	if a, b := asJSON(t, scan), asJSON(t, cat); a != b {
		t.Errorf("scan vs catalog:\n%s\n%s", a, b)
	}
	if a, b := asJSON(t, scan), asJSON(t, NaiveTrend(g, spec)); a != b {
		t.Errorf("scan vs naive:\n%s\n%s", a, b)
	}
}

func TestTrendDistinct(t *testing.T) {
	g := core.PaperExample()
	for w := 1; w <= g.Timeline().Len()+1; w++ {
		spec := TrendSpec{Schema: mustSchema(t, g, "gender", "publications"), Kind: agg.Distinct, Width: w}
		if a, b := asJSON(t, TrendScan(g, spec)), asJSON(t, NaiveTrend(g, spec)); a != b {
			t.Errorf("width %d: scan vs naive:\n%s\n%s", w, a, b)
		}
	}
}

func TestSlopeOf(t *testing.T) {
	cases := []struct {
		series []int64
		dir    string
	}{
		{[]int64{1, 2, 3}, "up"},
		{[]int64{3, 2, 1}, "down"},
		{[]int64{2, 2, 2}, "flat"},
		{[]int64{1, 3, 1}, "flat"}, // symmetric: zero slope
		{[]int64{5}, "flat"},       // single window: no fit
		{nil, "flat"},
	}
	for _, c := range cases {
		if _, dir := slopeOf(c.series); dir != c.dir {
			t.Errorf("slopeOf(%v) direction = %s, want %s", c.series, dir, c.dir)
		}
	}
	if s, _ := slopeOf([]int64{0, 3}); s != "3" {
		t.Errorf("slope = %s, want 3", s)
	}
}

func TestPathsPaperExample(t *testing.T) {
	g := core.PaperExample()
	// Sources/targets: every node, whole timeline — self rows must exist
	// for any source that is also a target.
	var all []core.NodeID
	for n := 0; n < g.NumNodes(); n++ {
		all = append(all, core.NodeID(n))
	}
	for _, mode := range []string{ModeEarliest, ModeFastest} {
		spec := PathsSpec{Mode: mode, Src: all[:1], Dst: all, Window: g.Timeline().All()}
		fast := NewPathsEngine(g, spec).Run()
		if a, b := asJSON(t, fast), asJSON(t, NaivePaths(g, spec)); a != b {
			t.Errorf("%s: frontier vs naive:\n%s\n%s", mode, a, b)
		}
		// The source reaches itself at its first active point.
		found := false
		for _, r := range fast.Rows {
			if r.Node == g.NodeLabel(all[0]) {
				found = true
				if r.Duration < 1 {
					t.Errorf("%s: self row duration %d < 1", mode, r.Duration)
				}
			}
		}
		if !found {
			t.Errorf("%s: no self row for source", mode)
		}
	}
}

func TestPathsEmptyWindow(t *testing.T) {
	g := core.PaperExample()
	spec := PathsSpec{Mode: ModeEarliest, Src: []core.NodeID{0}, Dst: []core.NodeID{1},
		Window: g.Timeline().Empty()}
	for name, res := range map[string]*PathsResult{
		"frontier": NewPathsEngine(g, spec).Run(),
		"naive":    NaivePaths(g, spec),
	} {
		if res.Reached != 0 || len(res.Rows) != 0 {
			t.Errorf("%s: reached %d rows on an empty window", name, res.Reached)
		}
	}
}
