package benchutil

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/tgql"
)

func TestExperimentPrint(t *testing.T) {
	e := &Experiment{ID: "x", Title: "demo", XLabel: "t", Series: []string{"a", "b", "entities", "g:groups"}}
	e.Add("t0", 0.5, 2, 24749, 12)
	e.Add("t1", 0, 0.00005, 3, 0)
	var buf bytes.Buffer
	e.Print(&buf)
	out := buf.String()
	if strings.Contains(out, "24749.00") || strings.Contains(out, "12.00") {
		t.Errorf("work counts printed with decimals:\n%s", out)
	}
	for _, want := range []string{"== x: demo ==", "t0", "0.5000", "2.00", "24749", "12"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestExperimentAddPanicsOnArity(t *testing.T) {
	e := &Experiment{Series: []string{"a"}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Add("x", 1, 2)
}

func TestTablePrint(t *testing.T) {
	tb := &tgql.Table{ID: "t3", Title: "stats", Header: []string{"tp", "n"}}
	tb.Add("2000", "17")
	var buf bytes.Buffer
	tb.Print(&buf)
	if !strings.Contains(buf.String(), "2000  17") {
		t.Errorf("output:\n%s", buf.String())
	}
}

func TestStatsTableMatchesGraph(t *testing.T) {
	g := dataset.PaperExample()
	tb := StatsTable("t", "paper example", g)
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tb.Rows))
	}
	if tb.Rows[0][1] != "4" || tb.Rows[0][2] != "3" {
		t.Errorf("t0 row = %v, want 4 nodes / 3 edges", tb.Rows[0])
	}
}

func TestFigures5Through11OnScaledDBLP(t *testing.T) {
	g := dataset.DBLPScaled(1, 0.01)
	n := g.Timeline().Len()

	f5 := Fig5("5a", "dblp", g, Fig5DBLPCombos)
	if len(f5.Rows) != n || len(f5.Series) != 3 {
		t.Errorf("Fig5 shape: %d rows × %d series", len(f5.Rows), len(f5.Series))
	}
	if f5.Series[2] != "g+p" {
		t.Errorf("combo label = %q", f5.Series[2])
	}

	f6 := Fig6("6", "dblp", g, "gender", "publications")
	if len(f6.Rows) != n-1 {
		t.Errorf("Fig6 rows = %d, want %d", len(f6.Rows), n-1)
	}

	f7 := Fig7("7", "dblp", g, "gender", "publications")
	// The core edges span [2000,2017]: 17 non-empty extensions.
	if len(f7.Rows) != 17 {
		t.Errorf("Fig7 rows = %d, want 17 (intersection non-empty up to [2000,2017])", len(f7.Rows))
	}

	f8 := Fig8("8", "dblp", g, "gender", "publications")
	f9 := Fig9("9", "dblp", g, "gender", "publications")
	if len(f8.Rows) != n-1 || len(f9.Rows) != n-1 {
		t.Errorf("Fig8/9 rows = %d/%d, want %d", len(f8.Rows), len(f9.Rows), n-1)
	}

	f10 := Fig10("10", "dblp", g, "gender", "publications")
	if len(f10.Rows) != n-1 || len(f10.Series) != 9 {
		t.Errorf("Fig10 shape: %d rows × %d series", len(f10.Rows), len(f10.Series))
	}
	for _, r := range f10.Rows {
		if r.Values[2] <= 0 || r.Values[5] <= 0 {
			t.Errorf("Fig10 speedup not positive: %v", r)
		}
	}

	f11 := Fig11("11a", "dblp", g, []string{"gender", "publications"},
		[][]string{{"gender"}, {"publications"}})
	if len(f11.Rows) != n || len(f11.Series) != 4 {
		t.Errorf("Fig11 shape: %d rows × %d series", len(f11.Rows), len(f11.Series))
	}
}

func TestFig11MovieLensVariants(t *testing.T) {
	g := dataset.MovieLensScaled(1, 0.01)
	singles := Fig11MovieLensSingle(g)
	if len(singles) != 6 {
		t.Fatalf("Fig11b experiments = %d, want 6", len(singles))
	}
	pairs := Fig11MovieLensPairs(g)
	if len(pairs.Series) != 6+2 {
		t.Errorf("Fig11c series = %d, want 6 pairs and the 2 work series", len(pairs.Series))
	}
	triples := Fig11MovieLensTriples(g)
	if len(triples.Series) != 4+2 {
		t.Errorf("Fig11d series = %d, want 4 triples and the 2 work series", len(triples.Series))
	}
	f5 := Fig5("5b", "movielens", g, Fig5MovieLensCombos)
	if len(f5.Rows) != 6 || len(f5.Series) != 7 || f5.Series[6] != "g+a+o+r" {
		t.Errorf("Fig5b shape: %d rows × series %v", len(f5.Rows), f5.Series)
	}
}

func TestFig12OnPaperExample(t *testing.T) {
	g := dataset.PaperExample()
	tl := g.Timeline()
	tb := Fig12("12", "paper", g, tl.Point(0), tl.Point(1), 0)
	if len(tb.Rows) == 0 {
		t.Fatal("Fig12 produced no rows")
	}
	// With minPubs=0 every appearance participates: the m node row shows
	// the stable u1 (St=1).
	foundM := false
	for _, r := range tb.Rows {
		if r[0] == "nodes m" {
			foundM = true
			if r[1] != "1" {
				t.Errorf("nodes m St = %s, want 1", r[1])
			}
		}
	}
	if !foundM {
		t.Error("no 'nodes m' row")
	}
}

func TestFigExplorationOnDBLP(t *testing.T) {
	g := dataset.DBLPScaled(1, 0.01)
	specs := PaperExplorations()
	if len(specs) != 3 {
		t.Fatal("want 3 exploration specs")
	}
	for i, spec := range specs {
		tb := FigExploration("14", "dblp f-f", g, "gender",
			[]string{"f"}, []string{"f"}, spec)
		if len(tb.Rows) != 3 {
			t.Errorf("spec %d: rows = %d, want 3 thresholds", i, len(tb.Rows))
		}
		checkEvaluations(t, tb)
	}
}

func TestWriteJSONRunMeta(t *testing.T) {
	e := &Experiment{ID: "x", Title: "demo", XLabel: "t", Series: []string{"a"}}
	e.Add("t0", 1)
	tb := &tgql.Table{ID: "t3", Title: "stats", Header: []string{"tp"}}
	tb.Add("2000")

	var buf bytes.Buffer
	if err := WriteJSON(&buf, e); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"meta"`) {
		t.Errorf("meta emitted without SetRunMeta:\n%s", buf.String())
	}

	SetRunMeta(&RunMeta{GoVersion: "go1.22", GOMAXPROCS: 8,
		Timestamp: "2026-08-06T00:00:00Z", Git: "abc123", Seed: 1, Scale: 0.5})
	defer SetRunMeta(nil)
	for _, p := range []Printable{e, tb} {
		buf.Reset()
		if err := WriteJSON(&buf, p); err != nil {
			t.Fatal(err)
		}
		var got struct {
			Kind string   `json:"kind"`
			Meta *RunMeta `json:"meta"`
		}
		if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
			t.Fatalf("bad JSON line %q: %v", buf.String(), err)
		}
		if got.Meta == nil || got.Meta.GoVersion != "go1.22" || got.Meta.GOMAXPROCS != 8 ||
			got.Meta.Git != "abc123" || got.Meta.Scale != 0.5 {
			t.Errorf("%s meta = %+v", got.Kind, got.Meta)
		}
	}
}
