package explore

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/evolution"
	"repro/internal/gtest"
	"repro/internal/ops"
	"repro/internal/timeline"
)

// measureCase is one setting of the fast ≡ seed property: an all-static
// schema on a graph, a count kind and a measure.
type measureCase struct {
	name   string
	s      *agg.Schema
	kind   agg.Kind
	result Measure
}

// pair returns the case's explorer on the fast path — incremental views and
// the mask evaluator — and on the seed path (NoFastPath).
func (c measureCase) pair() (fast, seed *Explorer) {
	g := c.s.Graph()
	fast = &Explorer{Graph: g, Schema: c.s, Kind: c.kind, Result: c.result}
	seed = &Explorer{Graph: g, Schema: c.s, Kind: c.kind, Result: c.result, NoFastPath: true}
	return fast, seed
}

// staticSchema returns the schema on g's static attributes, nil without any.
func staticSchema(g *core.Graph) *agg.Schema {
	var static []core.AttrID
	for a := 0; a < g.NumAttrs(); a++ {
		if g.Attr(core.AttrID(a)).Kind == core.Static {
			static = append(static, core.AttrID(a))
		}
	}
	if len(static) == 0 {
		return nil
	}
	return agg.MustSchema(g, static...)
}

// casesOn returns the four measures × both kinds on s. The tuple measures
// target the endpoints of a real edge whose tuples exist, so their match
// masks are neither empty nor everything.
func casesOn(name string, s *agg.Schema, r *rand.Rand) []measureCase {
	measures := []Measure{TotalEdges, TotalNodes}
	names := []string{"total-edges", "total-nodes"}
	g := s.Graph()
	for try := 0; try < 20 && g.NumEdges() > 0; try++ {
		ep := g.Edge(core.EdgeID(r.Intn(g.NumEdges())))
		from, ok1 := s.StaticTuple(ep.U)
		to, ok2 := s.StaticTuple(ep.V)
		if !ok1 || !ok2 {
			continue
		}
		node, _ := NodeTuple(s, s.Decode(from)...)
		edge, _ := EdgeTuple(s, s.Decode(from), s.Decode(to))
		measures, names = append(measures, node, edge), append(names, "node-tuple", "edge-tuple")
		break
	}
	var out []measureCase
	for i, m := range measures {
		for _, kind := range []agg.Kind{agg.Distinct, agg.All} {
			out = append(out, measureCase{name + "/" + names[i] + "/" + kind.String(), s, kind, m})
		}
	}
	return out
}

// measureCases covers the paper's running example, random graphs (every
// node has every value), a long-lived graph whose static attribute is
// missing on one node in ten (so the total's match mask is not everything),
// the same graph accumulated point by point (point-index columns shorter
// than the id space), and DBLP at scale 0.25.
func measureCases(t *testing.T) []measureCase {
	t.Helper()
	r := rand.New(rand.NewSource(29))
	g := core.PaperExample()
	cases := casesOn("paper", agg.MustSchema(g, g.MustAttr("gender")), r)
	for seed := int64(0); len(cases) < 40; seed++ {
		if s := staticSchema(gtest.RandomGraph(rand.New(rand.NewSource(seed)), gtest.DefaultParams())); s != nil {
			cases = append(cases, casesOn("random", s, r)...)
		}
	}
	long := gtest.LongLivedGraph(rand.New(rand.NewSource(3)), 40)
	s := agg.MustSchema(long, long.MustAttr("grp"))
	if nodes, _ := s.StaticMatch(); nodes == nil {
		t.Fatal("long-lived fixture: every node has grp, the match mask is not exercised")
	}
	cases = append(cases, casesOn("missing", s, r)...)
	acc := gtest.Accumulated(long)
	cases = append(cases, casesOn("accumulated", agg.MustSchema(acc, acc.MustAttr("grp")), r)...)
	return cases
}

// dblpCases is DBLP at scale 0.25 aggregated by gender.
func dblpCases() []measureCase {
	g := dataset.DBLPScaled(1, 0.25)
	return casesOn("dblp0.25", agg.MustSchema(g, g.MustAttr("gender")), rand.New(rand.NewSource(29)))
}

var (
	allEvents = []Event{evolution.Stability, evolution.Growth, evolution.Shrinkage}
	allSems   = []Semantics{UnionSemantics, IntersectionSemantics}
	allExts   = []Extend{ExtendOld, ExtendNew}
)

// checkFastMatchesSeed asserts fast ≡ NoFastPath for one case: InitK, then
// every Table 1 traversal at a threshold drawn from the InitK range —
// pairs, order and Evaluations — and, unless quick, Naive and TuneK with
// its memo.
func checkFastMatchesSeed(t *testing.T, c measureCase, quick bool) {
	t.Helper()
	fast, seed := c.pair()
	for _, ev := range allEvents {
		fast.Evaluations, seed.Evaluations = 0, 0
		fmin, fmax := fast.InitK(ev)
		smin, smax := seed.InitK(ev)
		if fmin != smin || fmax != smax || fast.Evaluations != seed.Evaluations {
			t.Fatalf("%s %v: InitK masks (%d,%d) seed (%d,%d)", c.name, ev, fmin, fmax, smin, smax)
		}
		for _, k := range []int64{max(smin, 1), max((smin+smax)/2, 1), max(smax, 1)} {
			for _, sem := range allSems {
				for _, ext := range allExts {
					want := seed.Explore(ev, sem, ext, k)
					evals := seed.Evaluations
					if got := fast.Explore(ev, sem, ext, k); !samePairs(got, want) || fast.Evaluations != evals {
						t.Fatalf("%s %v/%v/%v k=%d: masks %v (%d evals), seed %v (%d)",
							c.name, ev, sem, ext, k, pairStrings(got), fast.Evaluations, pairStrings(want), evals)
					}
					if quick {
						continue
					}
					want = seed.Naive(ev, sem, ext, k)
					if got := fast.Naive(ev, sem, ext, k); !samePairs(got, want) || fast.Evaluations != seed.Evaluations {
						t.Fatalf("%s %v/%v/%v k=%d: Naive diverges", c.name, ev, sem, ext, k)
					}
				}
			}
		}
		if quick {
			continue
		}
		for _, sem := range allSems {
			kf, pf := fast.TuneK(ev, sem, ExtendNew, 2)
			ks, ps := seed.TuneK(ev, sem, ExtendNew, 2)
			if kf != ks || !samePairs(pf, ps) {
				t.Fatalf("%s %v/%v: TuneK masks (%d, %v), seed (%d, %v)", c.name, ev, sem, kf, pairStrings(pf), ks, pairStrings(ps))
			}
		}
	}
}

// TestMasksMatchSeed is the fast ≡ seed property of the mask evaluator: on
// all-static schemas, every measure and kind returns the seed path's pairs,
// order and Evaluations through Explore, Naive, InitK and TuneK.
func TestMasksMatchSeed(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Log("GOMAXPROCS is 1: the parallel evaluator runs serially")
	}
	for _, c := range measureCases(t) {
		checkFastMatchesSeed(t, c, false)
	}
	for _, c := range dblpCases() {
		if testing.Short() && (c.kind == agg.All || c.result != TotalEdges) {
			continue
		}
		checkFastMatchesSeed(t, c, true)
	}
}

// evalCase compares eval on the mask evaluator with the seed evaluation for
// every event between the two selectors.
func evalCase(t *testing.T, c measureCase, old, new ops.Sel) bool {
	t.Helper()
	fast, seed := c.pair()
	m := fast.masks()
	if m == nil {
		t.Fatalf("%s: no mask evaluator on an all-static schema", c.name)
	}
	for _, ev := range allEvents {
		if got, want := fast.eval(m, ev, old, new), seed.eval(nil, ev, old, new); got != want {
			t.Errorf("%s %v old=%v(∀%v) new=%v(∀%v): masks %d, seed %d",
				c.name, ev, old.Interval, old.ForAll, new.Interval, new.ForAll, got, want)
			return false
		}
	}
	return true
}

func TestEdgeIndexRequiresStaticSchema(t *testing.T) {
	// A time-varying schema has no single match mask: the fast path keeps
	// aggregating there.
	g := core.PaperExample()
	varying := agg.MustSchema(g, g.MustAttr("publications"))
	m, err := EdgeTuple(varying, []string{"1"}, []string{"1"})
	if err != nil {
		t.Fatal(err)
	}
	if (&Explorer{Graph: g, Schema: varying, Result: m}).masks() != nil {
		t.Error("mask evaluator on a time-varying schema")
	}
	static := agg.MustSchema(g, g.MustAttr("gender"))
	if (&Explorer{Graph: g, Schema: static, Result: m, NoFastPath: true}).masks() != nil {
		t.Error("mask evaluator under NoFastPath")
	}
	if _, err := EdgeTuple(static, []string{"zz"}, []string{"f"}); err == nil {
		t.Error("EdgeTuple with out-of-domain tuple should fail")
	}
}

func TestEdgeIndexEvalMatchesGeneralPath(t *testing.T) {
	g := core.PaperExample()
	tl := g.Timeline()
	s := agg.MustSchema(g, g.MustAttr("gender"))
	mf, err := EdgeTuple(s, []string{"m"}, []string{"f"})
	if err != nil {
		t.Fatal(err)
	}
	sels := []ops.Sel{
		ops.Exists(tl.Point(0)),
		ops.Exists(tl.Range(0, 1)),
		ops.ForAll(tl.Range(1, 2)),
		ops.ForAll(tl.All()),
	}
	for _, kind := range []agg.Kind{agg.Distinct, agg.All} {
		for _, old := range sels {
			for _, new := range sels {
				evalCase(t, measureCase{"paper/m→f", s, kind, mf}, old, new)
			}
		}
	}
}

func TestIndexedExplorerMatchesGeneral(t *testing.T) {
	g := core.PaperExample()
	s := agg.MustSchema(g, g.MustAttr("gender"))
	mf, _ := EdgeTuple(s, []string{"m"}, []string{"f"})
	fast, seed := measureCase{"paper/m→f", s, agg.Distinct, mf}.pair()
	for _, ev := range allEvents {
		for _, sem := range allSems {
			for _, ext := range allExts {
				for k := int64(1); k <= 3; k++ {
					a := fast.Explore(ev, sem, ext, k)
					b := seed.Explore(ev, sem, ext, k)
					if !samePairs(a, b) {
						t.Errorf("%v/%v/%v k=%d: masks %v seed %v",
							ev, sem, ext, k, pairStrings(a), pairStrings(b))
					}
				}
			}
		}
	}
}

// TestQuickEdgeIndexMatchesGeneral: eval on the mask evaluator ≡ the seed
// evaluation between random selectors, for every case of measureCases.
func TestQuickEdgeIndexMatchesGeneral(t *testing.T) {
	cases := measureCases(t)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := cases[r.Intn(len(cases))]
		tl := c.s.Graph().Timeline()
		for trial := 0; trial < 5; trial++ {
			old := ops.Sel{Interval: gtest.RandomInterval(r, tl), ForAll: r.Intn(2) == 0}
			new := ops.Sel{Interval: gtest.RandomInterval(r, tl), ForAll: r.Intn(2) == 0}
			if !evalCase(t, c, old, new) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeIndexValidation(t *testing.T) {
	g := core.PaperExample()
	varying := agg.MustSchema(g, g.MustAttr("publications"))
	m, err := NodeTuple(varying, "1")
	if err != nil {
		t.Fatal(err)
	}
	if (&Explorer{Graph: g, Schema: varying, Result: m}).masks() != nil {
		t.Error("mask evaluator on a time-varying schema")
	}
	if _, err := NodeTuple(agg.MustSchema(g, g.MustAttr("gender")), "zz"); err == nil {
		t.Error("out-of-domain tuple should fail")
	}
}

func TestNodeIndexEvalFixture(t *testing.T) {
	g := core.PaperExample()
	tl := g.Timeline()
	s := agg.MustSchema(g, g.MustAttr("gender"))
	eval := func(value string, ev Event, old, new int) int64 {
		m, err := NodeTuple(s, value)
		if err != nil {
			t.Fatal(err)
		}
		ex := &Explorer{Graph: g, Schema: s, Kind: agg.Distinct, Result: m}
		return ex.eval(ex.masks(), ev, ops.Exists(tl.Point(timeline.Time(old))), ops.Exists(tl.Point(timeline.Time(new))))
	}
	// Stable f nodes t0→t1: u2, u4.
	if got := eval("f", evolution.Stability, 0, 1); got != 2 {
		t.Errorf("stability = %d, want 2", got)
	}
	// Shrinkage t0→t1: u3 vanishes (f). u1 is an endpoint of the removed
	// edge (u1,u3) but is male, so the f count stays 1.
	if got := eval("f", evolution.Shrinkage, 0, 1); got != 1 {
		t.Errorf("shrinkage(f) = %d, want 1", got)
	}
	// The endpoint rule shows up for m: u1 still exists at t1 yet counts
	// in the difference because of the removed edge.
	if got := eval("m", evolution.Shrinkage, 0, 1); got != 1 {
		t.Errorf("shrinkage(m) = %d, want 1 (endpoint rule)", got)
	}
	// Growth t1→t2: u5 (m) appears; u4 (f) is an endpoint of the new edge
	// (u4,u5) and u2 of (u2,u5).
	if got := eval("f", evolution.Growth, 1, 2); got != 2 {
		t.Errorf("growth(f) = %d, want 2 (u2, u4 as endpoints)", got)
	}
	if got := eval("m", evolution.Growth, 1, 2); got != 1 {
		t.Errorf("growth(m) = %d, want 1 (u5)", got)
	}
}

// TestQuickNodeIndexMatchesGeneral: the node measures of measureCases
// through the fast path at a random threshold ≡ the seed path, every
// traversal.
func TestQuickNodeIndexMatchesGeneral(t *testing.T) {
	var cases []measureCase
	for _, c := range measureCases(t) {
		if c.result.nodes {
			cases = append(cases, c)
		}
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := cases[r.Intn(len(cases))]
		fast, slow := c.pair()
		k := 1 + r.Int63n(4)
		for _, ev := range allEvents {
			for _, sem := range allSems {
				for _, ext := range allExts {
					if !samePairs(fast.Explore(ev, sem, ext, k), slow.Explore(ev, sem, ext, k)) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeIndexedExplorerMatchesGeneral(t *testing.T) {
	g := core.PaperExample()
	s := agg.MustSchema(g, g.MustAttr("gender"))
	f, _ := NodeTuple(s, "f")
	fast, seed := measureCase{"paper/f", s, agg.Distinct, f}.pair()
	for _, ev := range allEvents {
		for _, sem := range allSems {
			for _, ext := range allExts {
				a := fast.Explore(ev, sem, ext, 2)
				b := seed.Explore(ev, sem, ext, 2)
				if !samePairs(a, b) {
					t.Errorf("%v/%v/%v: masks %v seed %v",
						ev, sem, ext, pairStrings(a), pairStrings(b))
				}
			}
		}
	}
}
