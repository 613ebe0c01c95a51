package main

import (
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"

	"repro/internal/server"
)

// opClass groups ops by the end-to-end latency metric they feed.
type opClass uint8

const (
	classAgg     opClass = iota // POST /v1/aggregate            -> agg_p50_ms
	classExplore                // POST /v1/explore              -> explore_p50_ms
	classStmt                   // POST /v1/tgql, /v1/explain    -> stmt_p50_ms
	classPin                    // as_of op missing history LRU  -> pin_p50_ms
	classWrite                  // POST /v1/ingest               -> write_p50_ms
	numClasses
)

var classNames = [numClasses]string{"agg", "explore", "stmt", "pin", "write"}

// template is one request shape. Exactly one of Agg, Explore and Query
// describes it for the oracle and for the traced replica.
type template struct {
	Name    string
	Class   opClass
	Path    string
	Body    []byte
	Agg     *server.AggregateRequest
	Explore *server.ExploreRequest
	Query   string    // TGQL text; Path tells /v1/tgql from /v1/explain
	Stmt    *stmtSpec // what Query says, for the oracle and the replica
	// Checked templates are byte-compared with the oracle at warm-up and
	// must keep their payload hash in the measured phase. Unchecked ones
	// (adhoc_scan's one-off interval draws) are checked for a well-formed
	// 200 only: an oracle pass over thousands of distinct scans would cost
	// more than the run itself.
	Checked bool
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("bench: marshal request: %v", err))
	}
	return b
}

// labelRange is a contiguous label range; To == "" means the single point From.
type labelRange struct{ From, To string }

func (r labelRange) spec() server.IntervalSpec {
	return server.IntervalSpec{From: r.From, To: r.To}
}

// String renders the range in TGQL statement syntax; the datasets' labels
// (DBLP years, day12) are bare identifiers there.
func (r labelRange) String() string {
	if r.To == "" || r.To == r.From {
		return r.From
	}
	return r.From + ".." + r.To
}

// rangeOf returns labels[i..j] as a range.
func rangeOf(labels []string, i, j int) labelRange {
	if j <= i {
		return labelRange{From: labels[i]}
	}
	return labelRange{From: labels[i], To: labels[j]}
}

// aggT builds a POST /v1/aggregate template. b is ignored for project.
func aggT(op, kind string, attrs []string, a, b labelRange, checked bool) template {
	req := &server.AggregateRequest{Op: op, Interval: a.spec(), Attrs: attrs, Kind: kind}
	name := fmt.Sprintf("agg/%s/%s/%s/%s", op, kind, strings.Join(attrs, "+"), a)
	if op != "project" {
		req.Interval2 = b.spec()
		name += "|" + b.String()
	}
	return template{Name: name, Class: classAgg, Path: "/v1/aggregate", Body: mustJSON(req), Agg: req, Checked: checked}
}

// stmtSpec is a TGQL statement in structured form: the benchmark renders
// the text from it and the oracle evaluates it without parsing TGQL.
type stmtSpec struct {
	Family string // agg, evolve, top, events, paths, trend
	Op     string // agg: project, union, intersection, difference
	Kind   string // dist or all
	Attrs  []string
	A, B   labelRange // agg operands; evolve FROM/TO; paths DURING in A
	Width  int        // events, trend (0 = default 1)
	Min    int64      // events
	Event  string     // top
	N      int        // top
	From   []string   // paths sources
	To     []string   // paths targets
}

// text renders the statement.
func (q *stmtSpec) text() string {
	by := strings.ToUpper(q.Kind) + " BY " + strings.Join(q.Attrs, ", ")
	switch q.Family {
	case "agg":
		var on string
		switch q.Op {
		case "project":
			on = "PROJECT " + q.A.String()
		case "union":
			on = "UNION(" + q.A.String() + ", " + q.B.String() + ")"
		case "intersection":
			on = "INTERSECT(" + q.A.String() + ", " + q.B.String() + ")"
		default:
			on = "DIFF(" + q.A.String() + ", " + q.B.String() + ")"
		}
		return fmt.Sprintf("AGG %s %s ON %s", strings.ToUpper(q.Kind), strings.Join(q.Attrs, ", "), on)
	case "evolve":
		return fmt.Sprintf("EVOLVE %s %s FROM %s TO %s", strings.ToUpper(q.Kind), strings.Join(q.Attrs, ", "), q.A, q.B)
	case "top":
		return fmt.Sprintf("TOP %d %s BY %s", q.N, strings.ToUpper(q.Event), strings.Join(q.Attrs, ", "))
	case "events":
		s := "EVENTS " + by
		if q.Width > 0 {
			s += fmt.Sprintf(" WIDTH %d", q.Width)
		}
		if q.Min > 0 {
			s += fmt.Sprintf(" MIN %d", q.Min)
		}
		return s
	case "paths":
		s := "PATHS EARLIEST FROM " + strings.Join(q.From, ", ") + " TO " + strings.Join(q.To, ", ")
		if q.A.From != "" {
			s += " DURING " + q.A.String()
		}
		return s
	default:
		s := "TREND " + by
		if q.Width > 0 {
			s += fmt.Sprintf(" WIDTH %d", q.Width)
		}
		return s
	}
}

// stmtT is a POST /v1/tgql template.
func stmtT(q stmtSpec) template {
	text := q.text()
	return template{Name: "stmt/" + text, Class: classStmt, Path: "/v1/tgql",
		Body: mustJSON(server.TGQLRequest{Query: text}), Query: text, Stmt: &q, Checked: true}
}

// explainT asks for the statement's plan instead of running it.
func explainT(q stmtSpec) template {
	text := q.text()
	return template{Name: "explain/" + text, Class: classStmt, Path: "/v1/explain",
		Body: mustJSON(server.ExplainRequest{Query: text}), Query: text, Stmt: &q, Checked: true}
}

// aggStmt is aggT's TGQL twin: the same query as a statement.
func aggStmt(op, kind string, attrs []string, a, b labelRange) stmtSpec {
	return stmtSpec{Family: "agg", Op: op, Kind: kind, Attrs: attrs, A: a, B: b}
}

func trendStmt(attrs []string, width int) stmtSpec {
	return stmtSpec{Family: "trend", Kind: "all", Attrs: attrs, Width: width}
}

func exploreT(event, sem, ext string, k int64, attrs []string, kind string) template {
	req := &server.ExploreRequest{Event: event, Semantics: sem, Extend: ext, K: k, Attrs: attrs, Kind: kind}
	return template{Name: fmt.Sprintf("explore/%s/%s/%s/k=%d/%s/%s", event, sem, ext, k, strings.Join(attrs, "+"), kind),
		Class: classExplore, Path: "/v1/explore", Body: mustJSON(req), Explore: req, Checked: true}
}

// schedule is a workload's fixed op sequence: ops[i] indexes templates.
// The op count is fixed, not the duration, so counts repeat exactly.
type schedule struct {
	templates []template
	ops       []int32
}

// hashRequest folds one request into a schedule fingerprint.
func hashRequest(h hash.Hash64, path string, body []byte) {
	h.Write([]byte(path))
	h.Write([]byte{0})
	h.Write(body)
	h.Write([]byte{0})
}

// hash fingerprints the sequence of requests the servers will receive.
func (s *schedule) hash() uint64 {
	h := fnv.New64a()
	for _, op := range s.ops {
		hashRequest(h, s.templates[op].Path, s.templates[op].Body)
	}
	return h.Sum64()
}

// prefix returns the first frac of the schedule (at least one op): the
// traced run executes a 10 % prefix of what the end-to-end run executes.
func (s *schedule) prefix(frac float64) []int32 {
	n := int(float64(len(s.ops)) * frac)
	return s.ops[:max(1, min(n, len(s.ops)))]
}

// at scales a [0,1] position to an index into n labels.
func at(n int, frac float64) int { return min(n-1, int(frac*float64(n))) }

var (
	attrG  = []string{"gender"}
	attrP  = []string{"publications"}
	attrGP = []string{"gender", "publications"}
)

// dashHotSchedule is the dashboard mix: a small fixed set of union-ALL
// aggregates the materialization catalog answers, their TGQL twins, TREND
// (catalog-composed) and EXPLAIN, weighted Zipf(1.1) in this rank order. No
// DIST, which the catalog never answers. The template set does not depend
// on the seed — a dashboard's panels are fixed — the draw sequence does.
func dashHotSchedule(labels []string, n int, r *rand.Rand) *schedule {
	T := len(labels)
	mid := at(T, 0.5)
	whole := [2]labelRange{rangeOf(labels, 0, mid-1), rangeOf(labels, mid, T-1)}
	recent := [2]labelRange{rangeOf(labels, at(T, 0.72), at(T, 0.85)), rangeOf(labels, at(T, 0.85)+1, T-1)}
	last2 := [2]labelRange{rangeOf(labels, T-2, T-2), rangeOf(labels, T-1, T-1)}
	early := [2]labelRange{rangeOf(labels, 0, at(T, 0.22)), rangeOf(labels, at(T, 0.22)+1, mid-1)}
	late := [2]labelRange{rangeOf(labels, mid, at(T, 0.7)), rangeOf(labels, at(T, 0.7)+1, T-1)}
	cross := [2]labelRange{rangeOf(labels, at(T, 0.25), mid-1), rangeOf(labels, mid, at(T, 0.7))}
	u := func(attrs []string, p [2]labelRange) template { return aggT("union", "all", attrs, p[0], p[1], true) }
	us := func(attrs []string, p [2]labelRange) template {
		return stmtT(aggStmt("union", "all", attrs, p[0], p[1]))
	}
	s := &schedule{templates: []template{
		u(attrG, whole), u(attrP, whole), u(attrGP, whole), us(attrG, whole),
		u(attrG, recent), stmtT(trendStmt(attrG, 0)), u(attrP, recent), us(attrGP, whole),
		u(attrGP, recent), us(attrP, recent), u(attrG, last2), stmtT(trendStmt(attrG, 3)),
		u(attrG, early), u(attrP, late), explainT(aggStmt("union", "all", attrG, whole[0], whole[1])), us(attrG, last2),
		u(attrGP, cross), stmtT(trendStmt(attrP, 0)), u(attrP, early), u(attrG, late),
		us(attrGP, recent), u(attrGP, last2), explainT(trendStmt(attrG, 0)),
		aggT("project", "all", attrG, rangeOf(labels, T-1, T-1), labelRange{}, true),
	}}
	weights := make([]float64, len(s.templates))
	for rank := range weights {
		weights[rank] = math.Pow(float64(rank+1), -1.1)
	}
	s.ops = apportion(weights, n, r)
	return s
}

// apportion returns n ops in seeded random order in which template i
// appears in proportion to weights[i]. The counts are the rounded
// expectations, not random draws, so a workload's cost does not drift with
// the seed; rounding leftovers go to the first (heaviest) template.
func apportion(weights []float64, n int, r *rand.Rand) []int32 {
	var sum float64
	for _, w := range weights {
		sum += w
	}
	ops := make([]int32, 0, n)
	for i, w := range weights {
		for c := int(math.Round(float64(n) * w / sum)); c > 0 && len(ops) < n; c-- {
			ops = append(ops, int32(i))
		}
	}
	for len(ops) < n {
		ops = append(ops, 0)
	}
	r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// allRanges lists every contiguous range of the labels, shortest first.
func allRanges(labels []string) []labelRange {
	var out []labelRange
	for n := 1; n <= len(labels); n++ {
		for i := 0; i+n <= len(labels); i++ {
			out = append(out, rangeOf(labels, i, i+n-1))
		}
	}
	return out
}

// scanShapes are the aggregates the catalog cannot answer: every operator
// and kind except union-ALL, on publications and on (gender, publications).
var scanShapes = func() (out []struct {
	op, kind string
	attrs    []string
}) {
	for _, op := range []string{"union", "intersection", "difference"} {
		for _, kind := range []string{"dist", "all"} {
			if op == "union" && kind == "all" {
				continue
			}
			for _, attrs := range [][]string{attrGP, attrP} {
				out = append(out, struct {
					op, kind string
					attrs    []string
				}{op, kind, attrs})
			}
		}
	}
	return out
}()

// scanDraws walks the space of scans so that every seed covers it evenly:
// the i-th draw takes the i-th shape in turn and steps through all
// contiguous ranges — a selectivity sweep from one point to the whole
// timeline — with two strides coprime to their number, starting at seeded
// offsets. Every range is an operand equally often whatever the seed; the
// seed decides which ranges meet and in which order. (Independent uniform
// draws made a run's cost depend on the seed by +-10 %.)
type scanDraws struct {
	ranges []labelRange
	a, b   int // seeded offsets
	sa, sb int // strides coprime to len(ranges)
	i      int
}

func newScanDraws(labels []string, r *rand.Rand) *scanDraws {
	d := &scanDraws{ranges: allRanges(labels)}
	n := len(d.ranges)
	d.a, d.b = r.Intn(n), r.Intn(n)
	d.sa, d.sb = coprimeNear(n*38/100, n), coprimeNear(n*59/100, n)
	return d
}

// coprimeNear returns the smallest k >= max(1, from) with gcd(k, n) == 1.
func coprimeNear(from, n int) int {
	gcd := func(a, b int) int {
		for b != 0 {
			a, b = b, a%b
		}
		return a
	}
	k := max(1, from)
	for gcd(k, n) != 1 {
		k++
	}
	return k
}

func (d *scanDraws) next(checked bool) template {
	sh := scanShapes[d.i%len(scanShapes)]
	n := len(d.ranges)
	// B shifts by one more stride each time A has been through all ranges,
	// so a later pass pairs every A with a new B.
	a, b := d.ranges[(d.a+d.i*d.sa)%n], d.ranges[(d.b+d.i*d.sb+d.i/n*d.sa)%n]
	d.i++
	return aggT(sh.op, sh.kind, sh.attrs, a, b, checked)
}

// jitterK draws a threshold near quantile q of an event's InitK range: the
// seed moves it by up to +-5 % of the range, so every seed asks a different
// threshold of the same selectivity.
func jitterK(lo, hi int64, q float64, r *rand.Rand) int64 {
	pos := q + (r.Float64()-0.5)*0.1
	return max(1, lo+int64(pos*float64(hi-lo)))
}

// exploreQuantiles are the positions in an event's InitK range at which
// adhocSchedule asks thresholds.
var exploreQuantiles = []float64{0.25, 0.5, 0.75}

// adhocSchedule is the analyst mix. 70 % aggregates that are one-off
// scans (so the plan cache misses and the temporal operator really runs),
// the first of them oracle-checked probes; 12 % EXPLORE with k placed in
// each event's InitK range; 18 % EVENTS / PATHS / EVOLVE / TOP / AGG
// statements. kRange returns an event's InitK (min, max).
func adhocSchedule(labels, nodes []string, kRange func(event string) (int64, int64), n int, r *rand.Rand) *schedule {
	s := &schedule{}
	add := func(t template) int32 {
		s.templates = append(s.templates, t)
		return int32(len(s.templates) - 1)
	}

	var explores []int32
	for _, e := range []struct{ event, sem, ext string }{
		{"growth", "union", "new"},
		{"stability", "intersection", "new"},
		{"shrinkage", "union", "old"},
	} {
		lo, hi := kRange(e.event)
		for _, q := range exploreQuantiles {
			explores = append(explores, add(exploreT(e.event, e.sem, e.ext, jitterK(lo, hi, q, r), attrG, "dist")))
		}
	}

	pick := func(k int) []string {
		out := make([]string, k)
		for i := range out {
			out[i] = nodes[r.Intn(len(nodes))]
		}
		return out
	}
	T := len(labels)
	mid := at(T, 0.5)
	stmts := []int32{
		add(stmtT(stmtSpec{Family: "events", Kind: "dist", Attrs: attrG})),
		add(stmtT(stmtSpec{Family: "events", Kind: "all", Attrs: attrP, Width: 2})),
		add(stmtT(stmtSpec{Family: "events", Kind: "dist", Attrs: attrGP, Min: 50})),
		add(stmtT(stmtSpec{Family: "paths", From: pick(3), To: pick(6)})),
		add(stmtT(stmtSpec{Family: "paths", From: pick(2), To: pick(4), A: rangeOf(labels, at(T, 0.3), T-1)})),
		add(stmtT(stmtSpec{Family: "evolve", Kind: "dist", Attrs: attrGP, A: rangeOf(labels, at(T, 0.2), at(T, 0.4)), B: rangeOf(labels, at(T, 0.6), at(T, 0.8))})),
		add(stmtT(stmtSpec{Family: "evolve", Kind: "all", Attrs: attrG, A: rangeOf(labels, 0, mid-1), B: rangeOf(labels, mid, T-1)})),
		add(stmtT(stmtSpec{Family: "top", Event: "growth", N: 3, Attrs: attrG})),
		add(stmtT(stmtSpec{Family: "top", Event: "shrinkage", N: 3, Attrs: attrG})),
		add(stmtT(aggStmt("intersection", "dist", attrGP, rangeOf(labels, at(T, 0.3), at(T, 0.7)), rangeOf(labels, mid, T-1)))),
		add(stmtT(aggStmt("difference", "all", attrP, rangeOf(labels, mid, T-1), rangeOf(labels, 0, mid-1)))),
	}

	nExplore, nStmt := n*12/100, n*18/100
	nAgg := n - nExplore - nStmt
	nProbe := min(32, nAgg/4)
	for i := 0; i < nExplore; i++ {
		s.ops = append(s.ops, explores[i%len(explores)])
	}
	for i := 0; i < nStmt; i++ {
		s.ops = append(s.ops, stmts[i%len(stmts)])
	}
	draws := newScanDraws(labels, r)
	for i := 0; i < nAgg; i++ {
		s.ops = append(s.ops, add(draws.next(i < nProbe)))
	}
	r.Shuffle(len(s.ops), func(i, j int) { s.ops[i], s.ops[j] = s.ops[j], s.ops[i] })
	return s
}

// routerMixSchedule is the cluster mix over a timeline split at `split`
// (labels[:split] on the first shard): light scatterable union-ALL on
// gender, a few heavy scatterable union-DIST on (gender, publications), and
// mirror-only intersection / EXPLORE / TGQL. heavyPct is the share of heavy
// scatters; the light ones fill up to 70 %.
func routerMixSchedule(labels []string, split int, kRange func(event string) (int64, int64), heavyPct, n int, r *rand.Rand) *schedule {
	T := len(labels)
	s := &schedule{}
	add := func(t template) int32 {
		s.templates = append(s.templates, t)
		return int32(len(s.templates) - 1)
	}
	both := [2]labelRange{rangeOf(labels, 0, split-1), rangeOf(labels, split, T-1)}
	span := [2]labelRange{rangeOf(labels, at(T, 0.25), split), rangeOf(labels, split+1, at(T, 0.8))}
	old := [2]labelRange{rangeOf(labels, 0, split/2), rangeOf(labels, split/2+1, split-1)}
	tail := [2]labelRange{rangeOf(labels, split, at(T, 0.75)), rangeOf(labels, at(T, 0.75)+1, T-1)}
	edge := [2]labelRange{rangeOf(labels, split-1, split-1), rangeOf(labels, split, split)}
	var light, heavy, mirror []int32
	for _, p := range [][2]labelRange{both, span, old, tail, edge} {
		light = append(light, add(aggT("union", "all", attrG, p[0], p[1], true)))
	}
	// DIST partials carry entity lists, so a heavy scatter's cost grows with
	// the entities its operands select: 14 ms for DBLP's first two years,
	// 130 ms for its last two, 300-500 ms for the whole timeline (23 ms on
	// one node). Single-year operands from the older two thirds keep the
	// 5 % heavy ops near half of the workload's time, not all of it.
	around := [2]labelRange{rangeOf(labels, split-1, split-1), rangeOf(labels, split, split)}
	middle := [2]labelRange{rangeOf(labels, at(T, 0.62), at(T, 0.62)), rangeOf(labels, at(T, 0.62)+1, at(T, 0.62)+1)}
	oldest := [2]labelRange{rangeOf(labels, 0, 0), rangeOf(labels, 1, 1)}
	for _, p := range [][2]labelRange{around, middle, oldest} {
		heavy = append(heavy, add(aggT("union", "dist", attrGP, p[0], p[1], true)))
	}
	lo, hi := kRange("growth")
	mirror = append(mirror,
		add(aggT("intersection", "dist", attrG, both[0], both[1], true)),
		add(aggT("intersection", "all", attrGP, span[0], span[1], true)),
		add(aggT("difference", "dist", attrG, tail[1], tail[0], true)),
		add(exploreT("growth", "union", "new", jitterK(lo, hi, 0.5, r), attrG, "dist")),
		add(stmtT(trendStmt(attrG, 0))),
		add(stmtT(aggStmt("union", "all", attrG, both[0], both[1]))),
		add(stmtT(aggStmt("union", "all", attrGP, tail[0], tail[1]))),
		add(stmtT(trendStmt(attrP, 3))),
	)
	weights := make([]float64, len(s.templates))
	spread := func(pool []int32, share int) {
		for _, t := range pool {
			weights[t] = float64(share) / float64(len(pool))
		}
	}
	spread(heavy, heavyPct)
	spread(light, 70-heavyPct)
	spread(mirror, 30)
	s.ops = apportion(weights, n, r)
	return s
}
