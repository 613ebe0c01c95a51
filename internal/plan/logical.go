// Package plan is GraphTempo's query planning layer: a logical-plan IR for
// the statement families (aggregate, explore, top, evolve, timeline, and
// the evolution-analytics family events/paths/trend), a physical planner
// that selects concrete operators through an explicit cost model, and an
// executable PhysicalPlan with an Explain rendering.
//
// The paper's partial-materialization strategies (§4.3) are decisions about
// which physical operator answers a logical query: a union-ALL aggregate
// can be composed from per-time-point materialized aggregates
// (T-distributive reuse) instead of rescanning the base graph, a
// single-point aggregate on an attribute subset can be rolled up from a
// materialized superset (D-distributive reuse), and exploration can run on
// incremental interval views instead of per-candidate rescans. Before this
// package those choices were smeared across agg (kernel dispatch), explore
// (fast-path eligibility), materialize (composition engine) and the two
// front ends (tgql, server), each hand-wiring its own engine calls. Every
// entry point now compiles through Compile: one auditable decision point,
// observable through Explain and the Selections counters.
package plan

import (
	"strconv"
	"strings"
)

// Logical is a logical query node: what to compute, with every operand
// still symbolic (time-point labels, attribute names, predicate strings).
// Compile resolves it against a concrete graph into a physical plan.
//
// Key returns the node's canonical text: a normalized TGQL-style rendering
// that is identical for every query spelling of the same logical plan
// (case, whitespace, POINT vs PROJECT, defaulted clauses). It is the plan
// cache key.
type Logical interface {
	Key() string
	logicalNode() // marker; the five node types live in this package
}

// IntervalRef selects time points symbolically: either a contiguous range
// From..To (To empty means the single point From) or an explicit point set.
// FromPos/ToPos carry byte offsets into the originating query text when the
// front end has one (TGQL), so resolution errors can point at the label.
type IntervalRef struct {
	From, To string
	Points   []string
	FromPos  int
	ToPos    int
}

// IsZero reports whether the ref selects nothing (no operand given).
func (r IntervalRef) IsZero() bool {
	return r.From == "" && r.To == "" && len(r.Points) == 0
}

// TxnRef selects a transaction-time position: the state the store served
// right after acknowledging its Txn'th ingest record. Txn 0 (the zero
// value) means "no AS OF clause" — the live head. Pos carries the byte
// offset of the literal in the originating query text when known.
type TxnRef struct {
	Txn int
	Pos int
}

// IsZero reports whether the ref selects the live head (no AS OF given).
func (r TxnRef) IsZero() bool { return r.Txn == 0 }

// renderTemporal appends the canonical bi-temporal suffix — the VALID
// DURING window then the AS OF transaction — to a node's Key rendering.
// Both clauses participate in the cache key, so a plan compiled against a
// reconstructed historical state can never collide with (or shadow) the
// same query against the live head.
func renderTemporal(b *strings.Builder, valid IntervalRef, asOf TxnRef) {
	if !valid.IsZero() {
		b.WriteString(" VALID DURING ")
		valid.render(b)
	}
	if !asOf.IsZero() {
		b.WriteString(" AS OF ")
		b.WriteString(strconv.Itoa(asOf.Txn))
	}
}

func (r IntervalRef) render(b *strings.Builder) {
	switch {
	case len(r.Points) > 0:
		b.WriteByte('{')
		for i, p := range r.Points {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(p)
		}
		b.WriteByte('}')
	case r.To != "" && r.To != r.From:
		b.WriteString(r.From)
		b.WriteString("..")
		b.WriteString(r.To)
	default:
		b.WriteString(r.From)
	}
}

// Temporal operator names, canonical lowercase. TGQL's POINT and PROJECT
// both normalize to OpProject (they are the same operator; POINT is sugar).
const (
	OpProject      = "project"
	OpUnion        = "union"
	OpIntersection = "intersection"
	OpDifference   = "difference"
)

// TemporalOp applies one of the §2.1 temporal operators to one (project)
// or two (union/intersection/difference) interval operands.
type TemporalOp struct {
	Op string // project, union, intersection, difference
	A  IntervalRef
	B  IntervalRef // zero for project
}

// opKeyword renders the canonical TGQL keyword of an operator name; an
// unknown one renders quoted, as kindKeyword does.
func opKeyword(op string) string {
	switch op {
	case OpProject:
		return "PROJECT"
	case OpUnion:
		return "UNION"
	case OpIntersection:
		return "INTERSECT"
	case OpDifference:
		return "DIFF"
	default:
		return strconv.Quote(op) // keyed apart from every valid operator
	}
}

func (t TemporalOp) render(b *strings.Builder) {
	b.WriteString(opKeyword(t.Op))
	if t.Op == OpProject {
		b.WriteByte(' ')
		t.A.render(b)
		return
	}
	b.WriteByte('(')
	t.A.render(b)
	b.WriteString(", ")
	t.B.render(b)
	b.WriteByte(')')
}

// Predicate is one WHERE comparison, still symbolic. AttrPos/ValuePos
// locate the operands in the originating query text when known.
type Predicate struct {
	Attr     string
	Op       string // = != < <= > >=
	Value    string
	AttrPos  int
	ValuePos int
}

func renderWhere(b *strings.Builder, preds []Predicate) {
	for i, p := range preds {
		if i == 0 {
			b.WriteString(" WHERE ")
		} else {
			b.WriteString(" AND ")
		}
		b.WriteString(p.Attr)
		b.WriteByte(' ')
		b.WriteString(p.Op)
		b.WriteString(" '")
		b.WriteString(p.Value)
		b.WriteByte('\'')
	}
}

func renderAttrs(b *strings.Builder, attrs []string) {
	for i, a := range attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a)
	}
}

// kindKeyword renders a wire/TGQL kind string canonically; resolution and
// validation happen at compile time. An unknown kind renders quoted, so its
// key never matches a valid statement's cached plan.
func kindKeyword(kind string) string {
	switch strings.ToLower(kind) {
	case "all":
		return "ALL"
	case "", "dist", "distinct":
		return "DIST"
	}
	return strconv.Quote(kind)
}

// Aggregate computes the aggregate graph of a temporal operator (§2.2):
// group nodes and edges by attribute tuple, count DIST entities or ALL
// appearances, optionally filtered by predicates or reduced by a measure.
type Aggregate struct {
	Op    TemporalOp
	Attrs []string
	// Kind is dist (default) or all; TGQL's DIST/ALL and the wire forms
	// dist/distinct/all are accepted.
	Kind  string
	Where []Predicate
	// Measure is "", SUM, AVG, MIN or MAX; MeasureAttr is the measured
	// attribute. A measure excludes Where (checked at compile).
	Measure     string
	MeasureAttr string

	// Valid restricts evaluation to a valid-time window; AsOf evaluates
	// against a reconstructed transaction-time state. Zero values mean the
	// full timeline of the live head.
	Valid IntervalRef
	AsOf  TxnRef

	// AttrsPos and MeasureAttrPos are query byte offsets when known.
	AttrsPos       []int
	MeasureAttrPos int
}

func (q *Aggregate) logicalNode() {}

// Key renders "AGG KIND attrs ON OP(...)[ WHERE ...][ MEASURE FN(attr)]".
func (q *Aggregate) Key() string {
	var b strings.Builder
	b.WriteString("AGG ")
	b.WriteString(kindKeyword(q.Kind))
	b.WriteByte(' ')
	renderAttrs(&b, q.Attrs)
	b.WriteString(" ON ")
	q.Op.render(&b)
	renderWhere(&b, q.Where)
	if q.Measure != "" {
		b.WriteString(" MEASURE ")
		b.WriteString(strings.ToUpper(q.Measure))
		b.WriteByte('(')
		b.WriteString(q.MeasureAttr)
		b.WriteByte(')')
	}
	renderTemporal(&b, q.Valid, q.AsOf)
	return b.String()
}

// Explore finds minimal/maximal interval pairs with at least K events
// (§3): event is stability, growth or shrinkage; semantics union (minimal)
// or intersection (maximal); extend picks the moving side.
type Explore struct {
	Event     string // stability, growth, shrinkage
	Attrs     []string
	Kind      string   // dist (default) or all
	Semantics string   // union (default) or intersection
	Extend    string   // new (default) or old
	Result    string   // edges (default) or nodes
	NodeTuple []string // non-empty: measure one aggregate node
	EdgeFrom  []string // non-empty with EdgeTo: measure one aggregate edge
	EdgeTo    []string
	// K < 1 selects the §3.5 initialization (max of consecutive-pair
	// results under union semantics, min under intersection); Tune > 0
	// runs the §3.5 tuning loop for at least Tune pairs instead.
	K    int64
	Tune int

	Valid IntervalRef
	AsOf  TxnRef

	AttrsPos []int
}

func (q *Explore) logicalNode() {}

// Key renders the canonical EXPLORE text with every clause explicit.
func (q *Explore) Key() string {
	var b strings.Builder
	b.WriteString("EXPLORE ")
	b.WriteString(strings.ToUpper(q.Event))
	b.WriteByte(' ')
	b.WriteString(kindKeyword(q.Kind))
	b.WriteString(" BY ")
	renderAttrs(&b, q.Attrs)
	switch {
	case len(q.EdgeFrom) > 0 || len(q.EdgeTo) > 0:
		b.WriteString(" EDGE ")
		renderAttrs(&b, q.EdgeFrom)
		b.WriteString(" -> ")
		renderAttrs(&b, q.EdgeTo)
	case len(q.NodeTuple) > 0:
		b.WriteString(" NODE ")
		renderAttrs(&b, q.NodeTuple)
	case strings.ToLower(q.Result) == "nodes":
		b.WriteString(" RESULT nodes")
	}
	b.WriteString(" SEMANTICS ")
	if strings.ToLower(q.Semantics) == "intersection" {
		b.WriteString("INTERSECTION")
	} else {
		b.WriteString("UNION")
	}
	b.WriteString(" EXTEND ")
	if strings.ToLower(q.Extend) == "old" {
		b.WriteString("OLD")
	} else {
		b.WriteString("NEW")
	}
	switch {
	case q.Tune > 0:
		b.WriteString(" TUNE ")
		b.WriteString(strconv.Itoa(q.Tune))
	case q.K >= 1:
		b.WriteString(" K ")
		b.WriteString(strconv.FormatInt(q.K, 10))
	default:
		b.WriteString(" K AUTO")
	}
	renderTemporal(&b, q.Valid, q.AsOf)
	return b.String()
}

// Top ranks the aggregate edges (attribute-pair groups) by their peak
// event count over consecutive interval pairs and returns the best N.
type Top struct {
	N     int
	Event string // stability, growth, shrinkage
	Attrs []string

	Valid IntervalRef
	AsOf  TxnRef

	AttrsPos []int
}

func (q *Top) logicalNode() {}

// Key renders "TOP n EVENT BY attrs".
func (q *Top) Key() string {
	var b strings.Builder
	b.WriteString("TOP ")
	b.WriteString(strconv.Itoa(q.N))
	b.WriteByte(' ')
	b.WriteString(strings.ToUpper(q.Event))
	b.WriteString(" BY ")
	renderAttrs(&b, q.Attrs)
	renderTemporal(&b, q.Valid, q.AsOf)
	return b.String()
}

// Evolve computes the evolution aggregate (stability/growth/shrinkage
// weights per attribute group) between two intervals.
type Evolve struct {
	Kind  string // dist (default) or all
	Attrs []string
	From  IntervalRef
	To    IntervalRef
	Where []Predicate

	Valid IntervalRef
	AsOf  TxnRef

	AttrsPos []int
}

func (q *Evolve) logicalNode() {}

// Key renders "EVOLVE KIND attrs FROM iv TO iv[ WHERE ...]".
func (q *Evolve) Key() string {
	var b strings.Builder
	b.WriteString("EVOLVE ")
	b.WriteString(kindKeyword(q.Kind))
	b.WriteByte(' ')
	renderAttrs(&b, q.Attrs)
	b.WriteString(" FROM ")
	q.From.render(&b)
	b.WriteString(" TO ")
	q.To.render(&b)
	renderWhere(&b, q.Where)
	renderTemporal(&b, q.Valid, q.AsOf)
	return b.String()
}

// Events classifies attribute groups into stability/growth/shrinkage
// events between consecutive width-Width windows of the timeline
// (internal/analytics EVENTS).
type Events struct {
	Kind  string // dist (default) or all
	Attrs []string
	// Width is the tiling window width; values < 1 normalize to 1.
	Width int
	// Min drops rows whose change magnitude Gr+Shr falls below it.
	Min   int64
	Where []Predicate

	Valid IntervalRef
	AsOf  TxnRef

	AttrsPos []int
}

func (q *Events) logicalNode() {}

// normWidth renders and compiles window widths uniformly: anything below 1
// means 1 (per-point windows).
func normWidth(w int) int {
	if w < 1 {
		return 1
	}
	return w
}

// Key renders "EVENTS KIND attrs WIDTH w[ MIN m][ WHERE ...]".
func (q *Events) Key() string {
	var b strings.Builder
	b.WriteString("EVENTS ")
	b.WriteString(kindKeyword(q.Kind))
	b.WriteByte(' ')
	renderAttrs(&b, q.Attrs)
	b.WriteString(" WIDTH ")
	b.WriteString(strconv.Itoa(normWidth(q.Width)))
	if q.Min > 0 {
		b.WriteString(" MIN ")
		b.WriteString(strconv.FormatInt(q.Min, 10))
	}
	renderWhere(&b, q.Where)
	renderTemporal(&b, q.Valid, q.AsOf)
	return b.String()
}

// Paths answers time-respecting path queries between two node sets within
// a window (internal/analytics PATHS).
type Paths struct {
	Mode string // earliest (default) or fastest
	From []string
	To   []string
	// During restricts the window; the zero ref means the whole timeline.
	During IntervalRef

	Valid IntervalRef
	AsOf  TxnRef

	FromPos []int
	ToPos   []int
}

func (q *Paths) logicalNode() {}

// modeKeyword renders a paths mode canonically, an unknown one quoted as
// kindKeyword does.
func modeKeyword(mode string) string {
	switch strings.ToLower(mode) {
	case "", "earliest":
		return "EARLIEST"
	case "fastest":
		return "FASTEST"
	}
	return strconv.Quote(mode)
}

// Key renders "PATHS MODE FROM labels TO labels[ DURING iv]".
func (q *Paths) Key() string {
	var b strings.Builder
	b.WriteString("PATHS ")
	b.WriteString(modeKeyword(q.Mode))
	b.WriteString(" FROM ")
	renderAttrs(&b, q.From)
	b.WriteString(" TO ")
	renderAttrs(&b, q.To)
	if !q.During.IsZero() {
		b.WriteString(" DURING ")
		q.During.render(&b)
	}
	renderTemporal(&b, q.Valid, q.AsOf)
	return b.String()
}

// Trend computes per-group weight series over a sliding width-Width window
// with slope/direction classification (internal/analytics TREND).
type Trend struct {
	Kind  string // dist (default) or all
	Attrs []string
	Width int
	Where []Predicate

	Valid IntervalRef
	AsOf  TxnRef

	AttrsPos []int
}

func (q *Trend) logicalNode() {}

// Key renders "TREND KIND attrs WIDTH w[ WHERE ...]".
func (q *Trend) Key() string {
	var b strings.Builder
	b.WriteString("TREND ")
	b.WriteString(kindKeyword(q.Kind))
	b.WriteByte(' ')
	renderAttrs(&b, q.Attrs)
	b.WriteString(" WIDTH ")
	b.WriteString(strconv.Itoa(normWidth(q.Width)))
	renderWhere(&b, q.Where)
	renderTemporal(&b, q.Valid, q.AsOf)
	return b.String()
}

// Timeline computes the evolution weights of every consecutive time-point
// pair (the REPL's evolution-over-time table).
type Timeline struct {
	Attrs []string
	Where []Predicate

	Valid IntervalRef
	AsOf  TxnRef

	AttrsPos []int
}

func (q *Timeline) logicalNode() {}

// Key renders "TIMELINE BY attrs[ WHERE ...]".
func (q *Timeline) Key() string {
	var b strings.Builder
	b.WriteString("TIMELINE BY ")
	renderAttrs(&b, q.Attrs)
	renderWhere(&b, q.Where)
	renderTemporal(&b, q.Valid, q.AsOf)
	return b.String()
}
