package tgql

import (
	"fmt"
	"strings"

	"repro/internal/plan"
)

// The parser builds the planner's logical IR (plan.Aggregate, plan.Evolve,
// …) directly. Intervals and attribute values stay symbolic, with their
// byte offsets, until plan.Compile resolves them against a concrete graph.

// parser consumes the token stream. in is the original query text, kept
// for line:column rendering in errors. err is the first error: once it is
// set every method is a no-op and keyword matches nothing, so a grammar
// rule reads as the sequence of its parts.
type parser struct {
	toks []token
	pos  int
	in   string
	err  error
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) take() {
	if p.toks[p.pos].kind != tokEOF {
		p.pos++
	}
}

// fail records an error anchored at t, unless an earlier one stands.
func (p *parser) fail(t token, format string, args ...interface{}) {
	if p.err != nil {
		return
	}
	if t.kind == tokEOF {
		format += " (at end of input)"
	}
	p.err = plan.PosErrorf(p.in, t.pos, t.text, format, args...)
}

// expected fails at the next token with "expected <what>, found <token>".
func (p *parser) expected(what string) {
	p.fail(p.peek(), "expected %s, found %q", what, p.peek().text)
}

// keyword consumes an identifier and reports whether it equals kw
// (case-insensitive).
func (p *parser) keyword(kw string) bool {
	t := p.peek()
	if p.err == nil && t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.take()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) {
	if !p.keyword(kw) {
		p.expected(kw)
	}
}

// pick consumes one of the keywords kws and returns it lowercased, as the
// IR spells it; what names them in the error when the next token is none.
func (p *parser) pick(what string, kws ...string) string {
	for _, kw := range kws {
		if p.keyword(kw) {
			return strings.ToLower(kw)
		}
	}
	p.expected(what)
	return ""
}

func (p *parser) kind() string { return p.pick("DIST or ALL", "DIST", "ALL") }

func (p *parser) event() string {
	return p.pick("STABILITY, GROWTH or SHRINKAGE", "STABILITY", "GROWTH", "SHRINKAGE")
}

// expect consumes a punctuation token of kind k.
func (p *parser) expect(k tokenKind, format string, args ...interface{}) {
	if p.err == nil && p.peek().kind == k {
		p.take()
		return
	}
	p.fail(p.peek(), format, args...)
}

// value consumes an identifier or quoted string and returns it with its
// byte offset, which resolution errors point at.
func (p *parser) value() (string, int) {
	t := p.peek()
	if p.err == nil && (t.kind == tokIdent || t.kind == tokString) {
		p.take()
		return t.text, t.pos
	}
	p.expected("a value")
	return "", t.pos
}

// values parses value (, value)*.
func (p *parser) values() (vs []string, poss []int) {
	for {
		v, pos := p.value()
		if p.err != nil {
			return nil, nil
		}
		vs, poss = append(vs, v), append(poss, pos)
		if p.peek().kind != tokComma {
			return vs, poss
		}
		p.take()
	}
}

// integer parses a clause's integer argument, at least lo. msg is the
// clause's complaint, with one %q for the argument; like the other
// argument errors it points at the token after the argument.
func (p *parser) integer(lo int64, msg string) int64 {
	v, _ := p.value()
	var n int64
	if p.err == nil {
		if _, err := fmt.Sscanf(v, "%d", &n); err != nil || n < lo {
			p.fail(p.peek(), msg, v)
		}
	}
	return n
}

// label parses one time-point label. An empty one is an error: the IR
// reads an interval without labels as an absent clause.
func (p *parser) label() (string, int) {
	t := p.peek()
	v, pos := p.value()
	if p.err == nil && v == "" {
		p.fail(t, "empty time-point label")
	}
	return v, pos
}

// interval parses label or label..label.
func (p *parser) interval() (r plan.IntervalRef) {
	r.From, r.FromPos = p.label()
	if p.peek().kind == tokRange {
		p.take()
		r.To, r.ToPos = p.label()
	}
	return r
}

// temporalOp parses the temporal operator expression of AGG … ON; POINT
// and PROJECT both are the planner's project operator.
func (p *parser) temporalOp() plan.TemporalOp {
	t := p.peek()
	if p.err != nil || t.kind != tokIdent {
		p.expected("an operator")
		return plan.TemporalOp{}
	}
	op := strings.ToUpper(t.text)
	var name string
	switch op {
	case "POINT", "PROJECT":
		p.take()
		return plan.TemporalOp{Op: plan.OpProject, A: p.interval()}
	case "UNION":
		name = plan.OpUnion
	case "INTERSECT":
		name = plan.OpIntersection
	case "DIFF":
		name = plan.OpDifference
	default:
		p.fail(t, "unknown operator %q (want POINT, PROJECT, UNION, INTERSECT or DIFF)", t.text)
		return plan.TemporalOp{}
	}
	p.take()
	p.expect(tokLParen, "expected ( after %s", op)
	a := p.interval()
	p.expect(tokComma, "expected , in %s(...)", op)
	b := p.interval()
	p.expect(tokRParen, "expected ) to close %s(...)", op)
	return plan.TemporalOp{Op: name, A: a, B: b}
}

// predicates parses cmp (AND cmp)*: the WHERE grammar after its keyword.
func (p *parser) predicates() []plan.Predicate {
	var out []plan.Predicate
	for {
		var c plan.Predicate
		c.Attr, c.AttrPos = p.value()
		if t := p.peek(); p.err == nil && t.kind == tokOp {
			p.take()
			c.Op = t.text
		} else {
			p.expected("a comparison operator")
		}
		c.Value, c.ValuePos = p.value()
		if p.err != nil {
			return nil
		}
		out = append(out, c)
		if !p.keyword("AND") {
			return out
		}
	}
}

// where parses WHERE cmp (AND cmp)* if present.
func (p *parser) where() []plan.Predicate {
	if !p.keyword("WHERE") {
		return nil
	}
	return p.predicates()
}

func (p *parser) atEOF() {
	if t := p.peek(); t.kind != tokEOF {
		p.fail(t, "unexpected trailing input starting at %q", t.text)
	}
}

// temporal parses one of the trailing bi-temporal clauses — VALID DURING
// <interval> or AS OF <txn> — into the node's refs, reporting whether it
// consumed one. Each may appear once per statement.
func (p *parser) temporal(valid *plan.IntervalRef, asOf *plan.TxnRef) bool {
	t := p.peek()
	switch {
	case p.keyword("VALID"):
		p.expectKeyword("DURING")
		if !valid.IsZero() {
			p.fail(t, "duplicate VALID DURING clause")
		}
		*valid = p.interval()
	case p.keyword("AS"):
		p.expectKeyword("OF")
		if !asOf.IsZero() {
			p.fail(t, "duplicate AS OF clause")
		}
		pos := p.peek().pos
		txn := p.integer(1, "AS OF wants a positive transaction number, got %q")
		*asOf = plan.TxnRef{Txn: int(txn), Pos: pos}
	default:
		return false
	}
	return true
}

// clauses parses a statement's optional trailing clauses, in any order,
// until none matches, then requires the end of input. clause consumes one
// statement-specific clause and reports whether it did (nil when the
// statement has none); the bi-temporal clauses are tried after it.
func (p *parser) clauses(valid *plan.IntervalRef, asOf *plan.TxnRef, clause func() bool) {
	for p.err == nil {
		if (clause == nil || !clause()) && !p.temporal(valid, asOf) {
			break
		}
	}
	p.atEOF()
}

// parse parses one statement, optionally prefixed with EXPLAIN [ANALYZE].
// EXPLAIN of a statement that has no logical plan is an error.
func parse(in string) (Statement, error) {
	toks, err := lexAll(in)
	if err != nil {
		return Statement{}, err
	}
	p := &parser{toks: toks, in: in}
	st := Statement{Explain: p.keyword("EXPLAIN")}
	st.Analyze = st.Explain && p.keyword("ANALYZE")
	switch {
	case p.keyword("STATS"):
		st.stats, st.NoPlan = true, noPlan("tgql.statsQuery")
		p.atEOF()
	case p.keyword("COARSEN"):
		st.coarsen = int(p.integer(1, "COARSEN wants a positive width, got %q"))
		st.NoPlan = noPlan("tgql.coarsenQuery")
		p.atEOF()
	case p.keyword("AGG"):
		st.Node = p.agg()
	case p.keyword("EVOLVE"):
		st.Node = p.evolve()
	case p.keyword("EXPLORE"):
		st.Node = p.explore()
	case p.keyword("TOP"):
		st.Node = p.top()
	case p.keyword("TIMELINE"):
		st.Node = p.timeline()
	case p.keyword("EVENTS"):
		st.Node = p.events()
	case p.keyword("PATHS"):
		st.Node = p.paths()
	case p.keyword("TREND"):
		st.Node = p.trend()
	default:
		p.expected("STATS, AGG, EVOLVE, EXPLORE, TOP, TIMELINE, COARSEN, EVENTS, PATHS or TREND")
	}
	if p.err == nil && st.Explain {
		p.err = st.NoPlan
	}
	if p.err != nil {
		return Statement{}, p.err
	}
	return st, nil
}

// noPlan is the error STATS and COARSEN report where a plan is asked for.
// name spells the statement as this error always has (a Go type name from
// before the parser built the IR), so clients keep seeing the same text.
func noPlan(name string) error {
	return fmt.Errorf("tgql: statement %s has no query plan (EXPLAIN supports AGG, EVOLVE, EXPLORE, TOP, TIMELINE, EVENTS, PATHS and TREND)", name)
}

// agg parses AGG kind attrs ON op [WHERE …] [MEASURE fn(attr)] [temporal].
func (p *parser) agg() plan.Logical {
	q := &plan.Aggregate{Kind: p.kind()}
	q.Attrs, q.AttrsPos = p.values()
	p.expectKeyword("ON")
	q.Op = p.temporalOp()
	q.Where = p.where()
	if p.keyword("MEASURE") {
		q.Measure = strings.ToUpper(p.pick("SUM, AVG, MIN or MAX", "SUM", "AVG", "MIN", "MAX"))
		p.expect(tokLParen, "expected ( after MEASURE %s", q.Measure)
		q.MeasureAttr, q.MeasureAttrPos = p.value()
		p.expect(tokRParen, "expected ) after measured attribute")
	}
	p.clauses(&q.Valid, &q.AsOf, nil)
	return q
}

// evolve parses EVOLVE kind attrs FROM interval TO interval [WHERE …]
// [temporal].
func (p *parser) evolve() plan.Logical {
	q := &plan.Evolve{Kind: p.kind()}
	q.Attrs, q.AttrsPos = p.values()
	p.expectKeyword("FROM")
	q.From = p.interval()
	p.expectKeyword("TO")
	q.To = p.interval()
	q.Where = p.where()
	p.clauses(&q.Valid, &q.AsOf, nil)
	return q
}

// explore parses EXPLORE event BY attrs and its optional clauses, in any
// order: EDGE/NODE target, SEMANTICS, EXTEND, K, TUNE, temporal.
func (p *parser) explore() plan.Logical {
	q := &plan.Explore{Event: p.event(), Semantics: "union", Extend: "new", K: -1}
	p.expectKeyword("BY")
	q.Attrs, q.AttrsPos = p.values()
	p.clauses(&q.Valid, &q.AsOf, func() bool {
		switch {
		case p.keyword("EDGE"):
			q.EdgeFrom, _ = p.values()
			p.expect(tokArrow, "expected -> in EDGE target")
			q.EdgeTo, _ = p.values()
		case p.keyword("NODE"):
			q.NodeTuple, _ = p.values()
		case p.keyword("SEMANTICS"):
			switch {
			case p.keyword("UNION"):
				q.Semantics = "union"
			case p.keyword("INTERSECTION"):
				q.Semantics = "intersection"
			default:
				p.fail(p.peek(), "expected UNION or INTERSECTION")
			}
		case p.keyword("EXTEND"):
			switch {
			case p.keyword("OLD"):
				q.Extend = "old"
			case p.keyword("NEW"):
				q.Extend = "new"
			default:
				p.fail(p.peek(), "expected OLD or NEW")
			}
		case p.keyword("K"):
			q.K = p.integer(1, "K wants a positive integer, got %q")
		case p.keyword("TUNE"):
			q.Tune = int(p.integer(1, "TUNE wants a positive integer, got %q"))
		default:
			return false
		}
		return true
	})
	return q
}

// top parses TOP n event BY attrs [temporal] — rank the aggregate edges
// (attribute groups) by peak event count over consecutive interval pairs.
func (p *parser) top() plan.Logical {
	q := &plan.Top{N: int(p.integer(1, "TOP wants a positive count, got %q")), Event: p.event()}
	p.expectKeyword("BY")
	q.Attrs, q.AttrsPos = p.values()
	p.clauses(&q.Valid, &q.AsOf, nil)
	return q
}

// timeline parses TIMELINE BY attrs [WHERE …] [temporal].
func (p *parser) timeline() plan.Logical {
	q := &plan.Timeline{}
	p.expectKeyword("BY")
	q.Attrs, q.AttrsPos = p.values()
	q.Where = p.where()
	p.clauses(&q.Valid, &q.AsOf, nil)
	return q
}

func (p *parser) width() int {
	return int(p.integer(1, "WIDTH wants a positive integer, got %q"))
}

// events parses EVENTS kind BY attrs and its optional clauses, in any
// order: WIDTH n, MIN n, WHERE …, temporal.
func (p *parser) events() plan.Logical {
	q := &plan.Events{Kind: p.kind(), Width: 1}
	p.expectKeyword("BY")
	q.Attrs, q.AttrsPos = p.values()
	p.clauses(&q.Valid, &q.AsOf, func() bool {
		switch {
		case p.keyword("WIDTH"):
			q.Width = p.width()
		case p.keyword("MIN"):
			q.Min = p.integer(0, "MIN wants a non-negative integer, got %q")
		case p.keyword("WHERE"):
			q.Where = p.predicates()
		default:
			return false
		}
		return true
	})
	return q
}

// paths parses PATHS EARLIEST|FASTEST FROM v(,v)* TO v(,v)* [DURING
// interval] [temporal].
func (p *parser) paths() plan.Logical {
	q := &plan.Paths{Mode: p.pick("EARLIEST or FASTEST", "EARLIEST", "FASTEST")}
	p.expectKeyword("FROM")
	q.From, q.FromPos = p.values()
	p.expectKeyword("TO")
	q.To, q.ToPos = p.values()
	if p.keyword("DURING") {
		q.During = p.interval()
	}
	p.clauses(&q.Valid, &q.AsOf, nil)
	return q
}

// trend parses TREND kind BY attrs and its optional clauses, in any order:
// WIDTH n, WHERE …, temporal.
func (p *parser) trend() plan.Logical {
	q := &plan.Trend{Kind: p.kind(), Width: 1}
	p.expectKeyword("BY")
	q.Attrs, q.AttrsPos = p.values()
	p.clauses(&q.Valid, &q.AsOf, func() bool {
		switch {
		case p.keyword("WIDTH"):
			q.Width = p.width()
		case p.keyword("WHERE"):
			q.Where = p.predicates()
		default:
			return false
		}
		return true
	})
	return q
}
