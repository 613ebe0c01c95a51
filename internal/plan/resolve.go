package plan

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/evolution"
	"repro/internal/explore"
	"repro/internal/ops"
	"repro/internal/timeline"
)

// This file resolves the symbolic IR operands against a concrete graph:
// interval refs to timeline.Intervals, temporal ops to views, attribute
// names to schemas, predicates to appearance filters, and the string-typed
// enums (kind, event, semantics, extend, result) to engine values. Both
// front ends — TGQL and the HTTP API — compile through these, so temporal
// expressions parse identically everywhere.
//
// Error rendering follows the front end: when the compile environment
// carries the original query text (TGQL), errors are positioned
// "tgql: line:col: msg (near "tok")" using the IR's byte offsets; without
// query text (HTTP requests) they are plain messages matching the wire
// API's historical wording.

// errf renders a resolution error: positioned against the query text when
// available, plain otherwise.
func errf(in string, pos int, near, format string, args ...interface{}) error {
	if in == "" {
		return fmt.Errorf(format, args...)
	}
	return PosErrorf(in, pos, near, format, args...)
}

// PosErrorf renders an error anchored at byte offset pos of the query text
// in as "tgql: line:col: msg (near "tok")", with 1-based line and column so
// errors in multi-line queries point at the spot; an empty near omits the
// token clause. The TGQL lexer and parser and plan resolution all report
// through it.
func PosErrorf(in string, pos int, near, format string, args ...interface{}) error {
	line, col := 1, 1
	for i := 0; i < pos && i < len(in); i++ {
		if in[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	msg := fmt.Sprintf(format, args...)
	if near != "" {
		return fmt.Errorf("tgql: %d:%d: %s (near %q)", line, col, msg, near)
	}
	return fmt.Errorf("tgql: %d:%d: %s", line, col, msg)
}

// ResolveInterval resolves a symbolic interval ref on g's timeline. in is
// the originating query text for positioned errors ("" for wire requests).
func ResolveInterval(g *core.Graph, in string, r IntervalRef) (timeline.Interval, error) {
	tl := g.Timeline()
	if len(r.Points) > 0 {
		if r.From != "" || r.To != "" {
			return timeline.Interval{}, errf(in, r.FromPos, "", "interval: points and from/to are mutually exclusive")
		}
		ts := make([]timeline.Time, len(r.Points))
		for i, l := range r.Points {
			t, ok := tl.TimeOf(l)
			if !ok {
				return timeline.Interval{}, errf(in, r.FromPos, l, "interval: unknown time point %q", l)
			}
			ts[i] = t
		}
		return tl.Of(ts...), nil
	}
	if r.From == "" {
		return timeline.Interval{}, errf(in, r.FromPos, "", "interval: from or points required")
	}
	from, ok := tl.TimeOf(r.From)
	if !ok {
		return timeline.Interval{}, errf(in, r.FromPos, r.From, "unknown time point %q", r.From)
	}
	if r.To == "" {
		return tl.Point(from), nil
	}
	to, ok := tl.TimeOf(r.To)
	if !ok {
		return timeline.Interval{}, errf(in, r.ToPos, r.To, "unknown time point %q", r.To)
	}
	if from > to {
		if in == "" {
			return timeline.Interval{}, fmt.Errorf("interval: %q is before %q", r.To, r.From)
		}
		return timeline.Interval{}, errf(in, r.FromPos, r.From, "interval %s..%s runs backwards", r.From, r.To)
	}
	return tl.Range(from, to), nil
}

// resolveOp validates a temporal operator's shape and resolves its interval
// operands. The view itself is built later (buildView) so catalog-served
// plans never pay for it.
func resolveOp(g *core.Graph, in string, t TemporalOp) (a, b timeline.Interval, err error) {
	switch t.Op {
	case OpProject, OpUnion, OpIntersection, OpDifference:
	default:
		return a, b, errf(in, 0, "", "unknown op %q (want project, union, intersection or difference)", t.Op)
	}
	if a, err = ResolveInterval(g, in, t.A); err != nil {
		return a, b, err
	}
	if t.Op == OpProject {
		if !t.B.IsZero() {
			return a, b, errf(in, 0, "", "op %q takes a single interval", t.Op)
		}
		return a, b, nil
	}
	b, err = ResolveInterval(g, in, t.B)
	return a, b, err
}

// buildView materializes the view of a resolved temporal operator.
func buildView(g *core.Graph, op string, a, b timeline.Interval) *ops.View {
	switch op {
	case OpProject:
		return ops.Project(g, a)
	case OpUnion:
		return ops.Union(g, a, b)
	case OpIntersection:
		return ops.Intersection(g, a, b)
	default:
		return ops.Difference(g, a, b)
	}
}

// resolveSchema resolves attribute names into an aggregation schema,
// pointing unknown-attribute errors at the name's position when known.
func resolveSchema(g *core.Graph, in string, names []string, poss []int) (*agg.Schema, error) {
	if len(names) == 0 {
		return nil, errf(in, 0, "", "attrs required")
	}
	for i, n := range names {
		if _, ok := g.AttrByName(n); !ok {
			return nil, errf(in, posAt(poss, i), n, "unknown attribute %q", n)
		}
	}
	return agg.ByName(g, names...)
}

// posAt guards against IRs built without positions (zero value).
func posAt(poss []int, i int) int {
	if i < len(poss) {
		return poss[i]
	}
	return 0
}

// resolveKind maps the kind strings of both front ends (TGQL DIST/ALL,
// wire dist/distinct/all, empty default) to agg.Kind.
func resolveKind(in, kind string) (agg.Kind, error) {
	switch strings.ToLower(kind) {
	case "", "dist", "distinct":
		return agg.Distinct, nil
	case "all":
		return agg.All, nil
	default:
		return 0, errf(in, 0, "", "unknown kind %q (want dist or all)", kind)
	}
}

// resolveEvent maps an event name to the evolution class.
func resolveEvent(in, event string) (explore.Event, error) {
	switch strings.ToLower(event) {
	case "stability":
		return evolution.Stability, nil
	case "growth":
		return evolution.Growth, nil
	case "shrinkage":
		return evolution.Shrinkage, nil
	default:
		return 0, errf(in, 0, "", "unknown event %q (want stability, growth or shrinkage)", event)
	}
}

func resolveSemantics(in, s string) (explore.Semantics, error) {
	switch strings.ToLower(s) {
	case "", "union":
		return explore.UnionSemantics, nil
	case "intersection":
		return explore.IntersectionSemantics, nil
	default:
		return 0, errf(in, 0, "", "unknown semantics %q (want union or intersection)", s)
	}
}

func resolveExtend(in, e string) (explore.Extend, error) {
	switch strings.ToLower(e) {
	case "", "new":
		return explore.ExtendNew, nil
	case "old":
		return explore.ExtendOld, nil
	default:
		return 0, errf(in, 0, "", "unknown extend %q (want old or new)", e)
	}
}

// CompilePredicates turns WHERE comparisons into an appearance filter.
// Equality and inequality compare strings; ordering operators compare
// numerically and reject appearances whose value does not parse. A nil
// filter (no predicates) means unfiltered.
func CompilePredicates(g *core.Graph, in string, preds []Predicate) (agg.Filter, error) {
	if len(preds) == 0 {
		return nil, nil
	}
	type compiled struct {
		attr    core.AttrID
		op      string
		str     string
		num     float64
		numeric bool
	}
	cs := make([]compiled, len(preds))
	for i, c := range preds {
		a, ok := g.AttrByName(c.Attr)
		if !ok {
			return nil, errf(in, c.AttrPos, c.Attr, "unknown attribute %q in WHERE", c.Attr)
		}
		cc := compiled{attr: a, op: c.Op, str: c.Value}
		if n, err := strconv.ParseFloat(c.Value, 64); err == nil {
			cc.num, cc.numeric = n, true
		}
		if (c.Op != "=" && c.Op != "!=") && !cc.numeric {
			return nil, errf(in, c.ValuePos, c.Value, "operator %s needs a numeric value, got %q", c.Op, c.Value)
		}
		cs[i] = cc
	}
	return func(n core.NodeID, t timeline.Time) bool {
		for _, c := range cs {
			v := g.ValueString(c.attr, n, t)
			if v == "" {
				return false
			}
			switch c.op {
			case "=":
				if v != c.str {
					return false
				}
			case "!=":
				if v == c.str {
					return false
				}
			default:
				x, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return false
				}
				switch c.op {
				case "<":
					if !(x < c.num) {
						return false
					}
				case "<=":
					if !(x <= c.num) {
						return false
					}
				case ">":
					if !(x > c.num) {
						return false
					}
				case ">=":
					if !(x >= c.num) {
						return false
					}
				}
			}
		}
		return true
	}, nil
}
