package plan

import (
	"strconv"
	"strings"
)

// Explain renders the plan as a tree: the canonical logical query on the
// first line, then the selected physical operators with their attributes
// (chosen kernel, engine, materialization source hint, cost estimates).
// The rendering is deterministic for a fixed graph and environment — the
// golden plan tests pin it — except for live hints (the catalog's
// source-hint), which describe what an execution right now would do.
func (p *Plan) Explain() string { return p.render(nil) }

// ExplainAnalyze renders Explain's tree for a plan that ran and returned
// res. The root operator's line also carries what the run measured: its
// wall time (actual_us), its output cardinality (rows) and, for the
// catalog operator, the §4.3 path that answered (source). The tree is
// rendered after the run, so a live hint describes the next execution.
func (p *Plan) ExplainAnalyze(res *Result) string {
	measured := []kv{
		{"actual_us", itoa64(res.Elapsed.Microseconds())},
		{"rows", strconv.Itoa(res.rows())},
	}
	if _, ok := p.root.(*catalogAggOp); ok {
		measured = append(measured, kv{"source", res.AggSource.String()})
	}
	return p.render(measured)
}

// render writes the tree, with measured appended to the root's attributes.
func (p *Plan) render(measured []kv) string {
	var b strings.Builder
	b.WriteString("plan: ")
	b.WriteString(p.logical.Key())
	b.WriteByte('\n')
	renderOp(&b, p.root, "", measured)
	return b.String()
}

// renderOp writes one operator node and its children. prefix is the
// indentation accumulated from enclosing levels; extra is appended to the
// node's own attributes.
func renderOp(b *strings.Builder, op physOp, prefix string, extra []kv) {
	b.WriteString(prefix)
	b.WriteString("└─ ")
	b.WriteString(op.name())
	attrs := append(op.describe(), extra...)
	if len(attrs) > 0 {
		b.WriteByte('(')
		for i, a := range attrs {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(a.k)
			b.WriteByte('=')
			b.WriteString(a.v)
		}
		b.WriteByte(')')
	}
	b.WriteByte('\n')
	for _, c := range op.children() {
		renderOp(b, c, prefix+"   ", nil)
	}
}
