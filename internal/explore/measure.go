package explore

import (
	"fmt"
	"math/bits"

	"repro/internal/agg"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/timeline"
)

// Measure is result(G) (§3.2): the number of events of interest in the
// aggregate graph of a candidate pair — the weight of the aggregate nodes or
// of the aggregate edges, in total or of one tuple. The zero Measure is
// TotalEdges.
type Measure struct {
	nodes    bool      // weigh aggregate nodes rather than edges
	tuple    bool      // one tuple's weight rather than the total
	from, to agg.Tuple // the tuple; to is an edge's target
}

var (
	// TotalEdges counts all aggregate edge weight.
	TotalEdges = Measure{}
	// TotalNodes counts all aggregate node weight.
	TotalNodes = Measure{nodes: true}
)

// NodeTuple returns the Measure counting the weight of one aggregate node,
// e.g. female authors. The values are in schema attribute order.
func NodeTuple(s *agg.Schema, values ...string) (Measure, error) {
	tu, ok := s.Encode(values...)
	if !ok {
		return Measure{}, fmt.Errorf("explore: tuple %v not in attribute domain", values)
	}
	return Measure{nodes: true, tuple: true, from: tu}, nil
}

// EdgeTuple returns the Measure counting the weight of one aggregate edge,
// e.g. female→female collaborations (the paper's §5.2 exploration target).
func EdgeTuple(s *agg.Schema, from, to []string) (Measure, error) {
	f, ok1 := s.Encode(from...)
	t, ok2 := s.Encode(to...)
	if !ok1 || !ok2 {
		return Measure{}, fmt.Errorf("explore: edge tuple %v→%v not in attribute domain", from, to)
	}
	return Measure{tuple: true, from: f, to: t}, nil
}

// Of reads the measure off an aggregate graph: result(G) on the seed path.
func (m Measure) Of(g *agg.Graph) int64 {
	switch {
	case m.nodes && m.tuple:
		return g.NodeWeight(m.from)
	case m.nodes:
		return g.TotalNodeWeight()
	case m.tuple:
		return g.EdgeWeight(m.from, m.to)
	default:
		return g.TotalEdgeWeight()
	}
}

// masks evaluates a Measure on an all-static schema without aggregating.
// There a node has one tuple for all time, so the weight the measure reads
// is a count over a candidate view's selection of the measured side — nodes
// or edges — restricted to a match mask: the entities whose tuple exists
// and, for a tuple measure, equals the target. With col_t the point index's
// column at t and times the view's interval,
//
//	DIST: popcount(sel ∧ match)
//	ALL:  Σ_{t ∈ times} popcount(col_t ∧ sel ∧ match)
//
// (an entity appears |τ ∩ times| times).
type masks struct {
	ix    *core.PointIndex
	kind  agg.Kind
	nodes bool        // the measured side
	match *bitset.Set // nil: every entity of the side matches
}

// masks compiles the explorer's measure for one run. It returns nil — the
// seed path of agg.Aggregate and Measure.Of — under NoFastPath or on a
// schema with a time-varying attribute, whose tuples depend on the point,
// so that no single match mask exists. A total's mask is the schema's,
// built once (agg.Schema.StaticMatch); a tuple's is built here.
func (ex *Explorer) masks() *masks {
	s, m := ex.Schema, ex.Result
	if ex.NoFastPath || !s.AllStatic() {
		return nil
	}
	c := &masks{ix: ex.Graph.PointIndex(), kind: ex.Kind, nodes: m.nodes}
	switch {
	case !m.tuple:
		nodes, edges := s.StaticMatch()
		c.match = edges
		if m.nodes {
			c.match = nodes
		}
	case m.nodes:
		c.match = withTuple(s, m.from)
	default:
		from := withTuple(s, m.from)
		to := from
		if m.to != m.from {
			to = withTuple(s, m.to)
		}
		c.match = ex.Graph.EdgesBetween(from, to)
	}
	return c
}

// withTuple returns the nodes whose static tuple is tu.
func withTuple(s *agg.Schema, tu agg.Tuple) *bitset.Set {
	g := s.Graph()
	out := bitset.New(g.NumNodes())
	for n := 0; n < g.NumNodes(); n++ {
		if got, ok := s.StaticTuple(core.NodeID(n)); ok && got == tu {
			out.Add(n)
		}
	}
	return out
}

// count returns result(G) for the candidate view v.
func (c *masks) count(v *ops.View) int64 {
	sel, at := v.Edges(), c.ix.EdgesAt
	if c.nodes {
		sel, at = v.Nodes(), c.ix.NodesAt
	}
	if c.kind == agg.Distinct {
		if c.match == nil {
			return int64(sel.Count())
		}
		return int64(sel.CountAnd(c.match))
	}
	var sum int64
	times := v.Times().Mask()
	for t := times.Next(0); t >= 0; t = times.Next(t + 1) {
		col := at(timeline.Time(t))
		if c.match == nil {
			sum += int64(col.CountAnd(sel))
			continue
		}
		for i := range min(col.NumWords(), sel.NumWords()) {
			sum += int64(bits.OnesCount64(col.Word(i) & sel.Word(i) & c.match.Word(i)))
		}
	}
	return sum
}

// measure returns result(G) of one candidate view: counted on the run's
// masks when set, else read off a fresh aggregation.
func (ex *Explorer) measure(m *masks, v *ops.View) int64 {
	if m != nil {
		return m.count(v)
	}
	return ex.Result.Of(agg.Aggregate(v, ex.Schema, ex.Kind))
}
