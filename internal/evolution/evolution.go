// Package evolution implements the GraphTempo evolution graph
// (Definition 2.7) and its aggregation (§2.3, Fig. 4).
//
// The evolution graph between two intervals Told and Tnew overlays three
// graphs: the intersection graph (stability), the difference Told − Tnew
// (shrinkage: what disappeared) and the difference Tnew − Told (growth:
// what is new). Aggregating it yields, for every attribute tuple, a triple
// of weights discerning the three event types.
//
// As the paper's Fig. 4b example shows (node (f,1) with stability 1,
// growth 1 and shrinkage 1), evolution aggregation classifies *attribute-
// tuple appearances per entity*, not just entities: author u4 exists in
// both t0 and t1, but its tuple (f,1) appears only at t1, so it counts as
// growth for (f,1) (and its t0 tuple (f,2) counts as shrinkage). For
// static attributes this reduces to classifying the entities themselves.
//
// Aggregate (two arbitrary windows), Timeline (every consecutive pair of
// points) and TileSweep (every consecutive pair of width-w tiles, the
// EVENTS statement's kernel) are one entity pass over pooled accumulators
// (sweep.go) for every schema.
package evolution

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/timeline"
)

// Class labels an entity's evolution between Told and Tnew.
type Class int

const (
	// Stability: the entity exists in both intervals.
	Stability Class = iota
	// Growth: the entity exists only in the new interval.
	Growth
	// Shrinkage: the entity exists only in the old interval.
	Shrinkage
)

// String returns the paper's figure labels St, Gr, Shr.
func (c Class) String() string {
	switch c {
	case Stability:
		return "St"
	case Growth:
		return "Gr"
	default:
		return "Shr"
	}
}

// Weights is the (stability, growth, shrinkage) weight triple of one
// aggregate node or edge (Fig. 4b).
type Weights struct {
	St, Gr, Shr int64
}

// Total returns St + Gr + Shr.
func (w Weights) Total() int64 { return w.St + w.Gr + w.Shr }

// Filter restricts which (node, time) appearances participate in an
// evolution aggregation; nil admits everything. The paper's Fig. 12 uses
// it to keep only high-activity authors (#publications > 4 in the year).
type Filter func(n core.NodeID, t timeline.Time) bool

// Agg is an aggregated evolution graph: each tuple (and tuple pair) carries
// the triple of stability/growth/shrinkage weights.
type Agg struct {
	Schema   *agg.Schema
	Kind     agg.Kind
	Old, New timeline.Interval
	Nodes    map[agg.Tuple]Weights
	Edges    map[agg.EdgeKey]Weights
}

// Aggregate computes the aggregated evolution graph between told and tnew
// under schema s.
//
// For each entity, the set of tuples it exhibits during told and during
// tnew is collected; a tuple present in both contributes to St, present
// only in tnew to Gr, and present only in told to Shr. With kind Distinct
// each (entity, tuple) contributes 1 (the paper's semantics, Fig. 4b);
// with kind All it contributes its number of per-time-point appearances in
// the interval(s) that define its class. The two intervals may overlap or
// leave a gap.
func Aggregate(g *core.Graph, told, tnew timeline.Interval, s *agg.Schema, kind agg.Kind, filter Filter) *Agg {
	out, _ := AggregateCtx(context.Background(), g, told, tnew, s, kind, filter)
	return out
}

// AggregateCtx is Aggregate with cooperative cancellation: the entity pass
// polls ctx every few thousand entities and returns ctx.Err() once it
// expires. A nil error guarantees Aggregate's result.
func AggregateCtx(ctx context.Context, g *core.Graph, told, tnew timeline.Interval, s *agg.Schema, kind agg.Kind, filter Filter) (*Agg, error) {
	if s.Graph() != g {
		panic("evolution: schema built on a different graph")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sw := sweep{g: g, s: s, kind: kind, filter: filter, edges: true, keepTuples: true,
		win: pairWindows(g.Timeline().Len(), told, tnew)}
	sc, err := sw.run(ctx)
	defer sw.release(sc)
	if err != nil {
		return nil, err
	}
	out := &Agg{
		Schema: s,
		Kind:   kind,
		Old:    told,
		New:    tnew,
		Nodes:  make(map[agg.Tuple]Weights, sc.nodes.Len()),
		Edges:  make(map[agg.EdgeKey]Weights, sc.edges.Len()),
	}
	for i := range sc.nodes.Len() {
		c, w := sc.nodes.Entry(i)
		out.Nodes[agg.Tuple(c)] = w
	}
	d := s.Domain()
	for i := range sc.edges.Len() {
		c, w := sc.edges.Entry(i)
		out.Edges[agg.EdgeKey{From: agg.Tuple(c / d), To: agg.Tuple(c % d)}] = w
	}
	return out, nil
}

// addClass folds one entity's (old, new) appearance counts for a tuple into
// the running weights — the one classification rule of the evolution
// family.
func addClass(w *Weights, c0, c1 int64, kind agg.Kind) {
	switch {
	case c0 > 0 && c1 > 0:
		if kind == agg.Distinct {
			w.St++
		} else {
			w.St += c0 + c1
		}
	case c1 > 0:
		if kind == agg.Distinct {
			w.Gr++
		} else {
			w.Gr += c1
		}
	case c0 > 0:
		if kind == agg.Distinct {
			w.Shr++
		} else {
			w.Shr += c0
		}
	}
}

// NodeWeights returns the weight triple of the aggregate node for tu.
func (a *Agg) NodeWeights(tu agg.Tuple) Weights { return a.Nodes[tu] }

// SortedNodes returns the tuple keys in the aggregate graphs' wire order.
func (a *Agg) SortedNodes() []agg.Tuple { return agg.SortedTuples(a.Schema, a.Nodes) }

// SortedEdges returns the edge keys in wire order.
func (a *Agg) SortedEdges() []agg.EdgeKey { return agg.SortedEdgeKeys(a.Schema, a.Edges) }

// String renders the aggregated evolution graph like Fig. 4b.
func (a *Agg) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "evolution aggregate %s → %s (%s)\n", a.Old, a.New, a.Kind)
	for _, tu := range a.SortedNodes() {
		w := a.Nodes[tu]
		fmt.Fprintf(&b, "  node (%s) St=%d Gr=%d Shr=%d\n", a.Schema.Label(tu), w.St, w.Gr, w.Shr)
	}
	for _, k := range a.SortedEdges() {
		w := a.Edges[k]
		fmt.Fprintf(&b, "  edge (%s)→(%s) St=%d Gr=%d Shr=%d\n",
			a.Schema.Label(k.From), a.Schema.Label(k.To), w.St, w.Gr, w.Shr)
	}
	return b.String()
}
