package plan

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/timeline"
)

// This file is the distributed half of the aggregate family: the operators
// a time-range sharded deployment uses to answer one logical aggregate
// across several shard processes with exactly the single-node result.
//
// Decomposition argument. The shards partition the timeline into disjoint
// contiguous ranges, so any interval operand splits into per-shard pieces
// that partition its time points. For union aggregates — presence at any
// point of the operand point set — the grouped COUNT then decomposes
// exactly:
//
//   - ALL counts one per appearance per time point. Appearances at
//     different time points are independent, so the interval's group
//     weights are the sums of the per-piece group weights
//     (T-distributivity, §4.3 of the paper, applied across shards).
//   - DIST counts one per (entity, tuple) pair over the whole interval.
//     That is not weight-additive (the same entity may appear on both
//     sides of a boundary), so each shard ships the *set* of entity
//     labels per group and the merge counts the union. Entity labels are
//     unique graph-wide, which makes the union exact.
//
// Project has intersection semantics — an entity qualifies only when it
// appears in EVERY point of the interval — so per-shard project partials
// do not merge by union; a project scatters only as a single slice whose
// interval lies entirely inside one shard (merging one partial is the
// identity, hence trivially exact). Intersection and difference do not
// decompose either (membership at one shard's time points changes another
// piece's contribution), so the serving tier answers them — and
// multi-shard projects — from a mirrored full series instead; see
// internal/cluster.

// ---- wire types -------------------------------------------------------

// PartialGroup is one aggregate-node group of a shard-local partial
// aggregate: decoded attribute values, the local weight, and — for DIST
// partials — the distinct entity labels behind the weight.
type PartialGroup struct {
	Values   []string `json:"values"`
	Weight   int64    `json:"weight"`
	Entities []string `json:"entities,omitempty"`
}

// PartialEdge is one aggregate-edge group of a partial aggregate. DIST
// partials carry the distinct (from,to) entity label pairs.
type PartialEdge struct {
	From     []string   `json:"from"`
	To       []string   `json:"to"`
	Weight   int64      `json:"weight"`
	Entities [][]string `json:"entities,omitempty"`
}

// PartialResult is the wire form of a shard-local partial aggregate, the
// unit a scatter-gather execution moves between processes. Groups are
// sorted by decoded label and entity sets lexically, so the encoding is
// deterministic.
type PartialResult struct {
	Attributes []string       `json:"attributes"`
	Kind       string         `json:"kind"` // DIST or ALL
	Nodes      []PartialGroup `json:"nodes"`
	Edges      []PartialEdge  `json:"edges"`
	// Source reports how the shard derived the weights (ALL partials reuse
	// the catalog path; DIST partials always walk the view).
	Source string `json:"source,omitempty"`
}

// ---- Partial logical node (shard side) --------------------------------

// Partial is the logical node a shard compiles for a scattered aggregate
// slice: the same operator/attrs/kind as Aggregate, but producing the
// mergeable PartialResult instead of the final graph. Only project and
// union decompose; Compile rejects other operators.
type Partial struct {
	Op    TemporalOp
	Attrs []string
	Kind  string
}

func (q *Partial) logicalNode() {}

// Key renders "PARTIAL KIND attrs ON OP(...)".
func (q *Partial) Key() string {
	var b strings.Builder
	b.WriteString("PARTIAL ")
	b.WriteString(kindKeyword(q.Kind))
	b.WriteByte(' ')
	renderAttrs(&b, q.Attrs)
	b.WriteString(" ON ")
	q.Op.render(&b)
	return b.String()
}

func compilePartial(env Env, q *Partial) (physOp, int, error) {
	if q.Op.Op != OpProject && q.Op.Op != OpUnion {
		return nil, 0, errf(env.Query, 0, "",
			"partial aggregate: operator %q does not decompose across time shards (want project or union)", q.Op.Op)
	}
	g, in := env.Graph, env.Query
	schema, err := resolveSchema(g, in, q.Attrs, nil)
	if err != nil {
		return nil, 0, err
	}
	a, b, err := resolveOp(g, in, q.Op)
	if err != nil {
		return nil, 0, err
	}
	kind, err := resolveKind(in, q.Kind)
	if err != nil {
		return nil, 0, err
	}
	maxTime := maxTimeOf(a, b)
	if kind == agg.All {
		// ALL partials are plain local aggregates (weights merge by sum),
		// so the full single-node operator selection — catalog composition,
		// dense kernels, parallelism, feedback — is reused as the inner
		// operator and only the result is re-encoded into label space.
		inner, _, err := compileAggregate(env, &Aggregate{Op: q.Op, Attrs: q.Attrs, Kind: q.Kind})
		if err != nil {
			return nil, 0, err
		}
		return &partialAggOp{schema: schema, kind: kind, inner: inner}, maxTime, nil
	}
	return &partialAggOp{schema: schema, kind: kind, view: newViewOp(g, q.Op.Op, a, b)}, maxTime, nil
}

// partialAggOp computes a shard-local partial aggregate. ALL mode wraps
// the regular aggregate operator and decodes its weights; DIST mode walks
// the view collecting per-group distinct entity label sets.
type partialAggOp struct {
	schema *agg.Schema
	kind   agg.Kind
	inner  physOp  // ALL: the delegated local aggregate
	view   *viewOp // DIST: the entity-set walk input
}

func (o *partialAggOp) name() string { return "PartialAggregate" }

func (o *partialAggOp) describe() []kv {
	merge := "entity-sets"
	if o.kind == agg.All {
		merge = "weights"
	}
	return []kv{
		{"kind", kindString(o.kind)},
		{"carries", merge},
	}
}

func (o *partialAggOp) children() []physOp {
	if o.inner != nil {
		return []physOp{o.inner}
	}
	return []physOp{o.view}
}

func (o *partialAggOp) countSelection() { Selections.PartialAgg.Inc() }

func (o *partialAggOp) run(ctx context.Context, out *Result) error {
	if o.kind == agg.All {
		return o.runAll(ctx, out)
	}
	return o.runDist(ctx, out)
}

func (o *partialAggOp) runAll(ctx context.Context, out *Result) error {
	var tmp Result
	if err := o.inner.run(ctx, &tmp); err != nil {
		return err
	}
	ag := tmp.Agg
	pr := &PartialResult{
		Attributes: o.schema.AttrNames(),
		Kind:       kindString(agg.All),
		Source:     tmp.AggSource.String(),
	}
	for _, tu := range ag.SortedNodes() {
		pr.Nodes = append(pr.Nodes, PartialGroup{Values: ag.Schema.Decode(tu), Weight: ag.Nodes[tu]})
	}
	for _, k := range ag.SortedEdges() {
		pr.Edges = append(pr.Edges, PartialEdge{
			From:   ag.Schema.Decode(k.From),
			To:     ag.Schema.Decode(k.To),
			Weight: ag.Edges[k],
		})
	}
	out.Partial, out.AggSource = pr, tmp.AggSource
	return nil
}

// labelPair identifies one distinct edge entity by its endpoint labels.
type labelPair struct{ u, v string }

func (o *partialAggOp) runDist(ctx context.Context, out *Result) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s, g, v := o.schema, o.schema.Graph(), o.view.view
	nodeSets := make(map[agg.Tuple]map[string]struct{})
	addNode := func(tu agg.Tuple, label string) {
		set := nodeSets[tu]
		if set == nil {
			set = make(map[string]struct{})
			nodeSets[tu] = set
		}
		set[label] = struct{}{}
	}
	if s.AllStatic() {
		v.ForEachNode(func(n core.NodeID) {
			if tu, ok := s.StaticTuple(n); ok {
				addNode(tu, g.NodeLabel(n))
			}
		})
	} else {
		v.ForEachNode(func(n core.NodeID) {
			label := g.NodeLabel(n)
			v.NodeTimes(n).ForEach(func(t int) {
				if tu, ok := s.TupleAt(n, timeline.Time(t)); ok {
					addNode(tu, label)
				}
			})
		})
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	edgeSets := make(map[agg.EdgeKey]map[labelPair]struct{})
	addEdge := func(key agg.EdgeKey, p labelPair) {
		set := edgeSets[key]
		if set == nil {
			set = make(map[labelPair]struct{})
			edgeSets[key] = set
		}
		set[p] = struct{}{}
	}
	if s.AllStatic() {
		v.ForEachEdge(func(e core.EdgeID) {
			ep := g.Edge(e)
			fu, ok1 := s.StaticTuple(ep.U)
			tu, ok2 := s.StaticTuple(ep.V)
			if ok1 && ok2 {
				addEdge(agg.EdgeKey{From: fu, To: tu}, labelPair{g.NodeLabel(ep.U), g.NodeLabel(ep.V)})
			}
		})
	} else {
		v.ForEachEdge(func(e core.EdgeID) {
			ep := g.Edge(e)
			p := labelPair{g.NodeLabel(ep.U), g.NodeLabel(ep.V)}
			v.EdgeTimes(e).ForEach(func(t int) {
				fu, ok1 := s.TupleAt(ep.U, timeline.Time(t))
				tu, ok2 := s.TupleAt(ep.V, timeline.Time(t))
				if ok1 && ok2 {
					addEdge(agg.EdgeKey{From: fu, To: tu}, p)
				}
			})
		})
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	pr := &PartialResult{Attributes: s.AttrNames(), Kind: kindString(agg.Distinct)}
	for _, tu := range agg.SortedTuples(s, nodeSets) {
		set := nodeSets[tu]
		ents := make([]string, 0, len(set))
		for e := range set {
			ents = append(ents, e)
		}
		sort.Strings(ents)
		pr.Nodes = append(pr.Nodes, PartialGroup{Values: s.Decode(tu), Weight: int64(len(ents)), Entities: ents})
	}
	for _, k := range agg.SortedEdgeKeys(s, edgeSets) {
		set := edgeSets[k]
		pairs := make([]labelPair, 0, len(set))
		for p := range set {
			pairs = append(pairs, p)
		}
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i].u != pairs[j].u {
				return pairs[i].u < pairs[j].u
			}
			return pairs[i].v < pairs[j].v
		})
		ents := make([][]string, len(pairs))
		for i, p := range pairs {
			ents[i] = []string{p.u, p.v}
		}
		pr.Edges = append(pr.Edges, PartialEdge{
			From:     s.Decode(k.From),
			To:       s.Decode(k.To),
			Weight:   int64(len(pairs)),
			Entities: ents,
		})
	}
	out.Partial = pr
	return nil
}

// ---- merge (router side) ----------------------------------------------

// MergedGraph is the exact merge of per-shard partial aggregates in
// decoded-label space. Its MarshalJSON renders the same shape as
// agg.Graph's — attributes/kind/nodes/edges with label-sorted groups — so
// a scatter-gathered answer is byte-identical to the single-node one.
type MergedGraph struct {
	Attributes []string
	Kind       string
	Nodes      []PartialGroup // Entities always nil
	Edges      []PartialEdge
}

type mergedNodeAcc struct {
	values []string
	weight int64
	ents   map[string]struct{}
}

type mergedEdgeAcc struct {
	from, to []string
	weight   int64
	ents     map[labelPair]struct{}
}

// MergePartials merges shard partials into the final aggregate graph:
// ALL weights add, DIST entity sets union and are then counted. The
// partials must agree on attributes and kind (they come from one scattered
// query) and their time pieces must be disjoint for ALL sums to be exact —
// the shard map guarantees that by construction.
func MergePartials(parts []*PartialResult) (*MergedGraph, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("plan: no partials to merge")
	}
	first := parts[0]
	dist := first.Kind != "ALL"
	nodes := make(map[string]*mergedNodeAcc)
	edges := make(map[labelPair]*mergedEdgeAcc)
	for _, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("plan: missing shard partial")
		}
		if strings.Join(p.Attributes, "\x00") != strings.Join(first.Attributes, "\x00") || p.Kind != first.Kind {
			return nil, fmt.Errorf("plan: shard partials disagree on schema (%v/%s vs %v/%s)",
				p.Attributes, p.Kind, first.Attributes, first.Kind)
		}
		for _, gr := range p.Nodes {
			key := strings.Join(gr.Values, "\x00")
			acc := nodes[key]
			if acc == nil {
				acc = &mergedNodeAcc{values: gr.Values}
				if dist {
					acc.ents = make(map[string]struct{})
				}
				nodes[key] = acc
			}
			if dist {
				for _, e := range gr.Entities {
					acc.ents[e] = struct{}{}
				}
			} else {
				acc.weight += gr.Weight
			}
		}
		for _, gr := range p.Edges {
			key := labelPair{strings.Join(gr.From, "\x00"), strings.Join(gr.To, "\x00")}
			acc := edges[key]
			if acc == nil {
				acc = &mergedEdgeAcc{from: gr.From, to: gr.To}
				if dist {
					acc.ents = make(map[labelPair]struct{})
				}
				edges[key] = acc
			}
			if dist {
				for _, pair := range gr.Entities {
					if len(pair) != 2 {
						return nil, fmt.Errorf("plan: malformed edge entity pair %v", pair)
					}
					acc.ents[labelPair{pair[0], pair[1]}] = struct{}{}
				}
			} else {
				acc.weight += gr.Weight
			}
		}
	}
	m := &MergedGraph{Attributes: first.Attributes, Kind: first.Kind}
	nodeAccs := make([]*mergedNodeAcc, 0, len(nodes))
	for _, acc := range nodes {
		if dist {
			acc.weight = int64(len(acc.ents))
		}
		nodeAccs = append(nodeAccs, acc)
	}
	// The same wire order as agg.Graph.SortedNodes/SortedEdges, label ties
	// included, so router ≡ single node holds byte for byte.
	agg.SortNodes(nodeAccs, func(a *mergedNodeAcc) []string { return a.values },
		agg.AppendLabel, slices.Compare[[]string])
	for _, acc := range nodeAccs {
		m.Nodes = append(m.Nodes, PartialGroup{Values: acc.values, Weight: acc.weight})
	}
	edgeAccs := make([]*mergedEdgeAcc, 0, len(edges))
	for _, acc := range edges {
		if dist {
			acc.weight = int64(len(acc.ents))
		}
		edgeAccs = append(edgeAccs, acc)
	}
	agg.SortEdges(edgeAccs, func(a *mergedEdgeAcc) ([]string, []string) { return a.from, a.to },
		agg.AppendLabel, slices.Compare[[]string])
	for _, acc := range edgeAccs {
		m.Edges = append(m.Edges, PartialEdge{From: acc.from, To: acc.to, Weight: acc.weight})
	}
	return m, nil
}

// AppendJSON appends the merged graph through the aggregate graphs' one
// wire encoder, so it renders exactly like the single-node result.
func (m *MergedGraph) AppendJSON(dst []byte) []byte {
	w := agg.NewWireWriter(dst, m.Attributes, m.Kind)
	for _, g := range m.Nodes {
		w.Node(g.Values, g.Weight)
	}
	for _, g := range m.Edges {
		w.Edge(g.From, g.To, g.Weight)
	}
	return w.Close()
}

// MarshalJSON renders the wire form for encoding/json callers.
func (m *MergedGraph) MarshalJSON() ([]byte, error) { return m.AppendJSON(nil), nil }

// ---- scatter / gather operators ---------------------------------------

// ShardSlice is one shard's piece of a scattered aggregate: the operator
// with its interval operand(s) clipped to the shard's time range, in
// time-point labels the shard resolves locally. BFrom/BTo are empty when
// the clipped query degenerates to a single operand (project).
type ShardSlice struct {
	Shard string
	Op    string // project or union
	AFrom string
	ATo   string
	BFrom string
	BTo   string
}

func (s ShardSlice) interval() string {
	out := s.AFrom
	if s.ATo != "" && s.ATo != s.AFrom {
		out += ".." + s.ATo
	}
	if s.BFrom != "" {
		b := s.BFrom
		if s.BTo != "" && s.BTo != s.BFrom {
			b += ".." + s.BTo
		}
		out += " ∪ " + b
	}
	return out
}

// Scatterer executes one shard slice on its shard and returns the partial.
// The cluster layer implements it over HTTP; plan stays transport-free.
type Scatterer interface {
	Partial(ctx context.Context, slice ShardSlice, attrs []string, kind string) (*PartialResult, error)
}

// ScatterQuery is a compiled routing decision: a decomposable aggregate
// and the shard slices that cover its interval(s).
type ScatterQuery struct {
	Op     string
	Attrs  []string
	Kind   string
	Slices []ShardSlice
}

// Scatter is the logical node of a scattered aggregate, for Explain and
// plan identity on the router.
type Scatter struct {
	Agg    *Aggregate
	Shards int
}

func (q *Scatter) logicalNode() {}

// Key renders "SCATTER[n] <aggregate key>".
func (q *Scatter) Key() string {
	return "SCATTER[" + strconv.Itoa(q.Shards) + "] " + q.Agg.Key()
}

// CompileScatter builds the router-side physical plan for a scattered
// aggregate: one ShardScatter leaf per slice under a GatherMerge root.
// The caller (the cluster router) has already decided the slicing; this
// validates decomposability and wires the operator tree.
func CompileScatter(q ScatterQuery, sc Scatterer) (*Plan, error) {
	if q.Op != OpProject && q.Op != OpUnion {
		return nil, fmt.Errorf("plan: %s aggregates do not decompose across time shards", q.Op)
	}
	if len(q.Slices) == 0 {
		return nil, fmt.Errorf("plan: scattered aggregate has no shard slices")
	}
	if q.Op == OpProject && len(q.Slices) > 1 {
		return nil, fmt.Errorf("plan: project has intersection semantics and does not merge across %d shards", len(q.Slices))
	}
	if sc == nil {
		return nil, fmt.Errorf("plan: no scatterer")
	}
	kids := make([]physOp, len(q.Slices))
	for i, s := range q.Slices {
		kids[i] = &shardScatterOp{slice: s, q: q, sc: sc}
	}
	logical := &Scatter{
		Agg: &Aggregate{
			Op:    TemporalOp{Op: q.Op, A: IntervalRef{From: q.Slices[0].AFrom, To: q.Slices[len(q.Slices)-1].ATo}},
			Attrs: q.Attrs,
			Kind:  q.Kind,
		},
		Shards: len(q.Slices),
	}
	return &Plan{
		logical: logical,
		root:    &gatherMergeOp{q: q, kids: kids},
		bounded: false,
	}, nil
}

// shardScatterOp fetches one shard's partial through the Scatterer.
type shardScatterOp struct {
	slice ShardSlice
	q     ScatterQuery
	sc    Scatterer
}

func (o *shardScatterOp) name() string { return "ShardScatter" }

func (o *shardScatterOp) describe() []kv {
	return []kv{
		{"shard", o.slice.Shard},
		{"op", o.slice.Op},
		{"interval", o.slice.interval()},
	}
}

func (o *shardScatterOp) children() []physOp { return nil }
func (o *shardScatterOp) countSelection()    { Selections.ShardScatter.Inc() }

func (o *shardScatterOp) fetch(ctx context.Context) (*PartialResult, error) {
	return o.sc.Partial(ctx, o.slice, o.q.Attrs, o.q.Kind)
}

func (o *shardScatterOp) run(ctx context.Context, out *Result) error {
	p, err := o.fetch(ctx)
	if err != nil {
		return err
	}
	out.Partial = p
	return nil
}

// gatherMergeOp fans the slices out concurrently and merges the partials
// into the final answer.
type gatherMergeOp struct {
	q    ScatterQuery
	kids []physOp
}

func (o *gatherMergeOp) name() string { return "GatherMerge" }

func (o *gatherMergeOp) describe() []kv {
	merge := "entity-union"
	if kindKeyword(o.q.Kind) == "ALL" {
		merge = "weight-sum"
	}
	return []kv{
		{"shards", strconv.Itoa(len(o.kids))},
		{"kind", kindKeyword(o.q.Kind)},
		{"merge", merge},
	}
}

func (o *gatherMergeOp) children() []physOp { return o.kids }

func (o *gatherMergeOp) countSelection() {
	Selections.GatherMerge.Inc()
	for range o.kids {
		Selections.ShardScatter.Inc()
	}
}

func (o *gatherMergeOp) run(ctx context.Context, out *Result) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	parts := make([]*PartialResult, len(o.kids))
	errs := make([]error, len(o.kids))
	var wg sync.WaitGroup
	for i, k := range o.kids {
		op := k.(*shardScatterOp)
		wg.Add(1)
		go func(i int, op *shardScatterOp) {
			defer wg.Done()
			p, err := op.fetch(ctx)
			if err != nil {
				errs[i] = fmt.Errorf("shard %s: %w", op.slice.Shard, err)
				cancel() // a lost slice makes the merge impossible; stop the rest
				return
			}
			parts[i] = p
		}(i, op)
	}
	wg.Wait()
	// Prefer the root-cause failure: a lost slice cancels its siblings, so
	// their context.Canceled errors are a symptom, not the fault.
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil || errors.Is(firstErr, context.Canceled) && !errors.Is(err, context.Canceled) {
			firstErr = err
		}
	}
	if firstErr != nil {
		return firstErr
	}
	merged, err := MergePartials(parts)
	if err != nil {
		return err
	}
	out.Merged = merged
	return nil
}
