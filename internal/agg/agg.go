// Package agg implements GraphTempo graph aggregation (Definition 2.6 and
// §4.2 of the paper).
//
// Aggregation groups the nodes of a temporal graph (or of a View produced
// by a temporal operator) by a tuple of attribute values and builds a
// weighted aggregate graph whose nodes are the distinct tuples and whose
// edges connect tuples with at least one underlying interaction. The
// aggregate function is COUNT, in two flavours (§2.2):
//
//   - Distinct (DIST): every (entity, tuple) combination counts once, no
//     matter how many time points it appears at.
//   - All (ALL): every appearance at every time point counts.
//
// Attribute tuples are encoded as mixed-radix integers over the attribute
// dictionaries (one multiplication per attribute instead of string
// concatenation), and aggregation over static-only attribute sets takes a
// fast path that skips the per-time-point loop — the optimization §4.2
// describes for static attributes.
package agg

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/ops"
	"repro/internal/timeline"
)

// Kind selects distinct (DIST) or non-distinct (ALL) counting.
type Kind int

const (
	// Distinct counts each entity once per tuple it exhibits.
	Distinct Kind = iota
	// All counts each per-time-point appearance.
	All
)

// String returns "DIST" or "ALL", the paper's notation.
func (k Kind) String() string {
	if k == Distinct {
		return "DIST"
	}
	return "ALL"
}

// Tuple is a mixed-radix encoding of one attribute-value combination under
// a Schema.
type Tuple int64

// EdgeKey identifies an aggregate edge by its endpoint tuples.
type EdgeKey struct {
	From, To Tuple
}

// Schema fixes the attribute set of an aggregation over one base graph and
// provides tuple encoding/decoding. NewSchema interns schemas per graph, so
// every caller aggregating a graph on one attribute list shares one Schema
// — its pooled scratch and its lazily built per-point tuple codes (Codes).
type Schema struct {
	g         *core.Graph
	attrs     []core.AttrID
	strides   []int64
	radices   []int64
	domain    int64
	allStatic bool

	// Kernel state (dense.go): pooled accumulators (sweep holds the
	// evolution sweep kernel's), the per-point tuple-code rows, built under
	// codesMu, and the all-static match masks.
	dense      sync.Pool
	sweep      sync.Pool
	codes      []atomic.Pointer[[]int64]
	codesMu    sync.Mutex
	matchOnce  sync.Once
	matchNodes *bitset.Set
	matchEdges *bitset.Set
}

// schemaTable is one graph's interned schemas, keyed by attribute list. It
// lives in the graph's memo slot, so it is released with the graph.
type schemaTable struct {
	mu      sync.Mutex
	schemas map[string]*Schema
	bytes   atomic.Int64 // tuple-code rows built so far, over every schema
}

func tableOf(g *core.Graph) *schemaTable {
	return g.Memo(func() any { return &schemaTable{schemas: make(map[string]*Schema)} }).(*schemaTable)
}

// TupleRowBytes reports the resident size of the tuple-code rows the
// schemas of g have built so far (Schema.Codes).
func TupleRowBytes(g *core.Graph) int64 { return tableOf(g).bytes.Load() }

// ReleaseRows drops the tuple-code rows built on g's schemas, for a graph a
// newer generation superseded: whoever still holds one of its schemas (a
// plan kept across the advance, an in-flight request) rebuilds the rows it
// reads again.
func ReleaseRows(g *core.Graph) {
	tab := tableOf(g)
	tab.mu.Lock()
	defer tab.mu.Unlock()
	for _, s := range tab.schemas {
		s.codesMu.Lock()
		var freed int64
		var last *[]int64 // an all-static schema's one row fills every slot
		for i := range s.codes {
			if p := s.codes[i].Swap(nil); p != nil && p != last {
				freed += int64(len(*p)) * 8
				last = p
			}
		}
		s.codesMu.Unlock()
		tab.bytes.Add(-freed)
	}
}

// maxDomain bounds a schema's tuple domain so that every edge code
// from·Domain+to fits in an int64: ⌊√(2⁶³−1)⌋.
const maxDomain = 3_037_000_499

// NewSchema returns the schema aggregating g's nodes on the given
// attributes, in order. At least one attribute is required (Definition 2.6:
// 1 ≤ n ≤ k). Equal attribute lists on one graph return one *Schema.
func NewSchema(g *core.Graph, attrs ...core.AttrID) (*Schema, error) {
	tab := tableOf(g)
	key := fmt.Sprint(attrs)
	tab.mu.Lock()
	defer tab.mu.Unlock()
	if s := tab.schemas[key]; s != nil {
		return s, nil
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("agg: at least one aggregation attribute is required")
	}
	seen := make(map[core.AttrID]bool, len(attrs))
	s := &Schema{
		g:         g,
		attrs:     append([]core.AttrID(nil), attrs...),
		strides:   make([]int64, len(attrs)),
		radices:   make([]int64, len(attrs)),
		allStatic: true,
		codes:     make([]atomic.Pointer[[]int64], g.Timeline().Len()),
	}
	stride := int64(1)
	for i, a := range attrs {
		if int(a) < 0 || int(a) >= g.NumAttrs() {
			return nil, fmt.Errorf("agg: attribute id %d out of range", a)
		}
		if seen[a] {
			return nil, fmt.Errorf("agg: duplicate aggregation attribute %q", g.Attr(a).Name)
		}
		seen[a] = true
		radix := int64(g.Dict(a).Len())
		if radix == 0 {
			radix = 1 // empty domain: every tuple is missing anyway
		}
		s.strides[i] = stride
		s.radices[i] = radix
		if stride > maxDomain/radix {
			return nil, fmt.Errorf("agg: combined attribute domain too large")
		}
		stride *= radix
		if g.Attr(a).Kind == core.TimeVarying {
			s.allStatic = false
		}
	}
	s.domain = stride
	tab.schemas[key] = s
	return s, nil
}

// MustSchema is NewSchema but panics on error.
func MustSchema(g *core.Graph, attrs ...core.AttrID) *Schema {
	s, err := NewSchema(g, attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// ByName builds a schema from attribute names.
func ByName(g *core.Graph, names ...string) (*Schema, error) {
	attrs := make([]core.AttrID, len(names))
	for i, name := range names {
		a, ok := g.AttrByName(name)
		if !ok {
			return nil, fmt.Errorf("agg: no attribute named %q", name)
		}
		attrs[i] = a
	}
	return NewSchema(g, attrs...)
}

// Graph returns the base graph the schema aggregates.
func (s *Schema) Graph() *core.Graph { return s.g }

// Attrs returns the aggregation attribute ids, in schema order.
func (s *Schema) Attrs() []core.AttrID { return append([]core.AttrID(nil), s.attrs...) }

// AttrNames returns the aggregation attribute names, in schema order.
func (s *Schema) AttrNames() []string {
	names := make([]string, len(s.attrs))
	for i, a := range s.attrs {
		names[i] = s.g.Attr(a).Name
	}
	return names
}

// AllStatic reports whether every aggregation attribute is static, enabling
// the §4.2 fast path.
func (s *Schema) AllStatic() bool { return s.allStatic }

// Domain returns the size of the schema's full cartesian tuple space: the
// product of the attribute domain cardinalities. Every tuple code lies in
// [0, Domain).
func (s *Schema) Domain() int64 { return s.domain }

// TupleAt encodes the attribute tuple of node n at time t. The second
// result is false when any aggregation attribute has no value there (the
// node does not exist at t, or the value is missing); such contributions
// are excluded from aggregation.
func (s *Schema) TupleAt(n core.NodeID, t timeline.Time) (Tuple, bool) {
	var code int64
	for i, a := range s.attrs {
		c := s.g.Value(a, n, t)
		if c == dict.None {
			return -1, false
		}
		code += int64(c) * s.strides[i]
	}
	return Tuple(code), true
}

// StaticTuple encodes the tuple of node n for an all-static schema.
// It panics if the schema has a time-varying attribute.
func (s *Schema) StaticTuple(n core.NodeID) (Tuple, bool) {
	if !s.allStatic {
		panic("agg: StaticTuple on schema with time-varying attributes")
	}
	var code int64
	for i, a := range s.attrs {
		c := s.g.StaticValue(a, n)
		if c == dict.None {
			return -1, false
		}
		code += int64(c) * s.strides[i]
	}
	return Tuple(code), true
}

// Decode returns the attribute values of a tuple, in schema order.
func (s *Schema) Decode(tu Tuple) []string {
	return s.decodeInto(make([]string, len(s.attrs)), tu)
}

// decodeInto is Decode into a caller-owned slice of len(s.attrs).
func (s *Schema) decodeInto(out []string, tu Tuple) []string {
	rem := int64(tu)
	for i, a := range s.attrs {
		out[i] = s.g.Dict(a).Value(dict.Code(rem % s.radices[i]))
		rem /= s.radices[i]
	}
	return out
}

// Label renders a tuple like the paper's figures, e.g. "f,1".
func (s *Schema) Label(tu Tuple) string {
	return string(s.AppendLabel(nil, tu))
}

// Encode is the inverse of Decode: it returns the tuple for the given
// values (in schema order), or false when a value is not in an attribute's
// domain.
func (s *Schema) Encode(values ...string) (Tuple, bool) {
	if len(values) != len(s.attrs) {
		return -1, false
	}
	var code int64
	for i, a := range s.attrs {
		c := s.g.Dict(a).Code(values[i])
		if c == dict.None {
			return -1, false
		}
		code += int64(c) * s.strides[i]
	}
	return Tuple(code), true
}

// Graph is a weighted aggregate graph G'(V', E', W_V', W_E', A'). It is
// immutable once rendered or shared: the first render remembers the wire
// order with its weights, every later one walks it without sorting, and
// Merge, the one mutator, forgets it.
type Graph struct {
	Schema *Schema
	Kind   Kind
	Nodes  map[Tuple]int64
	Edges  map[EdgeKey]int64
	order  atomic.Pointer[wireOrder]
}

// wireOrder is a graph's groups in wire order, each with its weight.
type wireOrder struct {
	nodes []weighted[Tuple]
	edges []weighted[EdgeKey]
}

// weighted is one group with its weight: sorting the pairs carries each
// weight along instead of looking it up again.
type weighted[K any] struct {
	key K
	w   int64
}

func pairs[K comparable](groups map[K]int64) []weighted[K] {
	out := make([]weighted[K], 0, len(groups))
	for k, w := range groups {
		out = append(out, weighted[K]{k, w})
	}
	return out
}

// wire returns ag's wire order, sorting on first use with the wire-order
// sorter (order.go). Concurrent first renders may each sort; their orders
// are equal and either is kept.
func (ag *Graph) wire() *wireOrder {
	if o := ag.order.Load(); o != nil {
		return o
	}
	s := ag.Schema
	o := &wireOrder{nodes: pairs(ag.Nodes), edges: pairs(ag.Edges)}
	SortNodes(o.nodes, func(p weighted[Tuple]) Tuple { return p.key }, s.AppendLabel, s.compareTuples)
	SortEdges(o.edges, func(p weighted[EdgeKey]) (Tuple, Tuple) { return p.key.From, p.key.To }, s.AppendLabel, s.compareTuples)
	ag.order.Store(o)
	return o
}

// NodeWeight returns the weight of the aggregate node for tu (0 if absent).
func (ag *Graph) NodeWeight(tu Tuple) int64 { return ag.Nodes[tu] }

// EdgeWeight returns the weight of the aggregate edge (from, to).
func (ag *Graph) EdgeWeight(from, to Tuple) int64 { return ag.Edges[EdgeKey{from, to}] }

// TotalNodeWeight returns the sum of all aggregate node weights.
func (ag *Graph) TotalNodeWeight() int64 {
	var sum int64
	for _, w := range ag.Nodes {
		sum += w
	}
	return sum
}

// TotalEdgeWeight returns the sum of all aggregate edge weights.
func (ag *Graph) TotalEdgeWeight() int64 {
	var sum int64
	for _, w := range ag.Edges {
		sum += w
	}
	return sum
}

// SortedNodes returns the aggregate node tuples in wire order (order.go):
// by decoded label, for deterministic presentation.
func (ag *Graph) SortedNodes() []Tuple { return keys(ag.wire().nodes) }

// SortedEdges returns the aggregate edge keys in wire order.
func (ag *Graph) SortedEdges() []EdgeKey { return keys(ag.wire().edges) }

func keys[K any](ps []weighted[K]) []K {
	out := make([]K, len(ps))
	for i, p := range ps {
		out[i] = p.key
	}
	return out
}

// String renders the aggregate graph for debugging, examples and the TGQL
// text result.
func (ag *Graph) String() string {
	s, o := ag.Schema, ag.wire()
	b := make([]byte, 0, 64+32*(len(ag.Nodes)+len(ag.Edges)))
	b = fmt.Appendf(b, "aggregate graph (%s) on %d tuples\n", ag.Kind, len(ag.Nodes))
	for _, p := range o.nodes {
		b = s.AppendLabel(append(b, "  node ("...), p.key)
		b = strconv.AppendInt(append(b, ") w="...), p.w, 10)
		b = append(b, '\n')
	}
	for _, p := range o.edges {
		b = s.AppendLabel(append(b, "  edge ("...), p.key.From)
		b = s.AppendLabel(append(b, ")→("...), p.key.To)
		b = strconv.AppendInt(append(b, ") w="...), p.w, 10)
		b = append(b, '\n')
	}
	return string(b)
}

// Aggregate computes the aggregate graph of a view under the schema
// (Algorithm 2 and its ALL/static variants) on the kernels of dense.go. The
// view must be over the same base graph as the schema.
func Aggregate(v *ops.View, s *Schema, kind Kind) *Graph {
	if v.Graph() != s.g {
		panic("agg: view and schema built on different graphs")
	}
	// context.Background is never canceled: the shared engine's probes cost
	// a nil check.
	return aggregateSerialCtx(context.Background(), v, s, kind, nil)
}

// AggregateMap computes the same result as Aggregate on hash-map
// accumulators, entity by entity. It is the reference engine the kernels
// are cross-checked against and the "seed path" comparator of the fast-path
// benchmarks; library code should call Aggregate.
func AggregateMap(v *ops.View, s *Schema, kind Kind) *Graph {
	if v.Graph() != s.g {
		panic("agg: view and schema built on different graphs")
	}
	ag := &Graph{
		Schema: s,
		Kind:   kind,
		Nodes:  make(map[Tuple]int64),
		Edges:  make(map[EdgeKey]int64),
	}
	if s.allStatic {
		aggregateStaticRange(v, s, kind, ag, 0, s.g.NumNodes(), 0, s.g.NumEdges())
	} else {
		aggregateVaryingRange(v, s, kind, ag, 0, s.g.NumNodes(), 0, s.g.NumEdges())
	}
	return ag
}

// AggregateGeneral computes the same result as Aggregate but always takes
// the general per-time-point path, even for all-static schemas. It exists
// to measure what the §4.2 static fast path buys (the static-fast-path
// ablation benchmark); library code should call Aggregate.
func AggregateGeneral(v *ops.View, s *Schema, kind Kind) *Graph {
	if v.Graph() != s.g {
		panic("agg: view and schema built on different graphs")
	}
	ag := &Graph{
		Schema: s,
		Kind:   kind,
		Nodes:  make(map[Tuple]int64),
		Edges:  make(map[EdgeKey]int64),
	}
	aggregateVaryingRange(v, s, kind, ag, 0, s.g.NumNodes(), 0, s.g.NumEdges())
	return ag
}

// Filter restricts which (node, time) appearances participate in a
// filtered aggregation; an edge appearance requires both endpoints to
// pass. It mirrors the evolution package's filter (the paper's Fig. 12
// high-activity restriction) for plain aggregation.
type Filter func(n core.NodeID, t timeline.Time) bool

// AggregateFiltered is Aggregate with a per-appearance filter; a nil
// filter is Aggregate. A filtered aggregation takes the time-major kernel
// even under an all-static schema, since the predicate may depend on
// time-varying attributes. ctx is probed like AggregateParallelCtx does: a
// nil error guarantees the complete result.
func AggregateFiltered(ctx context.Context, v *ops.View, s *Schema, kind Kind, filter Filter) (*Graph, error) {
	if v.Graph() != s.g {
		panic("agg: view and schema built on different graphs")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ag := aggregateSerialCtx(ctx, v, s, kind, filter)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return ag, nil
}

// aggregateStaticRange is the §4.2 fast path of the map engine over the
// view's entities with ids in [nLo,nHi) / [eLo,eHi). Each node
// has exactly one tuple, so no unpivoting or per-tuple deduplication is
// needed. For ALL, the appearance count of an entity is the popcount of its
// restricted timestamp.
func aggregateStaticRange(v *ops.View, s *Schema, kind Kind, ag *Graph, nLo, nHi, eLo, eHi int) {
	v.ForEachNodeIn(nLo, nHi, func(n core.NodeID) {
		tu, ok := s.StaticTuple(n)
		if !ok {
			return
		}
		if kind == Distinct {
			ag.Nodes[tu]++
		} else {
			ag.Nodes[tu] += int64(v.NodeTimesCount(n))
		}
	})
	g := s.g
	v.ForEachEdgeIn(eLo, eHi, func(e core.EdgeID) {
		ep := g.Edge(e)
		fu, ok1 := s.StaticTuple(ep.U)
		tu, ok2 := s.StaticTuple(ep.V)
		if !ok1 || !ok2 {
			return
		}
		key := EdgeKey{fu, tu}
		if kind == Distinct {
			ag.Edges[key]++
		} else {
			ag.Edges[key] += int64(v.EdgeTimesCount(e))
		}
	})
}

// aggregateVaryingRange is the map engine's general path over the same id
// ranges, for schemas with at least one time-varying attribute: tuples are
// collected per time point of each entity's restricted timestamp; DIST
// deduplicates per (entity, tuple).
func aggregateVaryingRange(v *ops.View, s *Schema, kind Kind, ag *Graph, nLo, nHi, eLo, eHi int) {
	g := s.g
	var seen map[Tuple]bool
	if kind == Distinct {
		seen = make(map[Tuple]bool)
	}
	v.ForEachNodeIn(nLo, nHi, func(n core.NodeID) {
		if kind == Distinct {
			clear(seen)
		}
		v.NodeTimes(n).ForEach(func(t int) {
			tu, ok := s.TupleAt(n, timeline.Time(t))
			if !ok {
				return
			}
			if kind == Distinct {
				if seen[tu] {
					return
				}
				seen[tu] = true
			}
			ag.Nodes[tu]++
		})
	})
	var seenEdges map[EdgeKey]bool
	if kind == Distinct {
		seenEdges = make(map[EdgeKey]bool)
	}
	v.ForEachEdgeIn(eLo, eHi, func(e core.EdgeID) {
		if kind == Distinct {
			clear(seenEdges)
		}
		ep := g.Edge(e)
		v.EdgeTimes(e).ForEach(func(t int) {
			fu, ok1 := s.TupleAt(ep.U, timeline.Time(t))
			tu, ok2 := s.TupleAt(ep.V, timeline.Time(t))
			if !ok1 || !ok2 {
				return
			}
			key := EdgeKey{fu, tu}
			if kind == Distinct {
				if seenEdges[key] {
					return
				}
				seenEdges[key] = true
			}
			ag.Edges[key]++
		})
	})
}

// Rollup derives the aggregate graph on a subset of the schema's
// attributes directly from an already-computed aggregate graph, without
// touching the base graph — COUNT is D-distributive w.r.t. top-down
// aggregations (§4.3): tuples of the finer aggregation are regrouped on
// the surviving attributes and their weights summed.
//
// The derivation is exact for ALL aggregates and for DIST aggregates in
// which each entity exhibits at most one tuple (a single-time-point view,
// or an all-static schema); for other DIST aggregates the regrouped weight
// over-counts entities that exhibit several fine tuples mapping to the
// same coarse tuple, which is why the paper applies roll-up reuse per time
// point (Fig. 11).
func Rollup(ag *Graph, attrs ...core.AttrID) (*Graph, error) {
	sub, err := NewSchema(ag.Schema.g, attrs...)
	if err != nil {
		return nil, err
	}
	// Positions of the subset attributes within the source schema.
	pos := make([]int, len(attrs))
	for i, a := range attrs {
		found := -1
		for j, b := range ag.Schema.attrs {
			if a == b {
				found = j
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("agg: attribute %q is not part of the source aggregation",
				ag.Schema.g.Attr(a).Name)
		}
		pos[i] = found
	}
	// Distinct fine tuples repeat heavily across entries (every edge key
	// carries two), so memoize the projection.
	cache := make(map[Tuple]Tuple, len(ag.Nodes))
	codes := make([]int64, len(ag.Schema.attrs))
	project := func(tu Tuple) Tuple {
		if out, ok := cache[tu]; ok {
			return out
		}
		rem := int64(tu)
		for j := range ag.Schema.attrs {
			codes[j] = rem % ag.Schema.radices[j]
			rem /= ag.Schema.radices[j]
		}
		var out int64
		for i := range pos {
			out += codes[pos[i]] * sub.strides[i]
		}
		cache[tu] = Tuple(out)
		return Tuple(out)
	}
	out := &Graph{
		Schema: sub,
		Kind:   ag.Kind,
		Nodes:  make(map[Tuple]int64, len(ag.Nodes)),
		Edges:  make(map[EdgeKey]int64, len(ag.Edges)),
	}
	for tu, w := range ag.Nodes {
		out.Nodes[project(tu)] += w
	}
	for k, w := range ag.Edges {
		out.Edges[EdgeKey{project(k.From), project(k.To)}] += w
	}
	return out, nil
}

// SameCoding reports whether s and o encode tuples identically: the same
// attribute ids in the same order with the same per-attribute radices.
// Two schemas with the same coding assign every attribute-value combination
// the same Tuple, even when they were built against different Graph
// snapshots of one evolving series — the case incremental catalog advances
// rely on to mix per-point aggregates across generations.
func (s *Schema) SameCoding(o *Schema) bool {
	if s == o {
		return true
	}
	if o == nil || len(s.attrs) != len(o.attrs) {
		return false
	}
	for i := range s.attrs {
		if s.attrs[i] != o.attrs[i] || s.radices[i] != o.radices[i] {
			return false
		}
	}
	return true
}

// Merge adds every weight of other into ag. Both must share the same tuple
// coding (SameCoding) and kind. It is the building block of the
// T-distributive composition of §4.3 (union ALL aggregates of an interval
// are the sums of the per-time-point ALL aggregates). Schemas need not be
// pointer-identical: an incrementally extended store merges aggregates
// produced against successive snapshots of the same evolving graph, whose
// schemas encode identically as long as no dictionary grew.
func (ag *Graph) Merge(other *Graph) {
	if !ag.Schema.SameCoding(other.Schema) || ag.Kind != other.Kind {
		panic("agg: Merge of incompatible aggregate graphs")
	}
	ag.order.Store(nil)
	for tu, w := range other.Nodes {
		ag.Nodes[tu] += w
	}
	for k, w := range other.Edges {
		ag.Edges[k] += w
	}
}

// ApproxBytes estimates the resident size of the aggregate graph for
// cache accounting: a fixed header plus the hash-map entries (key, weight
// and bucket overhead) and the remembered wire order, counted whether or
// not it was built yet. It is deliberately cheap — O(1) — and approximate;
// byte-budgeted caches only need relative sizes to be sane.
func (ag *Graph) ApproxBytes() int64 {
	const (
		header    = 64
		nodeEntry = 48 + 16 // Tuple (8) + int64 (8) + bucket overhead; wire order Tuple + weight
		edgeEntry = 64 + 24 // EdgeKey (16) + int64 (8) + bucket overhead; wire order EdgeKey + weight
	)
	return header + int64(len(ag.Nodes))*nodeEntry + int64(len(ag.Edges))*edgeEntry
}

// Clone returns a deep copy of ag.
func (ag *Graph) Clone() *Graph {
	out := &Graph{
		Schema: ag.Schema,
		Kind:   ag.Kind,
		Nodes:  make(map[Tuple]int64, len(ag.Nodes)),
		Edges:  make(map[EdgeKey]int64, len(ag.Edges)),
	}
	for tu, w := range ag.Nodes {
		out.Nodes[tu] = w
	}
	for k, w := range ag.Edges {
		out.Edges[k] = w
	}
	return out
}

// Equal reports whether two aggregate graphs have identical weights.
func (ag *Graph) Equal(other *Graph) bool {
	if len(ag.Nodes) != len(other.Nodes) || len(ag.Edges) != len(other.Edges) {
		return false
	}
	for tu, w := range ag.Nodes {
		if other.Nodes[tu] != w {
			return false
		}
	}
	for k, w := range ag.Edges {
		if other.Edges[k] != w {
			return false
		}
	}
	return true
}
