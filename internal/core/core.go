// Package core implements the GraphTempo temporal attributed graph model
// (Definition 2.1 of the paper).
//
// A temporal attributed graph G(V, E, τu, τe, A) is defined over a timeline
// of base time points. Each node and each edge carries a timestamp bitset
// recording the time points at which it exists (the binary-vector
// representation of §4, Table 2). Nodes carry a set of attributes, each
// either static (one value per node) or time-varying (one value per node
// per time point of existence). Attribute values are dictionary-encoded.
//
// Graphs are built through a Builder and are immutable afterwards; the
// temporal operators of package ops and the aggregations of package agg
// read them concurrently without synchronization.
package core

import (
	"fmt"
	"sync"

	"repro/internal/bitset"
	"repro/internal/dict"
	"repro/internal/timeline"
)

// NodeID indexes a node within one graph.
type NodeID int32

// EdgeID indexes an edge within one graph.
type EdgeID int32

// Endpoints identifies a directed edge by its endpoint node ids.
type Endpoints struct {
	U, V NodeID
}

// AttrKind distinguishes static from time-varying attributes (§2, Def. 2.1).
type AttrKind int

const (
	// Static attributes keep one value per node for the node's whole
	// lifetime (e.g. gender).
	Static AttrKind = iota
	// TimeVarying attributes have a value per node per time point of the
	// node's existence (e.g. number of publications in a year).
	TimeVarying
)

// String returns "static" or "time-varying".
func (k AttrKind) String() string {
	if k == Static {
		return "static"
	}
	return "time-varying"
}

// AttrID indexes an attribute within a graph's schema.
type AttrID int

// AttrSpec describes one node attribute.
type AttrSpec struct {
	Name string
	Kind AttrKind
}

// Graph is an immutable temporal attributed graph.
type Graph struct {
	tl    *timeline.Timeline
	attrs []AttrSpec
	dicts []*dict.Dict // one per attribute

	nodeLabels []string
	nodeIndex  map[string]NodeID
	nodeTau    []*bitset.Set // per node, length tl.Len()

	edges     []Endpoints
	edgeIndex map[Endpoints]EdgeID
	edgeTau   []*bitset.Set

	// static[a][n] is the value code of static attribute a for node n;
	// nil for time-varying attributes.
	static [][]dict.Code
	// varying[a][t][n] is the value code of time-varying attribute a for
	// node n at time t — one row per time point, the node × time array A_i
	// of §4 by time column; nil for static attributes. A row may be shorter
	// than NumNodes (an accumulator freezes it at its point's node count):
	// nodes beyond its end read as dict.None.
	varying [][][]dict.Code
	// shared is non-nil for Accumulator snapshots: label lookups go through
	// the accumulator's lock-guarded index, clipped to this snapshot's
	// node/edge counts. nodeIndex/edgeIndex are nil in that case.
	shared *sharedIndex

	// points is the per-time-point existence index (points.go): appended
	// columns on accumulator snapshots, transposed from τ on first use
	// otherwise.
	points PointIndex

	// memo is what Memo built: one structure derived from the graph that
	// lives and dies with it, like points.
	memoOnce sync.Once
	memo     any
}

// Memo returns the graph's memo slot, filling it with build() on first use;
// concurrent first callers wait for the one build. There is one slot per
// graph and package agg owns it (its per-graph schema table), so whatever
// it holds is released with the graph rather than pinned by a package-level
// map.
func (g *Graph) Memo(build func() any) any {
	g.memoOnce.Do(func() { g.memo = build() })
	return g.memo
}

// indexLazily sets up the point index of a graph that was not grown by an
// Accumulator: every column is transposed from τ when first asked for.
func (g *Graph) indexLazily() {
	g.points = PointIndex{head: &lazyColumns{T: g.tl.Len(), nodeTau: g.nodeTau, edgeTau: g.edgeTau}}
}

// Timeline returns the graph's time domain.
func (g *Graph) Timeline() *timeline.Timeline { return g.tl }

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return len(g.nodeLabels) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.edges) }

// NumAttrs returns the number of attributes in the schema.
func (g *Graph) NumAttrs() int { return len(g.attrs) }

// Attr returns the spec of attribute a.
func (g *Graph) Attr(a AttrID) AttrSpec { return g.attrs[a] }

// Attrs returns the full attribute schema, in declaration order.
func (g *Graph) Attrs() []AttrSpec { return append([]AttrSpec(nil), g.attrs...) }

// AttrByName returns the id of the attribute with the given name.
func (g *Graph) AttrByName(name string) (AttrID, bool) {
	for i, a := range g.attrs {
		if a.Name == name {
			return AttrID(i), true
		}
	}
	return -1, false
}

// MustAttr is AttrByName but panics when the attribute does not exist.
// Intended for examples and tests where the schema is known.
func (g *Graph) MustAttr(name string) AttrID {
	a, ok := g.AttrByName(name)
	if !ok {
		panic(fmt.Sprintf("core: no attribute named %q", name))
	}
	return a
}

// Dict returns the value dictionary of attribute a. The caller must not
// modify it.
func (g *Graph) Dict(a AttrID) *dict.Dict { return g.dicts[a] }

// NodeLabel returns the external label of node n.
func (g *Graph) NodeLabel(n NodeID) string { return g.nodeLabels[n] }

// NodeByLabel returns the node with the given external label.
func (g *Graph) NodeByLabel(label string) (NodeID, bool) {
	if g.shared != nil {
		return g.shared.nodeByLabel(label, len(g.nodeLabels))
	}
	n, ok := g.nodeIndex[label]
	return n, ok
}

// NodeTau returns τu(n): the bitset of time points at which node n exists.
// The caller must not modify it.
func (g *Graph) NodeTau(n NodeID) *bitset.Set { return g.nodeTau[n] }

// Edge returns the endpoints of edge e.
func (g *Graph) Edge(e EdgeID) Endpoints { return g.edges[e] }

// EdgeByEndpoints returns the edge (u, v), if present.
func (g *Graph) EdgeByEndpoints(u, v NodeID) (EdgeID, bool) {
	if g.shared != nil {
		return g.shared.edgeByEndpoints(Endpoints{u, v}, len(g.edges))
	}
	e, ok := g.edgeIndex[Endpoints{u, v}]
	return e, ok
}

// EdgeTau returns τe(e): the bitset of time points at which edge e exists.
// The caller must not modify it.
func (g *Graph) EdgeTau(e EdgeID) *bitset.Set { return g.edgeTau[e] }

// EdgesBetween returns the edges whose source is in from and whose target is
// in to, both sets spanning the graph's node ids.
func (g *Graph) EdgesBetween(from, to *bitset.Set) *bitset.Set {
	words := make([]uint64, (len(g.edges)+63)/64)
	for e, ep := range g.edges {
		u, v := uint(ep.U), uint(ep.V)
		in := (from.Word(int(u/64)) >> (u % 64)) & (to.Word(int(v/64)) >> (v % 64)) & 1
		words[e/64] |= in << (e % 64)
	}
	return bitset.FromWords(len(g.edges), words)
}

// StaticValue returns the code of static attribute a for node n.
// It panics if a is time-varying.
func (g *Graph) StaticValue(a AttrID, n NodeID) dict.Code {
	col := g.static[a]
	if col == nil {
		panic(fmt.Sprintf("core: attribute %q is not static", g.attrs[a].Name))
	}
	return col[n]
}

// VaryingValue returns the code of time-varying attribute a for node n at
// time t (dict.None when the node has no value there).
// It panics if a is static.
func (g *Graph) VaryingValue(a AttrID, n NodeID, t timeline.Time) dict.Code {
	rows := g.varying[a]
	if rows == nil {
		panic(fmt.Sprintf("core: attribute %q is not time-varying", g.attrs[a].Name))
	}
	row := rows[t]
	if int(n) >= len(row) {
		return dict.None // node joined after this point was frozen
	}
	return row[n]
}

// Value returns the code of attribute a for node n at time t, regardless of
// the attribute's kind. For a static attribute t is ignored.
func (g *Graph) Value(a AttrID, n NodeID, t timeline.Time) dict.Code {
	if g.attrs[a].Kind == Static {
		return g.static[a][n]
	}
	return g.VaryingValue(a, n, t)
}

// ValueString is Value decoded through the attribute's dictionary.
func (g *Graph) ValueString(a AttrID, n NodeID, t timeline.Time) string {
	return g.dicts[a].Value(g.Value(a, n, t))
}

// NodesAt returns the number of nodes existing at time t.
func (g *Graph) NodesAt(t timeline.Time) int { return g.PointIndex().NodesAt(t).Count() }

// EdgesAt returns the number of edges existing at time t.
func (g *Graph) EdgesAt(t timeline.Time) int { return g.PointIndex().EdgesAt(t).Count() }

// Builder assembles a Graph. Methods may be called in any order; Build
// validates the result. A Builder must not be reused after Build.
type Builder struct {
	tl    *timeline.Timeline
	attrs []AttrSpec
	dicts []*dict.Dict

	nodeLabels []string
	nodeIndex  map[string]NodeID
	nodeTau    []*bitset.Set

	edges     []Endpoints
	edgeIndex map[Endpoints]EdgeID
	edgeTau   []*bitset.Set

	static  [][]dict.Code
	varying [][][]dict.Code // [a][t][n], as in Graph

	err error
}

// NewBuilder returns a builder for a graph over tl with the given schema.
func NewBuilder(tl *timeline.Timeline, attrs ...AttrSpec) *Builder {
	b := &Builder{
		tl:        tl,
		attrs:     append([]AttrSpec(nil), attrs...),
		dicts:     make([]*dict.Dict, len(attrs)),
		nodeIndex: make(map[string]NodeID),
		edgeIndex: make(map[Endpoints]EdgeID),
		static:    make([][]dict.Code, len(attrs)),
		varying:   make([][][]dict.Code, len(attrs)),
	}
	seen := make(map[string]bool, len(attrs))
	for i, a := range attrs {
		if a.Name == "" {
			b.fail(fmt.Errorf("core: attribute %d has empty name", i))
		}
		if seen[a.Name] {
			b.fail(fmt.Errorf("core: duplicate attribute name %q", a.Name))
		}
		seen[a.Name] = true
		b.dicts[i] = dict.New()
		if a.Kind == TimeVarying {
			b.varying[i] = make([][]dict.Code, tl.Len())
		}
	}
	return b
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// AddNode registers a node with the given external label if not yet present
// and returns its id.
func (b *Builder) AddNode(label string) NodeID {
	if n, ok := b.nodeIndex[label]; ok {
		return n
	}
	n := NodeID(len(b.nodeLabels))
	b.nodeIndex[label] = n
	b.nodeLabels = append(b.nodeLabels, label)
	b.nodeTau = append(b.nodeTau, bitset.New(b.tl.Len()))
	for a := range b.attrs {
		if b.attrs[a].Kind == Static {
			b.static[a] = append(b.static[a], dict.None)
			continue
		}
		for t, row := range b.varying[a] {
			b.varying[a][t] = append(row, dict.None)
		}
	}
	return n
}

// NodeID returns the id already assigned to the node with the given label.
func (b *Builder) NodeID(label string) (NodeID, bool) {
	n, ok := b.nodeIndex[label]
	return n, ok
}

// SetNodeTime marks node n as existing at time t.
func (b *Builder) SetNodeTime(n NodeID, t timeline.Time) {
	b.nodeTau[n].Add(int(t))
}

// AddEdge registers the directed edge (u, v) if not yet present and returns
// its id.
func (b *Builder) AddEdge(u, v NodeID) EdgeID {
	key := Endpoints{u, v}
	if e, ok := b.edgeIndex[key]; ok {
		return e
	}
	e := EdgeID(len(b.edges))
	b.edgeIndex[key] = e
	b.edges = append(b.edges, key)
	b.edgeTau = append(b.edgeTau, bitset.New(b.tl.Len()))
	return e
}

// SetEdgeTime marks edge e as existing at time t.
func (b *Builder) SetEdgeTime(e EdgeID, t timeline.Time) {
	b.edgeTau[e].Add(int(t))
}

// InternValues pre-loads attribute a's dictionary with values in order,
// pinning their code assignment. The snapshot reader uses it so a reloaded
// graph reproduces the exact dictionary (and therefore tuple-code) layout
// of the saved one; later SetStatic/SetVarying calls re-intern idempotently.
func (b *Builder) InternValues(a AttrID, values ...string) {
	for _, v := range values {
		b.dicts[a].Put(v)
	}
}

// SetStatic assigns the value of static attribute a for node n.
func (b *Builder) SetStatic(a AttrID, n NodeID, value string) {
	if b.attrs[a].Kind != Static {
		b.fail(fmt.Errorf("core: SetStatic on time-varying attribute %q", b.attrs[a].Name))
		return
	}
	b.static[a][n] = b.dicts[a].Put(value)
}

// SetVarying assigns the value of time-varying attribute a for node n at
// time t.
func (b *Builder) SetVarying(a AttrID, n NodeID, t timeline.Time, value string) {
	if b.attrs[a].Kind != TimeVarying {
		b.fail(fmt.Errorf("core: SetVarying on static attribute %q", b.attrs[a].Name))
		return
	}
	b.varying[a][t][n] = b.dicts[a].Put(value)
}

// Build validates (Graph.Validate) and returns the graph. After Build the
// builder must not be used again.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	g := &Graph{
		tl:         b.tl,
		attrs:      b.attrs,
		dicts:      b.dicts,
		nodeLabels: b.nodeLabels,
		nodeIndex:  b.nodeIndex,
		nodeTau:    b.nodeTau,
		edges:      b.edges,
		edgeIndex:  b.edgeIndex,
		edgeTau:    b.edgeTau,
		static:     b.static,
		varying:    b.varying,
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	g.indexLazily()
	return g, nil
}

// MustBuild is Build but panics on error. Intended for fixtures and tests.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// Stats summarizes a graph per time point (Tables 3 and 4 of the paper).
type Stats struct {
	Labels []string
	Nodes  []int
	Edges  []int
}

// ComputeStats returns per-time-point node and edge counts.
func ComputeStats(g *Graph) Stats {
	n := g.tl.Len()
	s := Stats{Labels: g.tl.Labels(), Nodes: make([]int, n), Edges: make([]int, n)}
	for _, tau := range g.nodeTau {
		tau.ForEach(func(t int) { s.Nodes[t]++ })
	}
	for _, tau := range g.edgeTau {
		tau.ForEach(func(t int) { s.Edges[t]++ })
	}
	return s
}
