package materialize

import (
	"repro/internal/agg"
	"repro/internal/timeline"
)

// This file implements the dense interval-composition engine behind
// Store.UnionAll.
//
// The per-time-point ALL aggregates are T-distributive (§4.3): the union
// aggregate over an interval is the weight-wise sum of the per-point
// aggregates. The reference implementation (UnionAllLinear) merges the
// per-point hash maps one at a time — O(|interval|) map merges with a hash
// probe per entry. The dense engine instead flattens every per-point
// aggregate into one []int64 weight vector over a compact slot dictionary
// (slot ↔ mixed-radix tuple code of internal/agg: one slot per node tuple
// and per edge key that is non-zero at ANY time point), and precomputes
// prefix sums over those vectors: prefix[i] = Σ points[0..i), so a
// contiguous run [a,b] composes with ONE vector subtraction,
// prefix[b+1] − prefix[a] — the O(1) two-lookup path (COUNT weights are
// invertible, so subtraction is exact).
//
// Decoding back to an *agg.Graph happens only at the boundary, with
// exactly-sized result maps. The engine is cross-checked against the
// linear reference by randomized equivalence tests.
//
// The engine is APPENDABLE: slots are interned in first-seen order into one
// interleaved append-only dictionary (order), vectors keep the width they
// had when built (a missing tail reads as zero), and appending one time
// point costs O(slots) for the new prefix entry — never a rebuild of
// history. extend produces a NEW composer sharing the frozen backing
// arrays with its parent, so readers of the old generation are undisturbed
// and two extensions of one composer never see each other's points.
//
// The structures are built lazily on the first composed query (sync.Once,
// so a Store is safe for concurrent UnionAll callers) and cost
// O(points × slots) int64 adds and ~8·slots·points bytes — compact-slot
// indexing, not the full Domain² space, keeps that small even for wide
// schemas.

// composer holds the prefix sums of the flattened per-point weight vectors.
// Immutable once built, except through extend.
type composer struct {
	schema *agg.Schema

	// Interleaved slot dictionary in first-seen order: order[j] ≥ 0 indexes
	// nodeCodes, order[j] < 0 indexes edgeCodes as ^order[j]. Interleaving
	// makes the slot space append-only — a node tuple first seen at point
	// 12 gets a slot beyond every vector built before it, so old (shorter)
	// vectors stay valid with their missing tail meaning zero.
	order     []int32
	nodeCodes []agg.Tuple
	edgeCodes []agg.EdgeKey
	nodeSlot  map[agg.Tuple]int
	edgeSlot  map[agg.EdgeKey]int
	width     int

	prefix [][]int64 // prefix[i] = Σ points[0..i); len = n+1 (ragged)
}

// composer returns the store's dense composition engine, building it on
// first use. Stores produced by Append carry their engine eagerly; the
// nil check keeps the sync.Once from overwriting it.
func (st *Store) composer() *composer {
	st.compOnce.Do(func() {
		if st.comp == nil {
			st.comp = buildComposer(st.schema, st.perPoint)
		}
	})
	return st.comp
}

func newComposer(s *agg.Schema) *composer {
	return &composer{
		schema:   s,
		nodeSlot: make(map[agg.Tuple]int),
		edgeSlot: make(map[agg.EdgeKey]int),
	}
}

func buildComposer(s *agg.Schema, perPoint []*agg.Graph) *composer {
	c := newComposer(s)
	for _, ag := range perPoint {
		c.appendPoint(ag)
	}
	return c
}

// extend returns a new composer over schema s covering the parent's points
// plus newPoints. Backing arrays of frozen vectors are shared; every
// append-path slice uses a capacity-clamped header so growth reallocates
// instead of scribbling over the parent's spare capacity, and the slot
// maps are cloned (O(slots)) so the parent stays immutable.
func (c *composer) extend(s *agg.Schema, newPoints []*agg.Graph) *composer {
	n := &composer{
		schema:    s,
		order:     c.order[:len(c.order):len(c.order)],
		nodeCodes: c.nodeCodes[:len(c.nodeCodes):len(c.nodeCodes)],
		edgeCodes: c.edgeCodes[:len(c.edgeCodes):len(c.edgeCodes)],
		nodeSlot:  make(map[agg.Tuple]int, len(c.nodeSlot)),
		edgeSlot:  make(map[agg.EdgeKey]int, len(c.edgeSlot)),
		width:     c.width,
		prefix:    c.prefix[:len(c.prefix):len(c.prefix)],
	}
	for tu, j := range c.nodeSlot {
		n.nodeSlot[tu] = j
	}
	for k, j := range c.edgeSlot {
		n.edgeSlot[k] = j
	}
	for _, ag := range newPoints {
		n.appendPoint(ag)
	}
	return n
}

// appendPoint folds one more per-point aggregate into the engine:
// O(result size) to intern first-seen slots plus O(width) for the new
// prefix entry, prefix[n] = prefix[n-1] + the point's weights.
func (c *composer) appendPoint(ag *agg.Graph) {
	for tu := range ag.Nodes {
		if _, ok := c.nodeSlot[tu]; !ok {
			c.addNodeSlot(tu)
		}
	}
	for k := range ag.Edges {
		if _, ok := c.edgeSlot[k]; !ok {
			c.addEdgeSlot(k)
		}
	}
	if len(c.prefix) == 0 {
		// First point: prefix[0] is the empty sum.
		c.prefix = append(c.prefix, []int64{})
	}
	pv := make([]int64, c.width)
	copy(pv, c.prefix[len(c.prefix)-1])
	for tu, w := range ag.Nodes {
		pv[c.nodeSlot[tu]] += w
	}
	for k, w := range ag.Edges {
		pv[c.edgeSlot[k]] += w
	}
	c.prefix = append(c.prefix, pv)
}

func (c *composer) addNodeSlot(tu agg.Tuple) {
	c.order = append(c.order, int32(len(c.nodeCodes)))
	c.nodeCodes = append(c.nodeCodes, tu)
	c.nodeSlot[tu] = c.width
	c.width++
}

func (c *composer) addEdgeSlot(k agg.EdgeKey) {
	c.order = append(c.order, ^int32(len(c.edgeCodes)))
	c.edgeCodes = append(c.edgeCodes, k)
	c.edgeSlot[k] = c.width
	c.width++
}

// runs decomposes the interval into maximal contiguous [a,b] runs.
func runs(iv timeline.Interval) [][2]int {
	var out [][2]int
	ts := iv.Times()
	for i := 0; i < len(ts); {
		j := i
		for j+1 < len(ts) && ts[j+1] == ts[j]+1 {
			j++
		}
		out = append(out, [2]int{int(ts[i]), int(ts[j])})
		i = j + 1
	}
	return out
}

// addPrefix accumulates the run [a,b] into acc via one prefix-sum
// subtraction (two vector lookups, O(width) adds regardless of run length).
// The two prefix vectors may have different (older, shorter) widths than
// acc; absent tail entries are zero.
func (c *composer) addPrefix(acc []int64, a, b int) {
	for j, w := range c.prefix[b+1] {
		acc[j] += w
	}
	for j, w := range c.prefix[a] {
		acc[j] -= w
	}
}

// decode materializes the accumulated weight vector as an aggregate graph
// with exactly-sized maps, skipping zero slots.
func (c *composer) decode(acc []int64) *agg.Graph {
	cn, ce := 0, 0
	for j, w := range acc {
		if w == 0 {
			continue
		}
		if c.order[j] >= 0 {
			cn++
		} else {
			ce++
		}
	}
	out := &agg.Graph{
		Schema: c.schema,
		Kind:   agg.All,
		Nodes:  make(map[agg.Tuple]int64, cn),
		Edges:  make(map[agg.EdgeKey]int64, ce),
	}
	for j, w := range acc {
		if w == 0 {
			continue
		}
		if o := c.order[j]; o >= 0 {
			out.Nodes[c.nodeCodes[o]] = w
		} else {
			out.Edges[c.edgeCodes[^o]] = w
		}
	}
	return out
}

// compose sums the interval's runs from the prefix table and decodes.
func (c *composer) compose(iv timeline.Interval) *agg.Graph {
	acc := make([]int64, c.width)
	for _, r := range runs(iv) {
		c.addPrefix(acc, r[0], r[1])
	}
	return c.decode(acc)
}
