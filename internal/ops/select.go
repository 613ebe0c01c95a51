package ops

import (
	"encoding/binary"
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/timeline"
)

// Sel pairs an interval with the semantics under which an entity is
// considered to exist "in" it (§3.1):
//
//   - Exists (ForAll=false, union semantics): the entity exists at ≥1 time
//     point of the interval. This is how the binary operators of §2.1 test
//     membership, and how an exploration interval extended in the *union*
//     semi-lattice behaves (T_{i+1} ∪ T_{i+2} ∪ …).
//   - ForAll (ForAll=true, intersection semantics): the entity exists at
//     every time point of the interval, the behaviour of an interval
//     extended in the *intersection* semi-lattice (T_{i+1} ∩ T_{i+2} ∩ …).
type Sel struct {
	Interval timeline.Interval
	ForAll   bool
}

// Exists returns the union-semantics selector for iv.
func Exists(iv timeline.Interval) Sel { return Sel{Interval: iv} }

// ForAll returns the intersection-semantics selector for iv.
func ForAll(iv timeline.Interval) Sel { return Sel{Interval: iv, ForAll: true} }

// Over is the one selector every view is built from: it folds the per-point
// existence columns at(t), t ∈ Interval, of one side of the graph (nodes or
// edges, width ids) into the set of entities that exist in the interval —
// the OR of the columns under Exists, the AND under ForAll. An empty
// interval selects nothing under either semantics. A column frozen before
// the id space reached width reads as zero-padded.
func (s Sel) Over(at func(timeline.Time) *bitset.Set, width int) *bitset.Set {
	out := bitset.New(width)
	if s.Interval.IsEmpty() {
		return out
	}
	mask := s.Interval.Mask()
	t := mask.Next(0)
	out.CopyFrom(at(timeline.Time(t)))
	for t = mask.Next(t + 1); t >= 0; t = mask.Next(t + 1) {
		if !s.ForAll {
			out.OrWith(at(timeline.Time(t)))
		} else if out.AndWith(at(timeline.Time(t))); out.IsEmpty() {
			break // nothing exists throughout: a long projection stops here
		}
	}
	return out
}

// in returns the nodes and the edges of g that exist in the selector's
// interval, read from g's point index.
func (s Sel) in(g *core.Graph) (nodes, edges *bitset.Set) {
	ix := g.PointIndex()
	return s.Over(ix.NodesAt, g.NumNodes()), s.Over(ix.EdgesAt, g.NumEdges())
}

// StabilityView generalizes the intersection operator (Definition 2.4) to
// selector semantics: it keeps the nodes and edges that exist in old AND in
// new, each side interpreted under its own semantics. With two Exists
// selectors it coincides with Intersection. Timestamps are restricted to
// the union of the two intervals, as in Definition 2.4.
func StabilityView(g *core.Graph, old, new Sel) *View {
	nodes, edges := old.in(g)
	newNodes, newEdges := new.in(g)
	nodes.AndWith(newNodes)
	edges.AndWith(newEdges)
	return &View{g: g, nodes: nodes, edges: edges, times: old.Interval.Union(new.Interval)}
}

// DifferenceView generalizes the difference operator (Definition 2.5) to
// selector semantics: it keeps the edges that exist in pos but NOT in neg,
// and the nodes that exist in pos and either do not exist in neg or are
// endpoints of a kept edge. With two Exists selectors it coincides with
// Difference. Timestamps are restricted to pos's interval.
//
// Growth between Told and Tnew is DifferenceView(g, new, old); shrinkage is
// DifferenceView(g, old, new) (§3.3, §3.4).
func DifferenceView(g *core.Graph, pos, neg Sel) *View {
	nodes, edges := pos.in(g)
	negNodes, negEdges := neg.in(g)
	edges.AndNotWith(negEdges)
	nodes.SetAndNotOr(nodes, negNodes, newRescue(g).endpoints(edges))
	return &View{g: g, nodes: nodes, edges: edges, times: pos.Interval}
}

// rescue computes the rescue set of Definition 2.5's node rule — the
// endpoints of the kept difference edges — in reusable buffers. It is the
// one per-entity loop of view construction, and it visits the kept edges
// only.
type rescue struct {
	g *core.Graph
	// marks has one byte per node: plain stores, where setting bits directly
	// would chain a read-modify-write per edge through the words of hub
	// nodes (measured 2.7× slower on DBLP's old − new). All zero between
	// calls; padded to whole words.
	marks []byte
	words []uint64
	set   *bitset.Set // over words
}

func newRescue(g *core.Graph) *rescue {
	nw := (g.NumNodes() + 63) / 64
	r := &rescue{g: g, marks: make([]byte, nw*64), words: make([]uint64, nw)}
	r.set = bitset.FromWords(g.NumNodes(), r.words)
	return r
}

// endpoints returns the set of endpoints of the given edges, valid until the
// next call.
func (r *rescue) endpoints(edges *bitset.Set) *bitset.Set {
	for wi := 0; wi < edges.NumWords(); wi++ {
		for w := edges.Word(wi); w != 0; w &= w - 1 {
			ep := r.g.Edge(core.EdgeID(wi*64 + bits.TrailingZeros64(w)))
			r.marks[ep.U], r.marks[ep.V] = 1, 1
		}
	}
	// Pack eight 0/1 bytes into eight bits per step: the multiplication
	// gathers bit 8i of the load into bit 56+i.
	clear(r.words)
	for n := 0; n < len(r.marks); n += 8 {
		b := binary.LittleEndian.Uint64(r.marks[n:]) * 0x0102040810204080 >> 56
		r.words[n/64] |= b << uint(n%64)
	}
	clear(r.marks)
	return r.set
}
