package core

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/dict"
)

// Validate checks g against Definition 2.1, the one statement of the
// model's invariants — Builder.Build runs it on every graph it assembles
// and the snapshot reader on every load:
//
//   - every τu(n) and τe(e) is non-empty and has no bit at or beyond the
//     timeline's length;
//   - τe(u,v) ⊆ τu(u) ∧ τu(v): an interaction needs both entities present;
//   - no two nodes share a label and no two edges share endpoints;
//   - every attribute code lies in [dict.None, |domain|).
//
// The uniqueness pass leaves the label → id and endpoints → id indexes
// built; EdgeByEndpoints reads the latter.
func (g *Graph) Validate() error {
	if err := g.checkRanges(); err != nil {
		return err
	}
	if err := g.indexNodes(); err != nil {
		return err
	}
	if err := g.indexEdges(); err != nil {
		return err
	}
	for n, tau := range g.nodeTau {
		if tau.IsEmpty() {
			return fmt.Errorf("core: node %s has empty timestamp", g.nodeLabels[n])
		}
	}
	for e, ep := range g.edges {
		tau := g.edgeTau[e]
		if tau.IsEmpty() {
			return fmt.Errorf("core: edge (%s,%s) has empty timestamp", g.nodeLabels[ep.U], g.nodeLabels[ep.V])
		}
		if !g.nodeTau[ep.U].ContainsAll(tau) || !g.nodeTau[ep.V].ContainsAll(tau) {
			return fmt.Errorf("core: edge (%s,%s) exists at a time its endpoints do not",
				g.nodeLabels[ep.U], g.nodeLabels[ep.V])
		}
	}
	return nil
}

// checkRanges enforces the rules every accessor relies on to stay in
// bounds: endpoints name nodes, existence bits name time points, codes name
// dictionary values. FromColumns runs it on columns it did not build.
func (g *Graph) checkRanges() error {
	T, nNodes := g.tl.Len(), len(g.nodeLabels)
	for e, ep := range g.edges {
		if int(ep.U) < 0 || int(ep.U) >= nNodes || int(ep.V) < 0 || int(ep.V) >= nNodes {
			return fmt.Errorf("core: edge %d endpoints (%d,%d) out of range [0,%d)", e, ep.U, ep.V, nNodes)
		}
	}
	for n, tau := range g.nodeTau {
		if !tauWithin(tau, T) {
			return fmt.Errorf("core: node %s has existence bits beyond the timeline of %d points", g.nodeLabels[n], T)
		}
	}
	for e, tau := range g.edgeTau {
		if !tauWithin(tau, T) {
			return fmt.Errorf("core: edge %d has existence bits beyond the timeline of %d points", e, T)
		}
	}
	for a, spec := range g.attrs {
		cols := [][]dict.Code{g.static[a]}
		if spec.Kind == TimeVarying {
			cols = g.varying[a]
		}
		domain := dict.Code(g.dicts[a].Len())
		for _, col := range cols {
			for _, c := range col {
				if c < dict.None || c >= domain {
					return fmt.Errorf("core: attribute %q code %d outside its dictionary of %d values", spec.Name, c, domain)
				}
			}
		}
	}
	return nil
}

// tauWithin reports whether tau sets no bit at or beyond time point T. A
// set shorter than the timeline (an accumulator's frozen timestamp) reads
// as absent afterwards.
func tauWithin(tau *bitset.Set, T int) bool {
	n := tau.Len()
	if n > T {
		return false
	}
	r := n % 64
	return r == 0 || tau.Word(tau.NumWords()-1)>>uint(r) == 0
}

// indexNodes builds the label → id index, rejecting a repeated label.
// Graphs that arrive with one (Builder's, an accumulator's shared index)
// are unique by construction.
func (g *Graph) indexNodes() error {
	if g.nodeIndex != nil || g.shared != nil {
		return nil
	}
	ni := make(map[string]NodeID, len(g.nodeLabels))
	for n, label := range g.nodeLabels {
		if _, dup := ni[label]; dup {
			return fmt.Errorf("core: duplicate node label %q", label)
		}
		ni[label] = NodeID(n)
	}
	g.nodeIndex = ni
	return nil
}

// indexEdges is indexNodes for the endpoints → id index, rejecting a
// repeated edge.
func (g *Graph) indexEdges() error {
	if g.edgeIndex != nil || g.shared != nil {
		return nil
	}
	ei := make(map[Endpoints]EdgeID, len(g.edges))
	for e, ep := range g.edges {
		if _, dup := ei[ep]; dup {
			return fmt.Errorf("core: duplicate edge (%s,%s)", g.nodeLabels[ep.U], g.nodeLabels[ep.V])
		}
		ei[ep] = EdgeID(e)
	}
	g.edgeIndex = ei
	return nil
}
