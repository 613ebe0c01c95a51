package core

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/dict"
	"repro/internal/timeline"
)

// Columns is the flat, already-validated-at-write-time input of
// FromColumns: the column layout the storage package persists, pointing
// (for the mmap path) straight into a file mapping.
type Columns struct {
	Timeline   *timeline.Timeline
	Attrs      []AttrSpec
	Dicts      []*dict.Dict
	NodeLabels []string
	NodeTau    []*bitset.Set
	Edges      []Endpoints
	EdgeTau    []*bitset.Set
	// Static[a][n] / Varying[a][n*T+t] use the Builder layout; exactly one
	// of the two is non-nil per attribute, matching Attrs[a].Kind.
	Static  [][]dict.Code
	Varying [][]dict.Code
}

// FromColumns assembles a Graph directly from columnar data without the
// Builder's per-entity semantic validation. It is the O(1)-ish boot path
// of the mmap snapshot reader: only cheap structural invariants are
// checked (slice lengths line up, endpoints in range), and the label →
// id and endpoints → id indexes are built lazily on first lookup. Callers
// that need full validation (empty timestamps, edges outside endpoint
// lifetimes) must go through Builder instead.
func FromColumns(c Columns) (*Graph, error) {
	if c.Timeline == nil {
		return nil, fmt.Errorf("core: FromColumns requires a timeline")
	}
	nNodes, nEdges := len(c.NodeLabels), len(c.Edges)
	if len(c.NodeTau) != nNodes || len(c.EdgeTau) != nEdges {
		return nil, fmt.Errorf("core: tau column lengths (%d,%d) do not match entity counts (%d,%d)",
			len(c.NodeTau), len(c.EdgeTau), nNodes, nEdges)
	}
	if len(c.Dicts) != len(c.Attrs) || len(c.Static) != len(c.Attrs) || len(c.Varying) != len(c.Attrs) {
		return nil, fmt.Errorf("core: attribute column count mismatch")
	}
	T := c.Timeline.Len()
	for a, spec := range c.Attrs {
		st, va := c.Static[a], c.Varying[a]
		if spec.Kind == Static {
			if va != nil || len(st) != nNodes {
				return nil, fmt.Errorf("core: static attribute %q has wrong column shape", spec.Name)
			}
		} else if st != nil || len(va) != nNodes*T {
			return nil, fmt.Errorf("core: varying attribute %q has wrong column shape", spec.Name)
		}
	}
	for e, ep := range c.Edges {
		if int(ep.U) < 0 || int(ep.U) >= nNodes || int(ep.V) < 0 || int(ep.V) >= nNodes {
			return nil, fmt.Errorf("core: edge %d endpoints (%d,%d) out of range [0,%d)", e, ep.U, ep.V, nNodes)
		}
	}
	return &Graph{
		tl:         c.Timeline,
		attrs:      c.Attrs,
		dicts:      c.Dicts,
		nodeLabels: c.NodeLabels,
		nodeTau:    c.NodeTau,
		edges:      c.Edges,
		edgeTau:    c.EdgeTau,
		static:     c.Static,
		varying:    c.Varying,
	}, nil
}

// buildIndexes populates the label and endpoints maps of a FromColumns
// graph on first lookup; Builder graphs arrive with them set.
func (g *Graph) buildIndexes() {
	if g.nodeIndex != nil {
		return
	}
	ni := make(map[string]NodeID, len(g.nodeLabels))
	for n, label := range g.nodeLabels {
		ni[label] = NodeID(n)
	}
	ei := make(map[Endpoints]EdgeID, len(g.edges))
	for e, ep := range g.edges {
		ei[ep] = EdgeID(e)
	}
	g.nodeIndex, g.edgeIndex = ni, ei
}
