package core

import (
	"fmt"
	"slices"

	"repro/internal/bitset"
	"repro/internal/dict"
	"repro/internal/timeline"
)

// Columns is the flat input of FromColumns: the column layout the storage
// package persists, pointing straight into the snapshot's heap buffer.
type Columns struct {
	Timeline   *timeline.Timeline
	Attrs      []AttrSpec
	Dicts      []*dict.Dict
	NodeLabels []string
	NodeTau    []*bitset.Set
	Edges      []Endpoints
	EdgeTau    []*bitset.Set
	// Static[a][n] / Varying[a][t][n] use the Graph layout: T rows of |V|
	// codes per time-varying attribute. Exactly one of the two is non-nil
	// per attribute, matching Attrs[a].Kind.
	Static  [][]dict.Code
	Varying [][][]dict.Code
}

// FromColumns assembles a Graph directly from columnar data. It is the one
// way snapshot bytes become a graph, so it checks what reading the graph
// relies on — slice lengths line up, endpoints, existence bits and codes are
// in range (checkRanges), node labels are distinct — in one pass over each
// column and without copying any. The model rules that need every τ pair or
// an O(E) hash build (non-empty timestamps, edges within endpoint lifetimes,
// distinct edges) are Validate's, which also builds the endpoints → id
// index EdgeByEndpoints reads.
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
		} else if st != nil || len(va) != T || slices.ContainsFunc(va, func(row []dict.Code) bool { return len(row) != nNodes }) {
			return nil, fmt.Errorf("core: varying attribute %q has wrong column shape", spec.Name)
		}
	}
	g := &Graph{
		tl:         c.Timeline,
		attrs:      c.Attrs,
		dicts:      c.Dicts,
		nodeLabels: c.NodeLabels,
		nodeTau:    c.NodeTau,
		edges:      c.Edges,
		edgeTau:    c.EdgeTau,
		static:     c.Static,
		varying:    c.Varying,
	}
	if err := g.checkRanges(); err != nil {
		return nil, err
	}
	if err := g.indexNodes(); err != nil {
		return nil, err
	}
	g.indexLazily()
	return g, nil
}
