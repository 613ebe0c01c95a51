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
	// NodeTauVec/EdgeTauVec optionally carry pre-chosen compressed forms
	// (nil entries mean dense); when set, the lazy compression scan is
	// skipped entirely.
	NodeTauVec []bitset.Vector
	EdgeTauVec []bitset.Vector
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
	if (c.NodeTauVec != nil && len(c.NodeTauVec) != nNodes) ||
		(c.EdgeTauVec != nil && len(c.EdgeTauVec) != nEdges) {
		return nil, fmt.Errorf("core: pre-compressed tau vector count mismatch")
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
		preNodeVec: c.NodeTauVec,
		preEdgeVec: c.EdgeTauVec,
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

// TauStats summarizes the outcome of the per-vector density heuristic over
// a graph's timestamps.
type TauStats struct {
	Vectors         int   // node + edge timestamps
	Compressed      int   // vectors stored run-length compressed
	Runs            int   // total runs across compressed vectors
	DenseBytes      int64 // dense word bytes across all vectors
	CompressedBytes int64 // actual bytes: run payloads + dense words kept
}

// Ratio returns CompressedBytes/DenseBytes — 1 means compression bought
// nothing, small values mean run-dominated timestamps.
func (s TauStats) Ratio() float64 {
	if s.DenseBytes == 0 {
		return 1
	}
	return float64(s.CompressedBytes) / float64(s.DenseBytes)
}

// NodeTauVec returns τu(n) in the representation the density heuristic
// chose: the dense set itself, or its run-length form for run-dominated
// vectors. The first call triggers one O(V+E) selection scan (skipped for
// accumulator snapshots, which are rebuilt per ingest batch, and for
// graphs loaded with pre-compressed forms).
func (g *Graph) NodeTauVec(n NodeID) bitset.Vector {
	g.vecOnce.Do(g.buildTauVecs)
	if g.nodeVec == nil {
		return g.nodeTau[n]
	}
	return g.nodeVec[n]
}

// EdgeTauVec is NodeTauVec for edge timestamps.
func (g *Graph) EdgeTauVec(e EdgeID) bitset.Vector {
	g.vecOnce.Do(g.buildTauVecs)
	if g.edgeVec == nil {
		return g.edgeTau[e]
	}
	return g.edgeVec[e]
}

// TauStats reports the density-heuristic outcome if the selection scan has
// run (it is forced here — callers that must not pay the scan should use
// TauStatsIfBuilt).
func (g *Graph) TauStats() TauStats {
	g.vecOnce.Do(g.buildTauVecs)
	return g.tauStats
}

// TauStatsIfBuilt returns the stats only when a previous
// NodeTauVec/EdgeTauVec/TauStats call already ran the selection scan; the
// planner's feedback hook uses it to observe run ratios for free.
func (g *Graph) TauStatsIfBuilt() (TauStats, bool) {
	if !g.vecBuilt.Load() {
		return TauStats{}, false
	}
	return g.tauStats, true
}

func (g *Graph) buildTauVecs() {
	defer g.vecBuilt.Store(true)
	stats := TauStats{Vectors: len(g.nodeTau) + len(g.edgeTau)}
	words := int64((g.tl.Len() + 63) / 64 * 8)
	stats.DenseBytes = words * int64(stats.Vectors)
	stats.CompressedBytes = stats.DenseBytes
	// Accumulator snapshots are superseded on every ingest batch; paying a
	// compression scan per batch would burn the freshness budget PR 6
	// bought, so they always serve dense.
	if g.shared != nil {
		g.tauStats = stats
		return
	}
	if g.preNodeVec != nil || g.preEdgeVec != nil {
		g.nodeVec = materializeVecs(g.preNodeVec, g.nodeTau, &stats)
		g.edgeVec = materializeVecs(g.preEdgeVec, g.edgeTau, &stats)
		g.preNodeVec, g.preEdgeVec = nil, nil
		g.tauStats = stats
		return
	}
	g.nodeVec = compressVecs(g.nodeTau, &stats)
	g.edgeVec = compressVecs(g.edgeTau, &stats)
	if stats.Compressed == 0 {
		g.nodeVec, g.edgeVec = nil, nil
	}
	g.tauStats = stats
}

func compressVecs(taus []*bitset.Set, stats *TauStats) []bitset.Vector {
	vecs := make([]bitset.Vector, len(taus))
	for i, tau := range taus {
		if r := bitset.Compress(tau, tau.Len()); r != nil {
			vecs[i] = r
			stats.Compressed++
			stats.Runs += r.NumRuns()
			stats.CompressedBytes += int64(r.SizeBytes()) - int64(tau.NumWords()*8)
		} else {
			vecs[i] = tau
		}
	}
	return vecs
}

// materializeVecs adopts reader-supplied compressed forms (nil = dense).
func materializeVecs(pre []bitset.Vector, taus []*bitset.Set, stats *TauStats) []bitset.Vector {
	vecs := make([]bitset.Vector, len(taus))
	for i, tau := range taus {
		var v bitset.Vector
		if pre != nil {
			v = pre[i]
		}
		if v == nil {
			vecs[i] = tau
			continue
		}
		vecs[i] = v
		if r, ok := v.(*bitset.Runs); ok {
			stats.Compressed++
			stats.Runs += r.NumRuns()
			stats.CompressedBytes += int64(r.SizeBytes()) - int64(tau.NumWords()*8)
		}
	}
	return vecs
}
