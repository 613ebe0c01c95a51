package plan

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/agg"
)

// This file keeps the wire form of a shard-local partial aggregate and its
// exact merge: ALL weights sum over disjoint time pieces, DIST entity sets
// union (T-distributivity, §4.3 of the paper, applied across processes).
// Nothing in the serving tier produces or merges partials — the cluster
// router answers every read from its mirror — and bench/traced.go is the
// last caller of everything here.

// PartialGroup is one aggregate-node group of a shard-local partial
// aggregate: decoded attribute values, the local weight, and — for DIST
// partials — the distinct entity labels behind the weight.
// bench/traced.go is its last caller.
type PartialGroup struct {
	Values   []string `json:"values"`
	Weight   int64    `json:"weight"`
	Entities []string `json:"entities,omitempty"`
}

// PartialEdge is one aggregate-edge group of a partial aggregate. DIST
// partials carry the distinct (from,to) entity label pairs.
// bench/traced.go is its last caller.
type PartialEdge struct {
	From     []string   `json:"from"`
	To       []string   `json:"to"`
	Weight   int64      `json:"weight"`
	Entities [][]string `json:"entities,omitempty"`
}

// PartialResult is the wire form of a shard-local partial aggregate: groups
// sorted by decoded label, entity sets lexically.
// bench/traced.go is its last caller.
type PartialResult struct {
	Attributes []string       `json:"attributes"`
	Kind       string         `json:"kind"` // DIST or ALL
	Nodes      []PartialGroup `json:"nodes"`
	Edges      []PartialEdge  `json:"edges"`
	// Source reports how the shard derived the weights.
	Source string `json:"source,omitempty"`
}

// MergedGraph is the exact merge of per-shard partial aggregates in
// decoded-label space, groups in agg.Graph's wire order.
// bench/traced.go is its last caller.
type MergedGraph struct {
	Attributes []string
	Kind       string
	Nodes      []PartialGroup // Entities always nil
	Edges      []PartialEdge
}

// labelPair identifies one distinct edge entity by its endpoint labels.
type labelPair struct{ u, v string }

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
// partials must agree on attributes and kind, and their time pieces must
// be disjoint for ALL sums to be exact.
// bench/traced.go is its last caller.
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
	// included.
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
