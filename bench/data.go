package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dict"
	"repro/internal/server"
	"repro/internal/timeline"
)

// Stream-mode schemas handed to `graphtempod -stream`.
const (
	dblpStreamSpec     = "gender:static,publications:varying"
	contactsStreamSpec = "grade:static,class:static,contacts:varying"
)

// datasetSeed generates the datasets, whatever --seed says: a dashboard or
// an analyst asks changing questions of the same data. With the dataset tied
// to the schedule seed, a run's cost followed how many attribute groups that
// seed's DBLP happened to have, by +-10 % — more than most code changes.
const datasetSeed = 1

// dblpGraph is the static dataset of dash_hot, adhoc_scan and router_mix:
// at scale 1.0 it has 26.8k nodes, 224k edges and 21 yearly points.
func dblpGraph(scale float64) *core.Graph {
	return dataset.DBLPScaled(datasetSeed, scale)
}

// contactsGraph is the ingest_audit stream: 240 students in 24 classes
// whose ~330 daily contact edges arrive one day per ingest request (a
// ~33 KB body). The daemon's per-ingest cost grows with the accumulated
// stream, so this is the largest school whose >= 1000 days still fit the
// measured phase (see README.md, "Sizing").
func contactsGraph(days int, scale float64) *core.Graph {
	p := dataset.ContactsParams{
		Days:             days,
		Grades:           6,
		ClassesPerGrade:  4,
		StudentsPerClass: max(2, int(10*scale)),
		ContactsPerDay:   max(20, int(330*scale)),
		Homophily:        0.7,
		MitigationDay:    days / 2,
	}
	return dataset.SchoolContacts(datasetSeed, p)
}

// ingestBatches decomposes a finished graph into its per-point ingest
// requests, the inverse of the accumulation that built it. Every batch
// restates the static attributes of its nodes, which is what lets a
// time-range shard start in the middle of the timeline.
func ingestBatches(g *core.Graph) []server.IngestRequest {
	attrs := g.Attrs()
	tl := g.Timeline()
	out := make([]server.IngestRequest, tl.Len())
	for tp := range out {
		out[tp].Label = tl.Label(timeline.Time(tp))
	}
	for n := 0; n < g.NumNodes(); n++ {
		id := core.NodeID(n)
		label := g.NodeLabel(id)
		var static map[string]string
		for ai, spec := range attrs {
			if spec.Kind != core.Static {
				continue
			}
			if c := g.StaticValue(core.AttrID(ai), id); c != dict.None {
				if static == nil {
					static = map[string]string{}
				}
				static[spec.Name] = g.Dict(core.AttrID(ai)).Value(c)
			}
		}
		g.NodeTau(id).ForEach(func(tp int) {
			node := server.IngestNode{Label: label, Static: static}
			for ai, spec := range attrs {
				if spec.Kind == core.Static {
					continue
				}
				if c := g.VaryingValue(core.AttrID(ai), id, timeline.Time(tp)); c != dict.None {
					if node.Varying == nil {
						node.Varying = map[string]string{}
					}
					node.Varying[spec.Name] = g.Dict(core.AttrID(ai)).Value(c)
				}
			}
			out[tp].Nodes = append(out[tp].Nodes, node)
		})
	}
	for e := 0; e < g.NumEdges(); e++ {
		ep := g.Edge(core.EdgeID(e))
		edge := server.IngestEdge{U: g.NodeLabel(ep.U), V: g.NodeLabel(ep.V)}
		g.EdgeTau(core.EdgeID(e)).ForEach(func(tp int) {
			out[tp].Edges = append(out[tp].Edges, edge)
		})
	}
	return out
}

// ingestBodies marshals the batches once, outside every timed interval.
func ingestBodies(batches []server.IngestRequest) ([][]byte, error) {
	out := make([][]byte, len(batches))
	for i, b := range batches {
		body, err := json.Marshal(b)
		if err != nil {
			return nil, fmt.Errorf("marshal ingest batch %s: %w", b.Label, err)
		}
		out[i] = body
	}
	return out, nil
}
