package evolution

import "encoding/json"

type jsonWeights struct {
	Stability int64 `json:"stability"`
	Growth    int64 `json:"growth"`
	Shrinkage int64 `json:"shrinkage"`
}

type jsonNode struct {
	Values  []string    `json:"values"`
	Weights jsonWeights `json:"weights"`
}

type jsonEdge struct {
	From    []string    `json:"from"`
	To      []string    `json:"to"`
	Weights jsonWeights `json:"weights"`
}

type jsonAgg struct {
	Attributes []string   `json:"attributes"`
	Kind       string     `json:"kind"`
	Old        string     `json:"old"`
	New        string     `json:"new"`
	Nodes      []jsonNode `json:"nodes"`
	Edges      []jsonEdge `json:"edges"`
}

// MarshalJSON renders the aggregated evolution graph with decoded
// attribute values and (stability, growth, shrinkage) weight triples,
// sorted by label for deterministic output.
func (a *Agg) MarshalJSON() ([]byte, error) {
	out := jsonAgg{Attributes: a.Schema.AttrNames(), Kind: a.Kind.String(), Old: a.Old.String(), New: a.New.String()}
	toJSON := func(w Weights) jsonWeights {
		return jsonWeights{Stability: w.St, Growth: w.Gr, Shrinkage: w.Shr}
	}
	for _, tu := range a.SortedNodes() {
		out.Nodes = append(out.Nodes, jsonNode{Values: a.Schema.Decode(tu), Weights: toJSON(a.Nodes[tu])})
	}
	for _, k := range a.SortedEdges() {
		out.Edges = append(out.Edges, jsonEdge{
			From:    a.Schema.Decode(k.From),
			To:      a.Schema.Decode(k.To),
			Weights: toJSON(a.Edges[k]),
		})
	}
	return json.Marshal(out)
}
