// Streaming: ingest an evolving graph one time point at a time and keep
// aggregates fresh incrementally — the interactive setting the paper's
// conclusion envisions.
//
// A small "deployments" network arrives month by month: services (nodes,
// with a static team and a time-varying load bucket) and call edges. The
// program appends snapshots, materializes the full temporal graph, answers
// a window query from a materialization catalog's per-month aggregates
// (T-distributive reuse, §4.3), and finally runs an evolution analysis and
// emits a DOT drawing.
//
// Run with: go run ./examples/streaming
package main

import (
	"fmt"
	"os"

	graphtempo "repro"
)

func main() {
	series := graphtempo.NewStreamSeries(
		graphtempo.AttrSpec{Name: "team", Kind: graphtempo.Static},
		graphtempo.AttrSpec{Name: "load", Kind: graphtempo.TimeVarying},
	)
	node := func(name, team, load string) graphtempo.StreamNode {
		return graphtempo.StreamNode{
			Label:   name,
			Static:  map[string]string{"team": team},
			Varying: map[string]string{"load": load},
		}
	}
	months := []struct {
		label string
		snap  graphtempo.StreamSnapshot
	}{
		{"jan", graphtempo.StreamSnapshot{
			Nodes: []graphtempo.StreamNode{
				node("api", "core", "high"), node("auth", "core", "mid"),
				node("billing", "payments", "low"),
			},
			Edges: []graphtempo.StreamEdge{{U: "api", V: "auth"}, {U: "api", V: "billing"}},
		}},
		{"feb", graphtempo.StreamSnapshot{
			Nodes: []graphtempo.StreamNode{
				node("api", "core", "high"), node("auth", "core", "high"),
				node("billing", "payments", "mid"), node("ledger", "payments", "low"),
			},
			Edges: []graphtempo.StreamEdge{
				{U: "api", V: "auth"}, {U: "api", V: "billing"}, {U: "billing", V: "ledger"},
			},
		}},
		{"mar", graphtempo.StreamSnapshot{
			Nodes: []graphtempo.StreamNode{
				node("api", "core", "high"), node("auth", "core", "mid"),
				node("ledger", "payments", "mid"), node("report", "data", "low"),
			},
			Edges: []graphtempo.StreamEdge{
				{U: "api", V: "auth"}, {U: "api", V: "ledger"}, {U: "ledger", V: "report"},
			},
		}},
	}
	for _, m := range months {
		if err := series.Append(m.label, m.snap); err != nil {
			panic(err)
		}
		fmt.Printf("ingested %s (%d services, %d calls)\n",
			m.label, len(m.snap.Nodes), len(m.snap.Edges))
	}

	g, err := series.Graph()
	if err != nil {
		panic(err)
	}
	tl := g.Timeline()
	team, err := graphtempo.SchemaByName(g, "team")
	if err != nil {
		panic(err)
	}

	// A window query answered from the catalog's per-month aggregates alone.
	cat := graphtempo.NewMatCatalog(g)
	if _, err := cat.Materialize(team.Attrs()...); err != nil {
		panic(err)
	}
	window, _, err := cat.UnionAll(tl.All(), team.Attrs()...)
	if err != nil {
		panic(err)
	}
	fmt.Println("\n— Service-month appearances per team, whole window —")
	for tuple, w := range window.Nodes {
		fmt.Printf("  %s: %d\n", team.Label(tuple), w)
	}
	fmt.Println("— Call-month appearances per team pair —")
	for pair, w := range window.Edges {
		fmt.Printf("  (%s)→(%s): %d\n", team.Label(pair.From), team.Label(pair.To), w)
	}

	ev := graphtempo.AggregateEvolution(g, tl.Range(0, 1), tl.Point(2),
		team, graphtempo.Distinct, nil)
	fmt.Println("\n— Evolution jan..feb → mar, aggregated by team —")
	fmt.Print(ev)

	fmt.Println("\n— Same, as Graphviz DOT —")
	if err := graphtempo.WriteEvolutionDOT(os.Stdout, ev); err != nil {
		panic(err)
	}
}
