package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/agg"
	"repro/internal/evolution"
	"repro/internal/tgql"
)

// cmdTimeline prints the step-by-step evolution profile of the graph: per
// consecutive time-point pair, the node and edge totals of stability,
// growth and shrinkage — the whole-axis version of the Fig. 12 analysis.
func cmdTimeline(args []string) error {
	fs := flag.NewFlagSet("timeline", flag.ExitOnError)
	gf := addGraphFlags(fs)
	attrs := fs.String("attrs", "", "aggregation attributes, comma-separated")
	where := fs.String("where", "", "appearance filter, e.g. \"publications > 4\"")
	fs.Parse(args)

	g, err := gf.load()
	if err != nil {
		return err
	}
	s, err := parseSchema(g, *attrs)
	if err != nil {
		return err
	}
	var filter agg.Filter
	if *where != "" {
		filter, err = tgql.ParseFilter(g, *where)
		if err != nil {
			return err
		}
	}
	steps := evolution.Timeline(g, s, agg.Distinct, evolution.Filter(filter))
	tb := &tgql.Table{
		ID: "timeline", Title: "evolution per consecutive time-point pair",
		Header: []string{"step", "nodes St", "nodes Gr", "nodes Shr", "edges St", "edges Gr", "edges Shr"},
	}
	tl := g.Timeline()
	for _, st := range steps {
		tb.Add(tl.Label(st.Old)+"→"+tl.Label(st.New),
			fmt.Sprintf("%d", st.NodeSt), fmt.Sprintf("%d", st.NodeGr), fmt.Sprintf("%d", st.NodeShr),
			fmt.Sprintf("%d", st.EdgeSt), fmt.Sprintf("%d", st.EdgeGr), fmt.Sprintf("%d", st.EdgeShr))
	}
	tb.Print(os.Stdout)
	return nil
}
