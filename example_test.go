package graphtempo_test

import (
	"fmt"
	"os"

	graphtempo "repro"
)

// ExampleAggregate reproduces Fig. 3d of the paper: distinct aggregation
// of the union graph of (t0, t1) on (gender, publications).
func ExampleAggregate() {
	g := graphtempo.PaperExample()
	tl := g.Timeline()
	union := graphtempo.Union(g, tl.Point(0), tl.Point(1))
	schema, _ := graphtempo.SchemaByName(g, "gender", "publications")
	ag := graphtempo.Aggregate(union, schema, graphtempo.Distinct)
	f1, _ := schema.Encode("f", "1")
	fmt.Printf("DIST weight of (f,1): %d\n", ag.NodeWeight(f1))
	// Output:
	// DIST weight of (f,1): 3
}

// ExampleAggregateEvolution reproduces Fig. 4b: the (f,1) authors show
// one stable, one new and one vanished appearance between t0 and t1.
func ExampleAggregateEvolution() {
	g := graphtempo.PaperExample()
	tl := g.Timeline()
	schema, _ := graphtempo.SchemaByName(g, "gender", "publications")
	ev := graphtempo.AggregateEvolution(g, tl.Point(0), tl.Point(1),
		schema, graphtempo.Distinct, nil)
	f1, _ := schema.Encode("f", "1")
	w := ev.NodeWeights(f1)
	fmt.Printf("(f,1): St=%d Gr=%d Shr=%d\n", w.St, w.Gr, w.Shr)
	// Output:
	// (f,1): St=1 Gr=1 Shr=1
}

// ExampleExplorer_Explore finds the minimal interval pairs with at least
// two stable edges in the running example.
func ExampleExplorer_Explore() {
	g := graphtempo.PaperExample()
	schema, _ := graphtempo.SchemaByName(g, "gender")
	ex := &graphtempo.Explorer{
		Graph:  g,
		Schema: schema,
		Kind:   graphtempo.Distinct,
		Result: graphtempo.TotalEdges,
	}
	for _, p := range ex.Explore(graphtempo.Stability,
		graphtempo.UnionSemantics, graphtempo.ExtendNew, 2) {
		fmt.Println(p)
	}
	// Output:
	// t0 → t1 (2 events)
}

// ExampleDifference shows the asymmetry of the difference operator:
// t0 − t1 captures deletions, t1 − t0 captures additions.
func ExampleDifference() {
	g := graphtempo.PaperExample()
	tl := g.Timeline()
	gone := graphtempo.Difference(g, tl.Point(0), tl.Point(1))
	new := graphtempo.Difference(g, tl.Point(1), tl.Point(0))
	fmt.Printf("deleted edges: %d, new edges: %d\n", gone.NumEdges(), new.NumEdges())
	// Output:
	// deleted edges: 1, new edges: 1
}

// ExampleCoarsen zooms the three-point running example out to two coarse
// periods.
func ExampleCoarsen() {
	g := graphtempo.PaperExample()
	spec, _ := graphtempo.UniformGroups(g.Timeline(), 2)
	coarse, _ := graphtempo.Coarsen(g, spec)
	stats := graphtempo.ComputeStats(coarse)
	for i, label := range stats.Labels {
		fmt.Printf("%s: %d nodes, %d edges\n", label, stats.Nodes[i], stats.Edges[i])
	}
	// Output:
	// t0..t1: 4 nodes, 4 edges
	// t2: 3 nodes, 3 edges
}

// Example_quickstart runs the paper's running example (Figs. 1–4) end to
// end: it builds the 5-author collaboration graph of Fig. 1, applies each
// temporal operator, aggregates on (gender, publications), and prints the
// aggregated evolution graph of Fig. 4b.
func Example_quickstart() {
	g := graphtempo.PaperExample()
	tl := g.Timeline()

	fmt.Println("— The temporal attributed graph of Fig. 1 —")
	stats := graphtempo.ComputeStats(g)
	for i, label := range stats.Labels {
		fmt.Printf("  %s: %d nodes, %d edges\n", label, stats.Nodes[i], stats.Edges[i])
	}

	// Temporal operators (§2.1).
	union := graphtempo.Union(g, tl.Point(0), tl.Point(1))
	inter := graphtempo.Intersection(g, tl.Point(0), tl.Point(1))
	removed := graphtempo.Difference(g, tl.Point(0), tl.Point(1))
	added := graphtempo.Difference(g, tl.Point(1), tl.Point(0))
	fmt.Printf("\n— Operators on (t0, t1) —\n")
	fmt.Printf("  union:        %d nodes, %d edges (Fig. 2)\n", union.NumNodes(), union.NumEdges())
	fmt.Printf("  intersection: %d nodes, %d edges\n", inter.NumNodes(), inter.NumEdges())
	fmt.Printf("  t0 − t1:      %d nodes, %d edges (deleted)\n", removed.NumNodes(), removed.NumEdges())
	fmt.Printf("  t1 − t0:      %d nodes, %d edges (new)\n", added.NumNodes(), added.NumEdges())

	// Aggregation (§2.2). DIST counts distinct entities per tuple, ALL
	// counts every per-time-point appearance.
	schema, err := graphtempo.SchemaByName(g, "gender", "publications")
	if err != nil {
		panic(err)
	}
	fmt.Println("\n— DIST aggregation of the union graph (Fig. 3d) —")
	fmt.Print(graphtempo.Aggregate(union, schema, graphtempo.Distinct))
	fmt.Println("\n— ALL aggregation of the union graph (Fig. 3e) —")
	fmt.Print(graphtempo.Aggregate(union, schema, graphtempo.All))

	// Evolution graph aggregation (§2.3): the (f,1) authors show all
	// three behaviours between t0 and t1 — one stays (u2), one appears
	// (u4 drops from 2 publications to 1), one vanishes (u3).
	fmt.Println("\n— Aggregated evolution graph t0 → t1 (Fig. 4b) —")
	ev := graphtempo.AggregateEvolution(g, tl.Point(0), tl.Point(1),
		schema, graphtempo.Distinct, nil)
	fmt.Print(ev)

	// Exploration (§3): the smallest interval pairs with ≥ 2 stable
	// edges, aggregating on gender.
	gender, _ := graphtempo.SchemaByName(g, "gender")
	ex := &graphtempo.Explorer{
		Graph:  g,
		Schema: gender,
		Kind:   graphtempo.Distinct,
		Result: graphtempo.TotalEdges,
	}
	fmt.Println("\n— Minimal interval pairs with ≥ 2 stable edges —")
	for _, p := range ex.Explore(graphtempo.Stability, graphtempo.UnionSemantics, graphtempo.ExtendNew, 2) {
		fmt.Println("  ", p)
	}
	// Output:
	// — The temporal attributed graph of Fig. 1 —
	//   t0: 4 nodes, 3 edges
	//   t1: 3 nodes, 3 edges
	//   t2: 3 nodes, 3 edges
	//
	// — Operators on (t0, t1) —
	//   union:        4 nodes, 4 edges (Fig. 2)
	//   intersection: 3 nodes, 2 edges
	//   t0 − t1:      2 nodes, 1 edges (deleted)
	//   t1 − t0:      2 nodes, 1 edges (new)
	//
	// — DIST aggregation of the union graph (Fig. 3d) —
	// aggregate graph (DIST) on 4 tuples
	//   node (f,1) w=3
	//   node (f,2) w=1
	//   node (m,1) w=1
	//   node (m,3) w=1
	//   edge (f,1)→(f,1) w=1
	//   edge (f,1)→(f,2) w=1
	//   edge (m,1)→(f,1) w=2
	//   edge (m,3)→(f,1) w=2
	//
	// — ALL aggregation of the union graph (Fig. 3e) —
	// aggregate graph (ALL) on 4 tuples
	//   node (f,1) w=4
	//   node (f,2) w=1
	//   node (m,1) w=1
	//   node (m,3) w=1
	//   edge (f,1)→(f,1) w=1
	//   edge (f,1)→(f,2) w=1
	//   edge (m,1)→(f,1) w=2
	//   edge (m,3)→(f,1) w=2
	//
	// — Aggregated evolution graph t0 → t1 (Fig. 4b) —
	// evolution aggregate t0 → t1 (DIST)
	//   node (f,1) St=1 Gr=1 Shr=1
	//   node (f,2) St=0 Gr=0 Shr=1
	//   node (m,1) St=0 Gr=1 Shr=0
	//   node (m,3) St=0 Gr=0 Shr=1
	//   edge (f,1)→(f,1) St=0 Gr=1 Shr=0
	//   edge (f,1)→(f,2) St=0 Gr=0 Shr=1
	//   edge (m,1)→(f,1) St=0 Gr=2 Shr=0
	//   edge (m,3)→(f,1) St=0 Gr=0 Shr=2
	//
	// — Minimal interval pairs with ≥ 2 stable edges —
	//    t0 → t1 (2 events)
}

// Example_contacts is epidemic-mitigation analysis on a school
// face-to-face contact network (the paper's second motivating scenario,
// §1, after Gemmetto et al.'s influenza study). Students carry static
// "grade" and "class" attributes; contacts are homophilous (same-class
// pairs dominate) and a mitigation measure halves contact volume from a
// given day. The example aggregates contacts by grade to expose the
// homophily structure that makes targeted class closure effective,
// measures shrinkage of contacts around the mitigation day, and detects
// the remaining stable contacts — the paper's cue that further measures
// are required.
func Example_contacts() {
	params := graphtempo.DefaultContactsParams()
	g := graphtempo.SchoolContacts(42, params)
	tl := g.Timeline()

	// 1. Homophily: aggregate day 1 contacts by grade.
	grade, err := graphtempo.SchemaByName(g, "grade")
	if err != nil {
		panic(err)
	}
	ag := graphtempo.Aggregate(graphtempo.At(g, 0), grade, graphtempo.Distinct)
	fmt.Println("— Day 1 contacts aggregated by grade —")
	var within, across int64
	for _, k := range ag.SortedEdges() {
		w := ag.Edges[k]
		if k.From == k.To {
			within += w
		} else {
			across += w
		}
		fmt.Printf("  grade %s → grade %s: %d contacts\n",
			grade.Label(k.From), grade.Label(k.To), w)
	}
	fmt.Printf("  within-grade %d vs cross-grade %d → targeted class closure is viable\n",
		within, across)

	// 2. Mitigation effect: shrinkage of contacts from the pre-mitigation
	// week into each following day.
	mday := graphtempo.Time(params.MitigationDay)
	before := tl.Range(0, mday-1)
	fmt.Printf("\n— Contacts of %s missing on later days (shrinkage) —\n", before)
	for d := mday; d < graphtempo.Time(tl.Len()); d++ {
		gone := graphtempo.Difference(g, before, tl.Point(d))
		fmt.Printf("  by %s: %d contact pairs no longer seen\n", tl.Label(d), gone.NumEdges())
	}

	// 3. Stable contacts despite mitigation: pairs seen both before and
	// after the measure — these would need additional intervention.
	after := tl.Range(mday, graphtempo.Time(tl.Len()-1))
	stable := graphtempo.Intersection(g, before, after)
	fmt.Printf("\n— Contacts persisting across the mitigation day: %d pairs —\n", stable.NumEdges())
	evolution := graphtempo.AggregateEvolution(g, before, after, grade, graphtempo.Distinct, nil)
	for _, k := range evolution.SortedEdges() {
		w := evolution.Edges[k]
		if w.St > 0 {
			fmt.Printf("  grade %s → grade %s: %d stable contact pairs (%d gone, %d new)\n",
				grade.Label(k.From), grade.Label(k.To), w.St, w.Shr, w.Gr)
		}
	}

	// Exploration: the first day pair where at least k contacts vanish —
	// does it coincide with the mitigation day?
	ex := &graphtempo.Explorer{
		Graph:  g,
		Schema: grade,
		Kind:   graphtempo.Distinct,
		Result: graphtempo.TotalEdges,
	}
	_, wth := ex.InitK(graphtempo.Shrinkage)
	pairs := ex.Explore(graphtempo.Shrinkage, graphtempo.UnionSemantics, graphtempo.ExtendOld, wth)
	fmt.Printf("\n— Day pairs with maximal contact shrinkage (k=%d) —\n", wth)
	for _, p := range pairs {
		fmt.Println("  ", p)
	}
	// Output:
	// — Day 1 contacts aggregated by grade —
	//   grade 1 → grade 1: 141 contacts
	//   grade 1 → grade 2: 28 contacts
	//   grade 1 → grade 3: 21 contacts
	//   grade 2 → grade 1: 27 contacts
	//   grade 2 → grade 2: 147 contacts
	//   grade 2 → grade 3: 25 contacts
	//   grade 3 → grade 1: 26 contacts
	//   grade 3 → grade 2: 23 contacts
	//   grade 3 → grade 3: 162 contacts
	//   within-grade 450 vs cross-grade 150 → targeted class closure is viable
	//
	// — Contacts of [day1,day6] missing on later days (shrinkage) —
	//   by day7: 2432 contact pairs no longer seen
	//   by day8: 2432 contact pairs no longer seen
	//   by day9: 2448 contact pairs no longer seen
	//   by day10: 2446 contact pairs no longer seen
	//
	// — Contacts persisting across the mitigation day: 560 pairs —
	//   grade 1 → grade 1: 164 stable contact pairs (412 gone, 101 new)
	//   grade 1 → grade 2: 2 stable contact pairs (130 gone, 39 new)
	//   grade 1 → grade 3: 5 stable contact pairs (136 gone, 35 new)
	//   grade 2 → grade 1: 9 stable contact pairs (113 gone, 45 new)
	//   grade 2 → grade 2: 184 stable contact pairs (427 gone, 92 new)
	//   grade 2 → grade 3: 5 stable contact pairs (125 gone, 36 new)
	//   grade 3 → grade 1: 1 stable contact pairs (144 gone, 28 new)
	//   grade 3 → grade 2: 4 stable contact pairs (130 gone, 46 new)
	//   grade 3 → grade 3: 186 stable contact pairs (425 gone, 100 new)
	//
	// — Day pairs with maximal contact shrinkage (k=553) —
	//    [day1,day2] → day3 (944 events)
	//    [day2,day3] → day4 (959 events)
	//    [day3,day4] → day5 (958 events)
	//    [day4,day5] → day6 (964 events)
	//    day6 → day7 (553 events)
	//    [day6,day7] → day8 (794 events)
	//    [day6,day8] → day9 (1014 events)
	//    [day7,day9] → day10 (782 events)
}

// Example_streaming ingests an evolving graph one time point at a time,
// the interactive setting the paper's conclusion envisions. A small
// "deployments" network arrives month by month: services (nodes, with a
// static team and a time-varying load bucket) and call edges. The example
// answers a window query from a materialization catalog's per-month
// aggregates (T-distributive reuse, §4.3), then runs an evolution analysis
// and draws it as Graphviz DOT.
func Example_streaming() {
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
		fmt.Printf("ingested %s (%d services, %d calls)\n", m.label, len(m.snap.Nodes), len(m.snap.Edges))
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
	window, source, err := cat.UnionAll(tl.All(), team.Attrs()...)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\n— Service-month appearances per team, whole window (%s) —\n", source)
	for _, tu := range window.SortedNodes() {
		fmt.Printf("  %s: %d\n", team.Label(tu), window.Nodes[tu])
	}
	fmt.Println("— Call-month appearances per team pair —")
	for _, k := range window.SortedEdges() {
		fmt.Printf("  (%s)→(%s): %d\n", team.Label(k.From), team.Label(k.To), window.Edges[k])
	}

	ev := graphtempo.AggregateEvolution(g, tl.Range(0, 1), tl.Point(2), team, graphtempo.Distinct, nil)
	fmt.Println("\n— Evolution jan..feb → mar, aggregated by team —")
	fmt.Print(ev)
	fmt.Println("\n— Same, as Graphviz DOT —")
	if err := graphtempo.WriteEvolutionDOT(os.Stdout, ev); err != nil {
		panic(err)
	}
	// Output:
	// ingested jan (3 services, 2 calls)
	// ingested feb (4 services, 3 calls)
	// ingested mar (4 services, 3 calls)
	//
	// — Service-month appearances per team, whole window (t-distributive) —
	//   core: 6
	//   data: 1
	//   payments: 4
	// — Call-month appearances per team pair —
	//   (core)→(core): 3
	//   (core)→(payments): 3
	//   (payments)→(data): 1
	//   (payments)→(payments): 1
	//
	// — Evolution jan..feb → mar, aggregated by team —
	// evolution aggregate [jan,feb] → mar (DIST)
	//   node (core) St=2 Gr=0 Shr=0
	//   node (data) St=0 Gr=1 Shr=0
	//   node (payments) St=1 Gr=0 Shr=1
	//   edge (core)→(core) St=1 Gr=0 Shr=0
	//   edge (core)→(payments) St=0 Gr=1 Shr=1
	//   edge (payments)→(data) St=0 Gr=1 Shr=0
	//   edge (payments)→(payments) St=0 Gr=0 Shr=1
	//
	// — Same, as Graphviz DOT —
	// digraph evolution {
	//   graph [label="evolution [jan,feb] → mar (DIST)", rankdir=LR];
	//   node [shape=circle];
	//   "core" [label="core\nSt=2", color=black];
	//   "data" [label="data\nGr=1", color=forestgreen];
	//   "payments" [label="payments\nSt=1 Shr=1", color=black];
	//   "core" -> "core" [label="St=1", color=black];
	//   "core" -> "payments" [label="Gr=1 Shr=1", color=forestgreen];
	//   "payments" -> "data" [label="Gr=1", color=forestgreen];
	//   "payments" -> "payments" [label="Shr=1", color=red3];
	// }
}

// Example_ratings aggregates a MovieLens-style co-rating network on
// several attributes and reuses materialized per-month aggregates (§4.3):
// the union ALL aggregate over the whole timeline is composed from the
// per-month store (T-distributive) and equals the one computed from
// scratch, and a gender aggregate is rolled up from the 4-attribute one
// (D-distributive). It prints the work each side does, not its time.
func Example_ratings() {
	g := graphtempo.MovieLensScaled(1, 0.01)
	tl := g.Timeline()

	ga, err := graphtempo.SchemaByName(g, "gender", "age")
	if err != nil {
		panic(err)
	}
	aug, _ := tl.TimeOf("Aug")
	agAug := graphtempo.Aggregate(graphtempo.At(g, aug), ga, graphtempo.Distinct)
	fmt.Println("— August, aggregated on (gender, age) —")
	for _, tu := range agAug.SortedNodes() {
		fmt.Printf("  (%s): %d users\n", ga.Label(tu), agAug.Nodes[tu])
	}

	full, err := graphtempo.SchemaByName(g, "gender", "age", "occupation", "rating")
	if err != nil {
		panic(err)
	}
	store := graphtempo.NewMatStore(g, full)
	whole := tl.All()
	view := graphtempo.Union(g, whole, whole)
	scratch := graphtempo.Aggregate(view, full, graphtempo.All)
	composed := store.UnionAll(whole)
	fmt.Printf("\n— Union ALL over %s on all four attributes —\n", whole)
	fmt.Printf("  composed from the per-month store equals scratch: %v\n", composed.Equal(scratch))
	// The work each side does: scratch reads every appearance of every
	// entity in the union view (ALL's total weight); the store reads its
	// per-month groups. On four attributes almost every appearance is a
	// group of its own, so the store saves the scan of the graph, not the
	// count; the one-attribute stores of Fig. 10 compose far fewer groups
	// than scratch scans (internal/benchutil's TestFig10WorkShape).
	var appearances int64
	for _, w := range scratch.Nodes {
		appearances += w
	}
	for _, w := range scratch.Edges {
		appearances += w
	}
	fmt.Printf("  scratch scanned %d entities (%d appearances); the store composed %d groups\n",
		view.NumNodes()+view.NumEdges(), appearances, len(composed.Nodes)+len(composed.Edges))

	rolled, err := store.PointSubset(aug, g.MustAttr("gender"))
	if err != nil {
		panic(err)
	}
	fmt.Println("\n— August gender aggregate rolled up from the 4-attribute store —")
	for _, tu := range rolled.SortedNodes() {
		fmt.Printf("  %s: %d rating appearances\n", rolled.Schema.Label(tu), rolled.Nodes[tu])
	}
	// Output:
	// — August, aggregated on (gender, age) —
	//   (F,25-34): 1 users
	//   (F,56+): 1 users
	//   (M,18-24): 2 users
	//   (M,25-34): 2 users
	//   (M,35-44): 2 users
	//   (M,45-55): 2 users
	//   (M,56+): 2 users
	//   (M,<18): 1 users
	//
	// — Union ALL over [May,Oct] on all four attributes —
	//   composed from the per-month store equals scratch: true
	//   scratch scanned 331 entities (489 appearances); the store composed 489 groups
	//
	// — August gender aggregate rolled up from the 4-attribute store —
	//   F: 2 rating appearances
	//   M: 11 rating appearances
}
