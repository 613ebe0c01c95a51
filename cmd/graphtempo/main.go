// Command graphtempo is a CLI for the GraphTempo temporal graph
// aggregation framework.
//
// Subcommands:
//
//	stats      per-time-point node/edge counts of a graph
//	agg        temporal operator + attribute aggregation (text or JSON)
//	evolution  aggregated evolution graph (stability/growth/shrinkage)
//	explore    minimal/maximal interval pairs with ≥ k events
//	coarsen    zoom out on the time axis (e.g. years → 5-year periods)
//	query      execute TGQL statements (one-shot with -q, or a REPL)
//	timeline   step-by-step evolution profile across the whole time axis
//
// Every subcommand selects its input graph the same way:
//
//	-data DIR           load a graph from a CSV directory (see gtgen)
//	-dataset NAME       built-in synthetic dataset: example, dblp,
//	                    movielens, contacts
//	-scale F -seed N    size factor and seed for synthetic datasets
//
// Examples:
//
//	graphtempo stats -dataset dblp -scale 0.1
//	graphtempo agg -dataset example -op union -t1 t0 -t2 t1 \
//	    -attrs gender,publications -kind dist
//	graphtempo evolution -dataset example -old t0 -new t1 -attrs gender
//	graphtempo explore -dataset dblp -scale 0.1 -attrs gender \
//	    -event stability -semantics intersection -extend new -k 10 \
//	    -edge f,f
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/agg"
	"repro/internal/benchutil"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dot"
	"repro/internal/evolution"
	"repro/internal/explore"
	"repro/internal/ops"
	"repro/internal/timeline"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "stats":
		err = cmdStats(os.Args[2:])
	case "agg":
		err = cmdAgg(os.Args[2:])
	case "evolution":
		err = cmdEvolution(os.Args[2:])
	case "explore":
		err = cmdExplore(os.Args[2:])
	case "coarsen":
		err = cmdCoarsen(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "timeline":
		err = cmdTimeline(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphtempo:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: graphtempo <stats|agg|evolution|explore|coarsen|query|timeline> [flags]
run "graphtempo <subcommand> -h" for flags`)
}

// graphFlags adds the shared input-selection flags to a FlagSet.
type graphFlags struct {
	data    *string
	dataset *string
	scale   *float64
	seed    *int64
}

func addGraphFlags(fs *flag.FlagSet) graphFlags {
	return graphFlags{
		data:    fs.String("data", "", "CSV directory to load the graph from"),
		dataset: fs.String("dataset", "", "built-in dataset: example, dblp, movielens, contacts"),
		scale:   fs.Float64("scale", 1.0, "size factor for synthetic datasets"),
		seed:    fs.Int64("seed", 1, "seed for synthetic datasets"),
	}
}

func (gf graphFlags) load() (*core.Graph, error) {
	if *gf.data != "" {
		return core.ReadDir(*gf.data)
	}
	switch *gf.dataset {
	case "example":
		return core.PaperExample(), nil
	case "dblp":
		return dataset.DBLPScaled(*gf.seed, *gf.scale), nil
	case "movielens":
		return dataset.MovieLensScaled(*gf.seed, *gf.scale), nil
	case "contacts":
		return dataset.SchoolContacts(*gf.seed, dataset.DefaultContactsParams()), nil
	case "":
		return nil, fmt.Errorf("one of -data or -dataset is required")
	default:
		return nil, fmt.Errorf("unknown dataset %q", *gf.dataset)
	}
}

// parseInterval turns "t0" or "t0..t2" into an interval on g's timeline.
func parseInterval(g *core.Graph, s string) (timeline.Interval, error) {
	tl := g.Timeline()
	if s == "" {
		return timeline.Interval{}, fmt.Errorf("empty interval")
	}
	if from, to, ok := strings.Cut(s, ".."); ok {
		f, okF := tl.TimeOf(from)
		t, okT := tl.TimeOf(to)
		if !okF || !okT {
			return timeline.Interval{}, fmt.Errorf("unknown time point in %q", s)
		}
		if f > t {
			return timeline.Interval{}, fmt.Errorf("interval %q runs backwards", s)
		}
		return tl.Range(f, t), nil
	}
	t, ok := tl.TimeOf(s)
	if !ok {
		return timeline.Interval{}, fmt.Errorf("unknown time point %q", s)
	}
	return tl.Point(t), nil
}

func parseSchema(g *core.Graph, attrs string) (*agg.Schema, error) {
	if attrs == "" {
		return nil, fmt.Errorf("-attrs is required (comma-separated attribute names)")
	}
	return agg.ByName(g, strings.Split(attrs, ",")...)
}

func parseKind(kind string) (agg.Kind, error) {
	switch strings.ToLower(kind) {
	case "dist", "distinct":
		return agg.Distinct, nil
	case "all":
		return agg.All, nil
	default:
		return 0, fmt.Errorf("unknown aggregation kind %q (want dist or all)", kind)
	}
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	gf := addGraphFlags(fs)
	fs.Parse(args)
	g, err := gf.load()
	if err != nil {
		return err
	}
	benchutil.StatsTable("stats", "nodes and edges per time point", g).Print(os.Stdout)
	return nil
}

func cmdAgg(args []string) error {
	fs := flag.NewFlagSet("agg", flag.ExitOnError)
	gf := addGraphFlags(fs)
	op := fs.String("op", "project", "temporal operator: project, union, intersection, difference")
	t1 := fs.String("t1", "", "first interval, e.g. 2000 or 2000..2005")
	t2 := fs.String("t2", "", "second interval (unused for project)")
	attrs := fs.String("attrs", "", "aggregation attributes, comma-separated")
	kindFlag := fs.String("kind", "dist", "aggregation kind: dist or all")
	format := fs.String("format", "text", "output format: text, json or dot")
	measureAttr := fs.String("measure", "", "numeric attribute to measure instead of counting")
	measureFn := fs.String("fn", "avg", "measure function: sum, avg, min, max")
	fs.Parse(args)

	g, err := gf.load()
	if err != nil {
		return err
	}
	s, err := parseSchema(g, *attrs)
	if err != nil {
		return err
	}
	kind, err := parseKind(*kindFlag)
	if err != nil {
		return err
	}
	iv1, err := parseInterval(g, *t1)
	if err != nil {
		return fmt.Errorf("-t1: %w", err)
	}
	view, err := applyOp(g, *op, iv1, *t2)
	if err != nil {
		return err
	}
	if *measureAttr != "" {
		a, ok := g.AttrByName(*measureAttr)
		if !ok {
			return fmt.Errorf("unknown attribute %q", *measureAttr)
		}
		var m agg.Measure
		switch strings.ToLower(*measureFn) {
		case "sum":
			m = agg.Sum
		case "avg":
			m = agg.Avg
		case "min":
			m = agg.Min
		case "max":
			m = agg.Max
		default:
			return fmt.Errorf("unknown measure function %q", *measureFn)
		}
		mg, err := agg.AggregateMeasure(view, s, a, m)
		if err != nil {
			return err
		}
		fmt.Print(mg)
		return nil
	}
	result := agg.Aggregate(view, s, kind)
	switch *format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(result)
	case "dot":
		return dot.WriteAggregate(os.Stdout, result)
	}
	fmt.Printf("%s on %s: %d nodes, %d edges\n", *op, view.Times(), view.NumNodes(), view.NumEdges())
	fmt.Print(result)
	return nil
}

func cmdCoarsen(args []string) error {
	fs := flag.NewFlagSet("coarsen", flag.ExitOnError)
	gf := addGraphFlags(fs)
	width := fs.Int("width", 2, "base time points per coarse point")
	out := fs.String("out", "", "write the coarse graph to this CSV directory")
	fs.Parse(args)

	g, err := gf.load()
	if err != nil {
		return err
	}
	spec, err := core.UniformGroups(g.Timeline(), *width)
	if err != nil {
		return err
	}
	c, err := core.Coarsen(g, spec)
	if err != nil {
		return err
	}
	benchutil.StatsTable("coarsened", fmt.Sprintf("zoomed out ×%d", *width), c).Print(os.Stdout)
	if *out != "" {
		if err := core.WriteDir(c, *out); err != nil {
			return err
		}
		fmt.Printf("wrote coarse graph to %s\n", *out)
	}
	return nil
}

func applyOp(g *core.Graph, op string, iv1 timeline.Interval, t2 string) (*ops.View, error) {
	switch op {
	case "project":
		return ops.Project(g, iv1), nil
	case "union", "intersection", "difference":
		if t2 == "" {
			return nil, fmt.Errorf("-t2 is required for %s", op)
		}
		iv2, err := parseInterval(g, t2)
		if err != nil {
			return nil, fmt.Errorf("-t2: %w", err)
		}
		switch op {
		case "union":
			return ops.Union(g, iv1, iv2), nil
		case "intersection":
			return ops.Intersection(g, iv1, iv2), nil
		default:
			return ops.Difference(g, iv1, iv2), nil
		}
	default:
		return nil, fmt.Errorf("unknown operator %q", op)
	}
}

func cmdEvolution(args []string) error {
	fs := flag.NewFlagSet("evolution", flag.ExitOnError)
	gf := addGraphFlags(fs)
	old := fs.String("old", "", "old interval, e.g. 2000..2009")
	new := fs.String("new", "", "new interval, e.g. 2010")
	attrs := fs.String("attrs", "", "aggregation attributes, comma-separated")
	kindFlag := fs.String("kind", "dist", "aggregation kind: dist or all")
	format := fs.String("format", "text", "output format: text, json or dot")
	fs.Parse(args)

	g, err := gf.load()
	if err != nil {
		return err
	}
	s, err := parseSchema(g, *attrs)
	if err != nil {
		return err
	}
	kind, err := parseKind(*kindFlag)
	if err != nil {
		return err
	}
	ivOld, err := parseInterval(g, *old)
	if err != nil {
		return fmt.Errorf("-old: %w", err)
	}
	ivNew, err := parseInterval(g, *new)
	if err != nil {
		return fmt.Errorf("-new: %w", err)
	}
	result := evolution.Aggregate(g, ivOld, ivNew, s, kind, nil)
	switch *format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(result)
	case "dot":
		return dot.WriteEvolution(os.Stdout, result)
	}
	fmt.Print(result)
	return nil
}

func cmdExplore(args []string) error {
	fs := flag.NewFlagSet("explore", flag.ExitOnError)
	gf := addGraphFlags(fs)
	attrs := fs.String("attrs", "", "aggregation attributes, comma-separated")
	event := fs.String("event", "stability", "event type: stability, growth, shrinkage")
	semantics := fs.String("semantics", "union", "union (minimal pairs) or intersection (maximal pairs)")
	extend := fs.String("extend", "new", "which side to extend: old or new")
	k := fs.Int64("k", 0, "event threshold (0 = auto from the §3.5 initialization)")
	edge := fs.String("edge", "", "count one aggregate edge, e.g. f,f (from,to on single-attribute schemas)")
	node := fs.String("node", "", "count one aggregate node tuple, e.g. f")
	tune := fs.Int("tune", 0, "instead of a fixed k, find the largest k yielding at least this many pairs")
	fs.Parse(args)

	g, err := gf.load()
	if err != nil {
		return err
	}
	s, err := parseSchema(g, *attrs)
	if err != nil {
		return err
	}
	ex := &explore.Explorer{Graph: g, Schema: s, Kind: agg.Distinct, Result: explore.TotalEdges}
	switch {
	case *edge != "":
		parts := strings.Split(*edge, ",")
		if len(parts) != 2*len(s.Attrs()) {
			return fmt.Errorf("-edge wants %d values (from,to tuples)", 2*len(s.Attrs()))
		}
		half := len(parts) / 2
		fn, err := explore.EdgeTuple(s, parts[:half], parts[half:])
		if err != nil {
			return err
		}
		ex.Result = fn
	case *node != "":
		fn, err := explore.NodeTuple(s, strings.Split(*node, ",")...)
		if err != nil {
			return err
		}
		ex.Result = fn
	}

	var ev explore.Event
	switch *event {
	case "stability":
		ev = evolution.Stability
	case "growth":
		ev = evolution.Growth
	case "shrinkage":
		ev = evolution.Shrinkage
	default:
		return fmt.Errorf("unknown event %q", *event)
	}
	var sem explore.Semantics
	switch *semantics {
	case "union":
		sem = explore.UnionSemantics
	case "intersection":
		sem = explore.IntersectionSemantics
	default:
		return fmt.Errorf("unknown semantics %q", *semantics)
	}
	var ext explore.Extend
	switch *extend {
	case "old":
		ext = explore.ExtendOld
	case "new":
		ext = explore.ExtendNew
	default:
		return fmt.Errorf("unknown extension side %q", *extend)
	}

	var kk int64
	var pairs []explore.Pair
	if *tune > 0 {
		kk, pairs = ex.TuneK(ev, sem, ext, *tune)
		if kk == 0 {
			fmt.Printf("no threshold yields %d pairs\n", *tune)
			return nil
		}
		fmt.Printf("tuned threshold k=%d (largest with ≥ %d pairs)\n", kk, *tune)
		printExplorePairs(*event, *semantics, *extend, kk, pairs, ex.Evaluations)
		return nil
	}
	kk = *k
	if kk <= 0 {
		min, max := ex.InitK(ev)
		if sem == explore.UnionSemantics {
			kk = max
		} else {
			kk = min
		}
		if kk < 1 {
			kk = 1
		}
		fmt.Printf("auto threshold k=%d (w_th from §3.5: min=%d max=%d)\n", kk, min, max)
	}
	pairs = ex.Explore(ev, sem, ext, kk)
	printExplorePairs(*event, *semantics, *extend, kk, pairs, ex.Evaluations)
	return nil
}

func printExplorePairs(event, semantics, extend string, k int64, pairs []explore.Pair, evals int) {
	fmt.Printf("%s, %s semantics, extending %s, k=%d: %d pair(s), %d evaluations\n",
		event, semantics, extend, k, len(pairs), evals)
	for _, p := range pairs {
		fmt.Println("  ", p)
	}
}
