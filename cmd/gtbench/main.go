// Command gtbench regenerates every table and figure of the GraphTempo
// paper's evaluation (§5) on the synthetic datasets.
//
// Usage:
//
//	gtbench -all                     # run everything at full Table 3/4 scale
//	gtbench -scale 0.1 -all          # scaled-down quick run
//	gtbench -run fig10,fig13         # selected experiments
//	gtbench -all -json               # one JSON object per result (JSON lines)
//	gtbench -list                    # list experiment ids
//
// Output is plain text: one aligned table per experiment, in paper order
// (one JSON object per result with -json). Timings are wall clock on the
// machine that runs it; the reproduction target is the shape of each
// curve (who wins, by what factor, where crossovers fall), not the
// paper's absolute milliseconds.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/benchutil"
	"repro/internal/core"
	"repro/internal/dataset"
)

type experiment struct {
	id    string
	about string
	make  func(env *environment) []benchutil.Printable
}

// environment lazily builds the datasets once per run.
type environment struct {
	seed  int64
	scale float64
	dblp  *core.Graph
	ml    *core.Graph
}

func (e *environment) DBLP() *core.Graph {
	if e.dblp == nil {
		start := time.Now()
		e.dblp = dataset.DBLPScaled(e.seed, e.scale)
		fmt.Fprintf(os.Stderr, "generated DBLP (scale %g) in %v\n", e.scale, time.Since(start).Round(time.Millisecond))
	}
	return e.dblp
}

func (e *environment) MovieLens() *core.Graph {
	if e.ml == nil {
		start := time.Now()
		e.ml = dataset.MovieLensScaled(e.seed, e.scale)
		fmt.Fprintf(os.Stderr, "generated MovieLens (scale %g) in %v\n", e.scale, time.Since(start).Round(time.Millisecond))
	}
	return e.ml
}

func one(p benchutil.Printable) []benchutil.Printable { return []benchutil.Printable{p} }

func experiments() []experiment {
	return []experiment{
		{"table3", "DBLP nodes/edges per year (Table 3)", func(env *environment) []benchutil.Printable {
			return one(benchutil.StatsTable("Table 3", "DBLP dataset", env.DBLP()))
		}},
		{"table4", "MovieLens nodes/edges per month (Table 4)", func(env *environment) []benchutil.Printable {
			return one(benchutil.StatsTable("Table 4", "MovieLens dataset", env.MovieLens()))
		}},
		{"fig5a", "DBLP time-point aggregation per attribute (Fig. 5a)", func(env *environment) []benchutil.Printable {
			return one(benchutil.Fig5("Fig. 5a", "DBLP: DIST aggregation time per attribute per time point",
				env.DBLP(), benchutil.Fig5DBLPCombos))
		}},
		{"fig5b", "MovieLens time-point aggregation per attribute (Fig. 5b)", func(env *environment) []benchutil.Printable {
			return one(benchutil.Fig5("Fig. 5b", "MovieLens: DIST aggregation time per attribute per time point",
				env.MovieLens(), benchutil.Fig5MovieLensCombos))
		}},
		{"fig6a", "DBLP union + aggregation, extending interval (Fig. 6a–c)", func(env *environment) []benchutil.Printable {
			return one(benchutil.Fig6("Fig. 6a-c", "DBLP: union over [2000,x] + DIST/ALL aggregation",
				env.DBLP(), "gender", "publications"))
		}},
		{"fig6d", "MovieLens union + aggregation (Fig. 6d)", func(env *environment) []benchutil.Printable {
			return one(benchutil.Fig6("Fig. 6d", "MovieLens: union over [May,x] + DIST/ALL aggregation",
				env.MovieLens(), "gender", "rating"))
		}},
		{"fig7a", "DBLP intersection + aggregation (Fig. 7a–c)", func(env *environment) []benchutil.Printable {
			return one(benchutil.Fig7("Fig. 7a-c", "DBLP: intersection over [2000,x] + DIST aggregation",
				env.DBLP(), "gender", "publications"))
		}},
		{"fig7d", "MovieLens intersection + aggregation (Fig. 7d)", func(env *environment) []benchutil.Printable {
			return one(benchutil.Fig7("Fig. 7d", "MovieLens: intersection over [May,x] + DIST aggregation",
				env.MovieLens(), "gender", "rating"))
		}},
		{"fig8a", "DBLP difference Told(∪)−Tnew (Fig. 8a–c)", func(env *environment) []benchutil.Printable {
			return one(benchutil.Fig8("Fig. 8a-c", "DBLP: Told(∪)−Tnew (Tnew=2020) + DIST/ALL aggregation",
				env.DBLP(), "gender", "publications"))
		}},
		{"fig8d", "MovieLens difference Told(∪)−Tnew (Fig. 8d)", func(env *environment) []benchutil.Printable {
			return one(benchutil.Fig8("Fig. 8d", "MovieLens: Told(∪)−Tnew (Tnew=Oct) + DIST/ALL aggregation",
				env.MovieLens(), "gender", "rating"))
		}},
		{"fig9a", "DBLP difference Tnew−Told(∪) (Fig. 9a–c)", func(env *environment) []benchutil.Printable {
			return one(benchutil.Fig9("Fig. 9a-c", "DBLP: Tnew−Told(∪) (Tnew=2020) + DIST/ALL aggregation",
				env.DBLP(), "gender", "publications"))
		}},
		{"fig9d", "MovieLens difference Tnew−Told(∪) (Fig. 9d)", func(env *environment) []benchutil.Printable {
			return one(benchutil.Fig9("Fig. 9d", "MovieLens: Tnew−Told(∪) (Tnew=Oct) + DIST/ALL aggregation",
				env.MovieLens(), "gender", "rating"))
		}},
		{"fig10", "Speedup of materialized union ALL aggregation (Fig. 10)", func(env *environment) []benchutil.Printable {
			return one(benchutil.Fig10("Fig. 10", "DBLP: T-distributive union composition vs scratch",
				env.DBLP(), "gender", "publications"))
		}},
		{"fig10c", "Concurrent clients on a shared materialization catalog (Fig. 10 variant)", func(env *environment) []benchutil.Printable {
			return one(benchutil.Fig10Concurrent("Fig. 10c", "DBLP: catalog throughput vs concurrent clients (gender)",
				env.DBLP(), "gender", []int{1, 2, 4, 8, 16}))
		}},
		{"fig11a", "DBLP attribute roll-up speedup (Fig. 11a)", func(env *environment) []benchutil.Printable {
			return one(benchutil.Fig11("Fig. 11a", "DBLP: gender and publications from (gender,publications)",
				env.DBLP(), []string{"gender", "publications"},
				[][]string{{"gender"}, {"publications"}}))
		}},
		{"fig11b", "MovieLens single-attribute roll-up speedups (Fig. 11b)", func(env *environment) []benchutil.Printable {
			var out []benchutil.Printable
			for _, e := range benchutil.Fig11MovieLensSingle(env.MovieLens()) {
				out = append(out, e)
			}
			return out
		}},
		{"fig11c", "MovieLens pair roll-up speedups (Fig. 11c)", func(env *environment) []benchutil.Printable {
			return one(benchutil.Fig11MovieLensPairs(env.MovieLens()))
		}},
		{"fig11d", "MovieLens triple roll-up speedups (Fig. 11d)", func(env *environment) []benchutil.Printable {
			return one(benchutil.Fig11MovieLensTriples(env.MovieLens()))
		}},
		{"fig12a", "DBLP evolution 2010 vs the 2000s, high activity (Fig. 12a)", func(env *environment) []benchutil.Printable {
			g := env.DBLP()
			tl := g.Timeline()
			return one(benchutil.Fig12("Fig. 12a", "DBLP gender evolution, 2000s → 2010, #publications > 4",
				g, tl.Range(0, 9), tl.Point(10), 4))
		}},
		{"fig12b", "DBLP evolution 2020 vs the 2010s, high activity (Fig. 12b)", func(env *environment) []benchutil.Printable {
			g := env.DBLP()
			tl := g.Timeline()
			return one(benchutil.Fig12("Fig. 12b", "DBLP gender evolution, 2010s → 2020, #publications > 4",
				g, tl.Range(10, 19), tl.Point(20), 4))
		}},
		{"fig13", "MovieLens exploration for F-F co-rating (Fig. 13)", func(env *environment) []benchutil.Printable {
			return explorations("13", "MovieLens", env.MovieLens(), "F", "F-F edges")
		}},
		{"fig14", "DBLP exploration for f-f collaborations (Fig. 14)", func(env *environment) []benchutil.Printable {
			return explorations("14", "DBLP", env.DBLP(), "f", "f-f collaborations")
		}},
	}
}

// explorations is Fig. 13 or 14: the three §5.2 exploration cases for the
// gender edge tuple value → value.
func explorations(fig, dataset string, g *core.Graph, value, what string) []benchutil.Printable {
	cases := []string{"maximal stability pairs (∩)", "minimal growth pairs (∪)", "minimal shrinkage pairs (∪)"}
	var out []benchutil.Printable
	for i, spec := range benchutil.PaperExplorations() {
		out = append(out, benchutil.FigExploration(fmt.Sprintf("Fig. %s%c", fig, 'a'+i),
			fmt.Sprintf("%s: %s for %s", dataset, cases[i], what), g, "gender", []string{value}, []string{value}, spec))
	}
	return out
}

// gitDescribeIn labels the source tree in dir ("" = current directory)
// for run metadata with git describe. It degrades gracefully: a missing
// git binary or a directory outside any checkout yields an empty string
// with no stderr noise.
func gitDescribeIn(dir string) string {
	if _, err := exec.LookPath("git"); err != nil {
		return ""
	}
	cmd := exec.Command("git", "describe", "--always", "--dirty", "--tags")
	cmd.Dir = dir
	cmd.Stderr = io.Discard
	out, err := cmd.Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func main() {
	var (
		all    = flag.Bool("all", false, "run every experiment")
		run    = flag.String("run", "", "comma-separated experiment ids")
		list   = flag.Bool("list", false, "list experiment ids and exit")
		scale  = flag.Float64("scale", 1.0, "dataset scale factor (1.0 = paper sizes)")
		seed   = flag.Int64("seed", 1, "dataset generator seed")
		out    = flag.String("out", "", "write text output to file instead of stdout")
		asJSON = flag.Bool("json", false, "emit one JSON object per result (JSON lines) instead of text tables")
	)
	flag.Parse()

	exps := experiments()
	if *list {
		for _, e := range exps {
			fmt.Printf("%-8s %s\n", e.id, e.about)
		}
		return
	}

	var selected []experiment
	switch {
	case *all:
		selected = exps
	case *run != "":
		wanted := map[string]bool{}
		for _, id := range strings.Split(*run, ",") {
			wanted[strings.TrimSpace(id)] = true
		}
		for _, e := range exps {
			if wanted[e.id] {
				selected = append(selected, e)
				delete(wanted, e.id)
			}
		}
		if len(wanted) > 0 {
			var unknown []string
			for id := range wanted {
				unknown = append(unknown, id)
			}
			sort.Strings(unknown)
			fmt.Fprintf(os.Stderr, "unknown experiment ids: %s (try -list)\n", strings.Join(unknown, ", "))
			os.Exit(2)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	env := &environment{seed: *seed, scale: *scale}
	if *asJSON {
		benchutil.SetRunMeta(&benchutil.RunMeta{
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Timestamp:  time.Now().UTC().Format(time.RFC3339),
			Git:        gitDescribeIn(""),
			Seed:       *seed,
			Scale:      *scale,
		})
	} else {
		fmt.Fprintf(w, "GraphTempo evaluation harness — seed %d, scale %g\n\n", *seed, *scale)
	}
	for _, e := range selected {
		start := time.Now()
		for _, p := range e.make(env) {
			if *asJSON {
				if err := benchutil.WriteJSON(w, p); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			} else {
				p.Print(w)
			}
		}
		fmt.Fprintf(os.Stderr, "%s done in %v\n", e.id, time.Since(start).Round(time.Millisecond))
	}
}
