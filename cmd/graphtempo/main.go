// Command graphtempo executes TGQL statements against a temporal graph —
// one statement with -q, or a read-eval-print loop on stdin without it: the
// interactive exploration mode the paper's conclusion envisions. The
// statements and their clauses are documented in docs/TGQL.md.
//
// The input graph is selected by:
//
//	-data DIR           load a graph from a CSV directory (see gtgen)
//	-dataset NAME       built-in synthetic dataset: example, dblp,
//	                    movielens, contacts
//	-scale F -seed N    size factor and seed for synthetic datasets
//
// -format json or dot renders an AGG or EVOLVE result as JSON or Graphviz
// DOT instead of text.
//
// Examples:
//
//	graphtempo query -dataset dblp -scale 0.1 -q STATS
//	graphtempo query -dataset example -q 'AGG DIST gender, publications ON UNION(t0, t1)'
//	graphtempo query -dataset example -format dot -q 'EVOLVE DIST gender FROM t0 TO t1'
//	graphtempo query -dataset dblp -scale 0.1 -q 'EXPLORE STABILITY BY gender EDGE f -> f TUNE 3'
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dot"
	"repro/internal/tgql"
)

// errUsage marks a malformed command line: main exits 2 on it and 1 on
// every other error.
var errUsage = errors.New("usage: graphtempo query (-data DIR | -dataset NAME) [-q STATEMENT] [-format text|json|dot]\n" +
	`run "graphtempo query -h" for flags`)

func main() {
	err := run(os.Args[1:], os.Stdin, os.Stdout)
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "graphtempo:", err)
	if errors.Is(err, errUsage) {
		os.Exit(2)
	}
	os.Exit(1)
}

// run executes the command line args (without the program name), reading
// REPL input from stdin and writing results to stdout.
func run(args []string, stdin io.Reader, stdout io.Writer) error {
	if len(args) == 0 {
		return errUsage
	}
	switch args[0] {
	case "query":
		return query(args[1:], stdin, stdout)
	case "help", "-h", "--help":
		fmt.Fprintln(stdout, errUsage)
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q\n%w", args[0], errUsage)
	}
}

// graphFlags adds the input-selection flags to a FlagSet.
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

// query executes TGQL statements: the one -q names, or each line of stdin.
func query(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	gf := addGraphFlags(fs)
	q := fs.String("q", "", "a single TGQL statement to execute (omit for a REPL)")
	format := fs.String("format", "text", "output format: text, or json or dot for AGG and EVOLVE results")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return fmt.Errorf("%v\n%w", err, errUsage)
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (pass a statement with -q)\n%w", fs.Arg(0), errUsage)
	}
	if err := dataset.CheckScale(*gf.scale); err != nil {
		return fmt.Errorf("%v\n%w", err, errUsage)
	}
	if f := *format; f != "text" && f != "json" && f != "dot" {
		return fmt.Errorf("unknown -format %q (want text, json or dot)\n%w", f, errUsage)
	}

	g, err := gf.load()
	if err != nil {
		return err
	}
	if *q != "" {
		res, err := tgql.Exec(g, *q)
		if err != nil {
			return err
		}
		return write(stdout, res, *format)
	}

	example := "STATS"
	if g.NumAttrs() > 0 {
		example = "AGG DIST " + g.Attr(0).Name + " ON POINT " + g.Timeline().Label(0)
	}
	fmt.Fprintf(stdout, "GraphTempo query shell — %d nodes, %d edges, %d time points\n",
		g.NumNodes(), g.NumEdges(), g.Timeline().Len())
	fmt.Fprintln(stdout, `statements: STATS | AGG | EVOLVE | EXPLORE | TOP | TIMELINE | COARSEN | EVENTS | PATHS | TREND,`)
	fmt.Fprintln(stdout, `            each but STATS and COARSEN optionally under EXPLAIN   (empty line or "exit" quits)`)
	fmt.Fprintln(stdout, "example: "+example)
	scanner := bufio.NewScanner(stdin)
	for {
		fmt.Fprint(stdout, "tgql> ")
		if !scanner.Scan() {
			fmt.Fprintln(stdout)
			return scanner.Err()
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.EqualFold(line, "exit") || strings.EqualFold(line, "quit") {
			return nil
		}
		res, err := tgql.Exec(g, line)
		if err == nil {
			err = write(stdout, res, *format)
		}
		if err != nil {
			fmt.Fprintln(stdout, "  error:", err)
		}
	}
}

// write renders res in format: text for every result, json and dot for
// the aggregate graph of AGG and the evolution graph of EVOLVE.
func write(w io.Writer, res *tgql.Result, format string) error {
	switch {
	case format == "text":
		_, err := fmt.Fprint(w, res)
		return err
	case res.Agg == nil && res.Evolution == nil:
		return fmt.Errorf("-format %s renders AGG and EVOLVE results only", format)
	case format == "dot" && res.Agg != nil:
		return dot.WriteAggregate(w, res.Agg)
	case format == "dot":
		return dot.WriteEvolution(w, res.Evolution)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if res.Agg != nil {
		return enc.Encode(res.Agg)
	}
	return enc.Encode(res.Evolution)
}
