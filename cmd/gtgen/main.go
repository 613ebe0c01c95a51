// Command gtgen generates the synthetic evaluation datasets as CSV
// directories in the labeled-array layout of the paper's Table 2 (see
// package core for the format), so they can be inspected, edited, or
// loaded by the graphtempo CLI and by user code via ReadGraphDir.
//
// Usage:
//
//	gtgen -dataset dblp -scale 0.1 -out ./dblp01
//	gtgen -dataset movielens -out ./movielens
//	gtgen -dataset example -out ./example
//	gtgen -dataset contacts -out ./school
//
// With -format=binary the dataset is written as a single columnar snapshot
// file in the internal/storage format instead — smaller, checksummed, and
// loadable by graphtempod -dataset <file> or graphtempo.Load. The file
// holds the graph alone; materialized aggregates are built in memory by
// whatever serves it:
//
//	gtgen -dataset dblp -scale 0.1 -format=binary -out dblp01.gts
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/storage"
)

func main() {
	var (
		name  = flag.String("dataset", "", "dataset: example, dblp, movielens, contacts")
		scale = flag.Float64("scale", 1.0, "size factor for dblp/movielens")
		seed  = flag.Int64("seed", 1, "generator seed")
		out   = flag.String("out", "", "output directory (or file with -format=binary)")
		form  = flag.String("format", "dir", "output format: dir (CSV labeled arrays) or binary (single snapshot file)")
	)
	flag.Parse()
	if *name == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "usage: gtgen -dataset <name> -out <dir> [-scale F] [-seed N]")
		os.Exit(2)
	}
	if err := dataset.CheckScale(*scale); err != nil {
		fmt.Fprintln(os.Stderr, "gtgen:", err)
		os.Exit(2)
	}
	start := time.Now()
	var g *core.Graph
	switch *name {
	case "example":
		g = core.PaperExample()
	case "dblp":
		g = dataset.DBLPScaled(*seed, *scale)
	case "movielens":
		g = dataset.MovieLensScaled(*seed, *scale)
	case "contacts":
		g = dataset.SchoolContacts(*seed, dataset.DefaultContactsParams())
	default:
		fmt.Fprintf(os.Stderr, "unknown dataset %q\n", *name)
		os.Exit(2)
	}
	var err error
	switch *form {
	case "dir":
		err = core.WriteDir(g, *out)
	case "binary":
		err = storage.SaveFile(*out, g)
	default:
		fmt.Fprintf(os.Stderr, "gtgen: unknown format %q (want dir or binary)\n", *form)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gtgen:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d nodes, %d edges, %d time points) to %s in %v\n",
		*name, g.NumNodes(), g.NumEdges(), g.Timeline().Len(), *out,
		time.Since(start).Round(time.Millisecond))
}
