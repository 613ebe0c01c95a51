// Command bench is the repository's baseline benchmark: four seeded
// workloads driven over loopback HTTP against the real daemons, built from
// the working tree and spawned as separate processes, plus a traced
// in-process run that attributes time to the layers. See README.md.
//
// From the checkout root:
//
//	bash bench/run.sh                      # all workloads: table + JSON document
//	bash bench/run.sh -workload dash_hot   # a subset (comma-separated)
//	bash bench/run.sh -compare             # two sets of 3 runs, medians vs bounds
//	bash bench/run.sh -list                # workloads and metrics
//
// The driver's contract form is
//
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//
// which runs one workload and prints one JSON result line last: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

var runners = map[string]func(*config) (*result, error){
	wDashHot:     runDashHot,
	wAdhocScan:   runAdhocScan,
	wIngestAudit: runIngestAudit,
	wRouterMix:   runRouterMix,
}

func main() {
	// The generator shares two cores with the servers it measures. Its heap
	// is a few MB of samples, so the default pacer would collect several
	// times a second, each time taking CPU from the servers at a random
	// moment; with this setting it collects about once a second.
	debug.SetGCPercent(1000)
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		seed     = fs.Int64("seed", 1, "seed for the op schedules: which intervals, thresholds, nodes and pins are asked, in which order")
		workload = fs.String("workload", "", "comma-separated workloads to run (default: all)")
		list     = fs.Bool("list", false, "list workloads and metrics, then exit")
		manifest = fs.Bool("manifest", false, "print BENCHMARK.json as the code defines it, then exit")
		compare  = fs.Bool("compare", false, "run the full set 2 x 3 times (every other one with server-spawn order reversed) and compare the two sets' medians with the bounds")
		seconds  = fs.Float64("seconds", contractSeconds, "target length of each measured phase; fixes the op counts (count = calibrated rate x seconds)")
		trace    = fs.Int("trace", -1, "contract mode: 0 prints the end-to-end metrics as one JSON line, 1 the per-layer metrics; -1 (default) runs both parts and prints the table and the JSON document")
		out      = fs.String("out", ".bench_build", "directory for binaries, data dirs, logs and trace files")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		printList()
		return nil
	}
	if *manifest {
		return writeManifest(os.Stdout)
	}
	names := workloadNames()
	if *workload != "" {
		names = strings.Split(*workload, ",")
		for _, n := range names {
			if runners[n] == nil {
				return fmt.Errorf("unknown workload %q (try -list)", n)
			}
		}
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "graphtempod")); err != nil {
		return fmt.Errorf("run from the root of a GraphTempo checkout: %w", err)
	}
	outDir, err := filepath.Abs(*out)
	if err != nil {
		return err
	}
	cfg := &config{
		root:    root,
		out:     outDir,
		binDir:  filepath.Join(outDir, "bin"),
		seed:    *seed,
		seconds: *seconds,
		scale:   1.0,
		conns:   min(runtime.NumCPU(), 2),
		setups:  3,
		e2e:     true,
		traced:  true,
	}
	if err := buildDaemons(cfg.root, cfg.binDir); err != nil {
		return err
	}
	switch {
	case *trace == 0 || *trace == 1:
		if len(names) != 1 {
			return fmt.Errorf("-trace %d wants exactly one -workload", *trace)
		}
		return runContract(cfg, names[0], *trace == 1)
	case *compare:
		return runCompare(cfg, names)
	}
	results, err := runSet(cfg, names)
	if err != nil {
		return err
	}
	printTable(os.Stdout, results)
	return printDocument(os.Stdout, cfg, results)
}

// runSet runs the named workloads one after the other. A workload that
// cannot run at all is reported and skipped, so one broken deployment does
// not hide the others' numbers; the error is returned at the end.
func runSet(cfg *config, names []string) ([]*result, error) {
	var results []*result
	var firstErr error
	for _, n := range names {
		res, err := runners[n](cfg)
		if err != nil {
			fmt.Printf("CHECK %s: FAIL did not run: %v\n", n, err)
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", n, err)
			}
			continue
		}
		results = append(results, res)
	}
	return results, firstErr
}
