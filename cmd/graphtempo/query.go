package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/tgql"
)

// cmdQuery executes TGQL statements: one via -q, or a read-eval-print loop
// on stdin when -q is absent — the interactive exploration mode the
// paper's conclusion envisions.
func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	gf := addGraphFlags(fs)
	q := fs.String("q", "", "a single TGQL statement to execute (omit for a REPL)")
	fs.Parse(args)

	g, err := gf.load()
	if err != nil {
		return err
	}
	if *q != "" {
		res, err := tgql.Exec(g, *q)
		if err != nil {
			return err
		}
		fmt.Print(res)
		return nil
	}

	fmt.Printf("GraphTempo query shell — %d nodes, %d edges, %d time points\n",
		g.NumNodes(), g.NumEdges(), g.Timeline().Len())
	fmt.Println(`statements: STATS | AGG | EVOLVE | EXPLORE | TOP | TIMELINE | COARSEN | EVENTS | PATHS | TREND,`)
	fmt.Println(`            each but STATS and COARSEN optionally under EXPLAIN   (empty line or "exit" quits)`)
	fmt.Println(`example: AGG DIST gender ON UNION(` + g.Timeline().Label(0) + `, ` +
		g.Timeline().Label(1) + `)`)
	scanner := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("tgql> ")
		if !scanner.Scan() {
			fmt.Println()
			return scanner.Err()
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.EqualFold(line, "exit") || strings.EqualFold(line, "quit") {
			return nil
		}
		res, err := tgql.Exec(g, line)
		if err != nil {
			fmt.Println("  error:", err)
			continue
		}
		fmt.Print(res)
	}
}
