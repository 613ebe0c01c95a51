package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os/exec"
	"runtime"
	"strings"
)

// printList prints the vocabulary: workloads, end-to-end and layer metrics.
func printList() {
	fmt.Println("workloads:")
	for _, w := range workloadDefs {
		fmt.Printf("  %-13s %s\n", w.Name, w.Why)
	}
	fmt.Println("end-to-end metrics (bound; workloads):")
	for _, m := range e2eMetrics {
		on := "all"
		if m.On != nil {
			on = strings.Join(m.On, ",")
		}
		bound := fmt.Sprintf("%.2f", m.Bound)
		if m.Abs {
			bound = fmt.Sprintf("+%g abs", m.Bound)
		}
		fmt.Printf("  %-26s %-6s %-7s [%s] %s\n", m.Name, m.Unit, m.Better, bound, on)
	}
	fmt.Println("per-layer metrics:")
	for _, m := range layerMetrics {
		fmt.Printf("  %-32s %s\n", m.Name, m.Unit)
	}
}

// printTable is the human report: per workload, every metric it reports by
// name with its unit.
func printTable(w io.Writer, results []*result) {
	for _, r := range results {
		fmt.Fprintf(w, "\n== %s: %d ops, schedule %s, %d attempted, %d failed\n", r.Workload, r.Ops, r.ScheduleHash, r.Attempted, r.Failed)
		if len(r.Flags) > 0 {
			fmt.Fprintf(w, "spawned with (all other flags default, so -fsync always):\n%s", describeFlags(r.Flags))
		}
		for _, m := range e2eMetrics {
			v, ok := r.E2E[m.Name]
			if !ok {
				continue
			}
			note := ""
			if p, ok := r.Percentiles[m.Name]; ok {
				note = fmt.Sprintf("  (p%g of %d samples)", p.Percentile, p.Samples)
			}
			fmt.Fprintf(w, "  %-32s %14.4f %-6s%s\n", m.Name, v, m.Unit, note)
		}
		for _, m := range layerMetrics {
			if v, ok := r.Layer[m.Name]; ok {
				fmt.Fprintf(w, "  %-32s %14.4f %s\n", m.Name, v, m.Unit)
			}
		}
		for _, v := range r.Verdicts {
			fmt.Fprintln(w, v)
		}
		if r.TraceFile != "" {
			fmt.Fprintf(w, "  spans: %s\n", r.TraceFile)
		}
	}
	fmt.Fprintln(w)
}

// document is the schema-stable JSON report.
type document struct {
	Meta      meta      `json:"meta"`
	Workloads []*result `json:"workloads"`
}

type meta struct {
	GoVersion           string  `json:"go_version"`
	NumCPU              int     `json:"nproc"`
	GeneratorGOMAXPROCS int     `json:"generator_gomaxprocs"`
	ServerGOMAXPROCS    int     `json:"server_gomaxprocs"` // the daemons run with the default: all CPUs
	Git                 string  `json:"git"`
	Seed                int64   `json:"seed"`
	Seconds             float64 `json:"seconds"`
	Scale               float64 `json:"scale"`
	Connections         int     `json:"connections"`
	Loop                string  `json:"loop"`
	Fsync               string  `json:"fsync"`
	Setups              int     `json:"setups"`
}

func gitDescribe(root string) string {
	cmd := exec.Command("git", "describe", "--always", "--dirty")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func newMeta(cfg *config) meta {
	return meta{
		GoVersion:           runtime.Version(),
		NumCPU:              runtime.NumCPU(),
		GeneratorGOMAXPROCS: runtime.GOMAXPROCS(0),
		ServerGOMAXPROCS:    runtime.NumCPU(),
		Git:                 gitDescribe(cfg.root),
		Seed:                cfg.seed,
		Seconds:             cfg.seconds,
		Scale:               cfg.scale,
		Connections:         cfg.conns,
		Loop:                "closed",
		Fsync:               "always",
		Setups:              cfg.setups,
	}
}

func printDocument(w io.Writer, cfg *config, results []*result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(document{Meta: newMeta(cfg), Workloads: results})
}

// contractLine is the driver's result object.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runContract runs one workload the way the driver asks and prints the
// result object as the last line of standard output. With layers false it
// is the end-to-end run (tracing off, set-up repeated for a steady
// setup_s) and the metrics are BENCHMARK.json's end_to_end list; with
// layers true it is one set-up, the same measured phase for the /metrics
// deltas, the traced in-process run and the durability phase, and the
// metrics are the per_layer list (0 where a workload never touches the
// layer).
func runContract(cfg *config, name string, layers bool) error {
	cfg.traced = layers
	if layers {
		cfg.setups = 1
	}
	res, err := runners[name](cfg)
	if err != nil {
		return err
	}
	line, err := newContractLine(res, layers)
	if err != nil {
		return err
	}
	for _, v := range res.Verdicts {
		fmt.Println(v)
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// newContractLine picks the driver's metrics out of a result. Every
// end_to_end metric must be there and non-zero; a per_layer metric the
// workload never touches reads 0.
func newContractLine(res *result, layers bool) (*contractLine, error) {
	line := &contractLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]contractMetric{}}
	if layers {
		for _, m := range contractLayerMetrics() {
			v, ok := res.Layer[m.Name]
			if !ok {
				v = res.E2E[m.Name]
			}
			line.Metrics[m.Name] = contractMetric{Value: v, Unit: m.Unit}
		}
		return line, nil
	}
	for _, m := range gatedMetrics() {
		v, ok := res.E2E[m.Name]
		if !ok || v == 0 || math.IsNaN(v) {
			return nil, fmt.Errorf("%s did not produce end-to-end metric %s", res.Workload, m.Name)
		}
		line.Metrics[m.Name] = contractMetric{Value: v, Unit: m.Unit}
	}
	return line, nil
}

// exactMetrics must repeat exactly between two runs of the same code and
// seed: they count work, not time. (The medians of identical values are
// that value.)
var exactMetrics = []string{"explore.evaluations", "cluster.scatter_ratio", "storage.fsyncs_per_write", "storage.wal_bytes"}

// compareReps is how many times -compare runs each of its two sets; a cell
// is the median over them.
const compareReps = 3

// cellMedians collects, per workload, the median of every reported metric
// over several runs of a set.
func cellMedians(runs [][]*result, pick func(*result) map[string]float64) map[string]map[string]float64 {
	values := map[string]map[string][]float64{}
	for _, set := range runs {
		for _, r := range set {
			if values[r.Workload] == nil {
				values[r.Workload] = map[string][]float64{}
			}
			for name, v := range pick(r) {
				values[r.Workload][name] = append(values[r.Workload][name], v)
			}
		}
	}
	out := map[string]map[string]float64{}
	for w, metrics := range values {
		out[w] = map[string]float64{}
		for name, v := range metrics {
			out[w][name] = median(v)
		}
	}
	return out
}

// runCompare runs the full set 2 x compareReps times — alternating between
// the normal spawn order and the reversed one, so that a drift of the box
// hits both alike — and prints, per (metric, workload), the two medians,
// their ratio and whether they agree within the metric's bound. It fails
// when an end-to-end cell does not, or a count that must repeat exactly
// differs.
func runCompare(cfg *config, names []string) error {
	reversed := *cfg
	reversed.reverse = true
	var sets [2][][]*result
	for rep := 0; rep < compareReps; rep++ {
		for _, side := range []int{rep % 2, 1 - rep%2} {
			c := cfg
			if side == 1 {
				c = &reversed
			}
			results, err := runSet(c, names)
			if err != nil {
				return err
			}
			sets[side] = append(sets[side], results)
		}
	}
	e2e := [2]map[string]map[string]float64{}
	layer := [2]map[string]map[string]float64{}
	for side := range sets {
		e2e[side] = cellMedians(sets[side], func(r *result) map[string]float64 { return r.E2E })
		layer[side] = cellMedians(sets[side], func(r *result) map[string]float64 { return r.Layer })
	}
	bad := 0
	fmt.Printf("\nmedians of %d runs per set; set 2 spawns the servers in reverse order\n", compareReps)
	fmt.Printf("%-14s %-28s %14s %14s %8s  %s\n", "workload", "metric", "set 1", "set 2", "ratio", "verdict")
	for _, w := range names {
		for _, m := range e2eMetrics {
			va, ok := e2e[0][w][m.Name]
			if !ok {
				continue
			}
			vb := e2e[1][w][m.Name]
			off := math.Abs(ratio(vb, va) - 1)
			if m.Abs {
				off = math.Abs(vb - va)
			}
			verdict := "within"
			if off > m.Bound {
				verdict = fmt.Sprintf("UNRESOLVED (off by %.3f, bound %.3f)", off, m.Bound)
				bad++
			}
			fmt.Printf("%-14s %-28s %14.4f %14.4f %8.3f  %s\n", w, m.Name, va, vb, ratio(vb, va), verdict)
		}
		for _, name := range exactMetrics {
			va, ok := layer[0][w][name]
			if !ok {
				continue
			}
			vb := layer[1][w][name]
			verdict := "exact"
			if va != vb {
				verdict = "DIFFERS"
				bad++
			}
			fmt.Printf("%-14s %-28s %14.4f %14.4f %8s  %s\n", w, name, va, vb, "", verdict)
		}
	}
	for i, r := range sets[0][0] {
		if o := sets[1][0][i]; r.Ops != o.Ops || r.ScheduleHash != o.ScheduleHash {
			fmt.Printf("%-14s %-28s %14d %14d %8s  DIFFERS\n", r.Workload, "ops", r.Ops, o.Ops, "")
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d cell(s) outside their bound", bad)
	}
	return nil
}
