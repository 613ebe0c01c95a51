package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
)

// config is one benchmark invocation's settings.
type config struct {
	root    string  // checkout root the daemons are built from
	out     string  // everything the run writes goes under here
	binDir  string  // built daemons
	seed    int64   // drives the op schedules (draws, order, thresholds, pins)
	seconds float64 // target length of each measured phase; fixes op counts
	scale   float64 // dataset scale (1.0; the smoke test uses 0.05)
	conns   int     // closed-loop client connections
	setups  int     // set-ups per run; setup_s is their median
	// opsOverride replaces rate x seconds with explicit op counts per
	// workload (the smoke test's tiny runs).
	opsOverride map[string]int
	reverse     bool // spawn servers in reverse order (-compare's second set)
	e2e         bool // run the spawned end-to-end part
	traced      bool // run the in-process traced part
}

// opsPerSecond is each workload's op rate on the reference 2-core box,
// calibrated once and frozen: op count = rate x seconds, so the count — not
// the duration — is what repeats exactly from run to run.
var opsPerSecond = map[string]float64{
	wDashHot:     1800,
	wAdhocScan:   150,
	wIngestAudit: 110, // ingests; two reads ride along with each, pins follow
	wRouterMix:   500,
}

func (c *config) opCount(workload string) int {
	if n, ok := c.opsOverride[workload]; ok {
		return n
	}
	return max(10, int(opsPerSecond[workload]*c.seconds))
}

// measureChunks is the number of slices a measured phase is cut into.
const measureChunks = 5

// pctl says which percentile a tail metric really reports and from how
// many samples.
type pctl struct {
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
}

// result is everything one workload reports.
type result struct {
	Workload     string              `json:"workload"`
	ScheduleHash string              `json:"schedule_hash"`
	Ops          int                 `json:"ops"`
	Attempted    int                 `json:"attempted"`
	Failed       int                 `json:"failed"`
	E2E          map[string]float64  `json:"end_to_end"`
	Layer        map[string]float64  `json:"per_layer"`
	Percentiles  map[string]pctl     `json:"percentiles"`
	Flags        map[string][]string `json:"flags"`
	Checks       []string            `json:"checks"`
	Verdicts     []string            `json:"verdicts"`
	TraceFile    string              `json:"trace_file,omitempty"`
}

// workloadRun carries one workload through its run.
type workloadRun struct {
	cfg *config
	dir string
	rng *rand.Rand
	ck  *checks
	res *result
}

func newWorkloadRun(cfg *config, name string) (*workloadRun, error) {
	dir := filepath.Join(cfg.out, fmt.Sprintf("run-%d", os.Getpid()), name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &workloadRun{
		cfg: cfg,
		dir: dir,
		rng: rand.New(rand.NewSource(cfg.seed)),
		ck:  &checks{workload: name},
		res: &result{
			Workload:    name,
			E2E:         map[string]float64{},
			Layer:       map[string]float64{},
			Percentiles: map[string]pctl{},
			Flags:       map[string][]string{},
		},
	}, nil
}

// prune deletes what a finished workload no longer needs — data
// directories, snapshots — and keeps the daemons' logs and the span file.
func (w *workloadRun) prune() {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if name := e.Name(); !strings.HasSuffix(name, ".log") && !strings.HasSuffix(name, ".jsonl") {
			os.RemoveAll(filepath.Join(w.dir, name))
		}
	}
}

// finish folds the check results into the result and drops the numbers of
// layers the workload does not exercise: a workload reports only the rows
// metrics.go marks for it, never a placeholder.
func (w *workloadRun) finish() *result {
	w.prune()
	w.res.Failed = w.ck.failed
	w.res.Checks = w.ck.lines
	if w.cfg.e2e {
		w.res.E2E["fail_ratio"] = ratio(float64(w.res.Failed), float64(w.res.Attempted))
	}
	for _, m := range e2eMetrics {
		if !m.on(w.res.Workload) {
			delete(w.res.E2E, m.Name)
		}
	}
	for _, m := range layerMetrics {
		if !m.on(w.res.Workload) {
			delete(w.res.Layer, m.Name)
		}
	}
	return w.res
}

// deployment is one spawned system under test.
type deployment struct {
	procs []*proc
	base  string // URL the clients talk to
}

func (d *deployment) stop() {
	for _, p := range d.procs {
		p.kill()
	}
}

func (d *deployment) cpuMs() float64 {
	var sum float64
	for _, p := range d.procs {
		if v, err := p.cpuMs(); err == nil {
			sum += v
		}
	}
	return sum
}

func (d *deployment) peakRSSMB() float64 {
	var sum float64
	for _, p := range d.procs {
		if v, err := p.peakRSSMB(); err == nil {
			sum += v
		}
	}
	return sum
}

// scrape concatenates every process's /metrics: counters of the same name
// in different processes add up under promSum.
func (d *deployment) scrape() []promSample {
	var all []promSample
	for _, p := range d.procs {
		if s, err := p.scrape(); err == nil {
			all = append(all, s...)
		}
	}
	return all
}

func (w *workloadRun) noteFlags(d *deployment) {
	for _, p := range d.procs {
		w.res.Flags[p.name] = p.args
	}
}

// deployStatic spawns `graphtempod -dataset file` and waits for /readyz.
func (w *workloadRun) deployStatic(file string) (*deployment, error) {
	p, err := spawn(filepath.Join(w.cfg.binDir, "graphtempod"), w.dir, "graphtempod", "-dataset", file)
	if err != nil {
		return nil, err
	}
	d := &deployment{procs: []*proc{p}, base: p.url()}
	if err := waitHTTP(p.url()+"/readyz", 60*time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// postAll sends the bodies in order over one connection, failing on the
// first non-200.
func postAll(url string, bodies [][]byte) error {
	cl := newClient()
	defer cl.close()
	for i, b := range bodies {
		status, body, _, _, err := cl.post(url, b)
		if err != nil {
			return fmt.Errorf("POST %s #%d: %w", url, i, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("POST %s #%d: status %d: %.200s", url, i, status, body)
		}
	}
	return nil
}

// deployCluster spawns two stream-mode shard daemons, loads bodies[:split]
// into the first and bodies[split:] into the second through /v1/ingest,
// then spawns the router in front of them and waits until its mirror holds
// the whole timeline.
func (w *workloadRun) deployCluster(bodies [][]byte, split int) (*deployment, error) {
	d := &deployment{}
	bin := filepath.Join(w.cfg.binDir, "graphtempod")
	names := []string{"a", "b"}
	if w.cfg.reverse {
		names = []string{"b", "a"}
	}
	shards := map[string]*proc{}
	for _, n := range names {
		p, err := spawn(bin, w.dir, "shard-"+n, "-stream", dblpStreamSpec, "-shard", n)
		if err != nil {
			d.stop()
			return nil, err
		}
		d.procs = append(d.procs, p)
		shards[n] = p
	}
	parts := map[string][][]byte{"a": bodies[:split], "b": bodies[split:]}
	errs := make(chan error, len(names))
	for _, n := range names {
		go func() {
			if err := waitHTTP(shards[n].url()+"/healthz", 30*time.Second); err != nil {
				errs <- err
				return
			}
			errs <- postAll(shards[n].url()+"/v1/ingest", parts[n])
		}()
	}
	for range names {
		if err := <-errs; err != nil {
			d.stop()
			return nil, err
		}
	}
	spec := fmt.Sprintf("a=%s;b=%s", shards["a"].url(), shards["b"].url())
	rt, err := spawn(filepath.Join(w.cfg.binDir, "graphtempo-router"), w.dir, "router", "-shards", spec)
	if err != nil {
		d.stop()
		return nil, err
	}
	d.procs = append(d.procs, rt)
	d.base = rt.url()
	if err := waitHTTP(fmt.Sprintf("%s/readyz?gen=%d", rt.url(), len(bodies)), 60*time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// expectations runs the oracle over every checked template, on all cores
// (no server is running yet).
func expectations(o *oracle, s *schedule) ([][]byte, error) {
	want := make([][]byte, len(s.templates))
	errs := make([]error, len(s.templates))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range s.templates {
		if !s.templates[i].Checked {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			want[i], errs[i] = o.expect(&s.templates[i])
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("oracle for %s: %w", s.templates[i].Name, err)
		}
	}
	return want, nil
}

// runReads is the end-to-end run of a read-only workload: set up (spawn,
// load, warm up with the oracle comparison) cfg.setups times keeping the
// last, then drive the schedule and read the servers' /proc and /metrics
// around it.
func (w *workloadRun) runReads(deploy func() (*deployment, error), g *core.Graph, s *schedule) (*loadResult, error) {
	want, err := expectations(newOracle(g), s)
	if err != nil {
		return nil, err
	}
	var (
		d      *deployment
		hashes []uint64
		setupS []float64
	)
	for i := 0; i < w.cfg.setups; i++ {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		if d, err = deploy(); err != nil {
			return nil, err
		}
		var asked int
		hashes, asked = warmUp(d.base, s, want, w.ck)
		setupS = append(setupS, time.Since(start).Seconds())
		w.res.Attempted += asked
	}
	defer d.stop()
	w.noteFlags(d)
	w.res.E2E["setup_s"] = median(setupS)

	// The measured phase runs in measureChunks consecutive slices of the
	// schedule. Throughput, the medians and CPU per op are reported as the
	// median over the slices, which a stall in one slice (a noisy
	// neighbour, a page-cache flush) cannot move; the tail percentile is
	// taken over all samples pooled.
	clients := make([]*client, w.cfg.conns)
	for i := range clients {
		clients[i] = newClient()
		defer clients[i].close()
	}
	before := d.scrape()
	lr := &loadResult{routes: map[string]int{}}
	slices := map[string][]float64{}
	for k := 0; k < measureChunks; k++ {
		lo, hi := len(s.ops)*k/measureChunks, len(s.ops)*(k+1)/measureChunks
		if lo == hi {
			continue
		}
		cpu0 := d.cpuMs()
		part := runLoad(d.base, s, s.ops[lo:hi], clients, hashes, w.ck)
		cpu1 := d.cpuMs()
		lr.merge(part)
		slices["ops_per_s"] = append(slices["ops_per_s"], ratio(float64(len(part.samples)), part.wall.Seconds()))
		slices["server_cpu_ms_per_op"] = append(slices["server_cpu_ms_per_op"], ratio(cpu1-cpu0, float64(part.attempted)))
		for metric, v := range p50Metrics(s, part.samples) {
			slices[metric] = append(slices[metric], percentile(v, 50))
		}
	}
	after := d.scrape()

	w.res.Attempted += lr.attempted
	w.res.Ops = lr.attempted
	w.res.ScheduleHash = fmt.Sprintf("%016x", s.hash())
	for metric, v := range slices {
		w.res.E2E[metric] = median(v)
	}
	pooled := p50Metrics(s, lr.samples)
	for metric, v := range pooled {
		w.res.Percentiles[metric] = pctl{Percentile: 50, Samples: len(v)}
	}
	w.tail("read_p99_ms", pooled["read_p50_ms"])
	w.res.E2E["server_peak_rss_mb"] = d.peakRSSMB()
	w.serverCounters(before, after)
	if total := lr.routes["scatter"] + lr.routes["mirror"]; total > 0 {
		w.res.Layer["cluster.scatter_ratio"] = ratio(float64(lr.routes["scatter"]), float64(total))
	}
	return lr, nil
}

// p50Metrics sorts samples into the latency lists (ms, ascending) behind
// each median metric; a class without samples has no entry.
func p50Metrics(s *schedule, samples []sample) map[string][]float64 {
	byClass, all := latencies(s, samples)
	out := map[string][]float64{}
	for metric, v := range map[string][]float64{"read_p50_ms": all, "agg_p50_ms": byClass[classAgg],
		"explore_p50_ms": byClass[classExplore], "stmt_p50_ms": byClass[classStmt]} {
		if len(v) > 0 {
			out[metric] = v
		}
	}
	return out
}

// tail reports a sample's 99th percentile, or — below 1000 samples, where
// p99 would be a single outlier — the highest percentile that still has ten
// samples beyond it, recording which one it was.
func (w *workloadRun) tail(metric string, sorted []float64) {
	p := 99.0
	if _, err := p99(sorted); err != nil {
		p = highestPercentile(len(sorted))
	}
	w.res.E2E[metric] = percentile(sorted, p)
	w.res.Percentiles[metric] = pctl{Percentile: p, Samples: len(sorted)}
}

func (w *workloadRun) p50(metric string, sorted []float64) {
	if len(sorted) == 0 {
		return
	}
	w.res.E2E[metric] = percentile(sorted, 50)
	w.res.Percentiles[metric] = pctl{Percentile: 50, Samples: len(sorted)}
}

// serverCounters turns /metrics deltas around the measured phase into the
// M-sourced layer metrics.
func (w *workloadRun) serverCounters(before, after []promSample) {
	delta := func(name string, labels ...string) float64 { return promDelta(before, after, name, labels...) }
	L := w.res.Layer
	L["server.shed"] = delta("graphtempod_shed_total")
	hit, miss := delta("graphtempod_plan_cache_total", `result="hit"`), delta("graphtempod_plan_cache_total", `result="miss"`)
	L["plan.cache_hit_ratio"] = ratio(hit, hit+miss)
	dense := delta("graphtempod_kernel_selections_total", `kernel="dense"`)
	L["agg.kernel_dense_ratio"] = ratio(dense, delta("graphtempod_kernel_selections_total"))
	cached := delta("graphtempod_catalog_answers_total", `source="cached"`)
	L["materialize.hit_ratio"] = ratio(cached, delta("graphtempod_catalog_answers_total"))
	L["materialize.cache_evictions"] = delta("graphtempod_catalog_cache_evictions_total")
	L["explore.evaluations"] = delta("graphtempod_explorer_evaluations_total")
}

// writeDBLP saves the graph as the binary snapshot `graphtempod -dataset`
// loads.
func (w *workloadRun) writeDBLP(g *core.Graph) (string, error) {
	file := filepath.Join(w.dir, "dblp.gts")
	if err := storage.SaveFile(file, g); err != nil {
		return "", fmt.Errorf("write %s: %w", file, err)
	}
	return file, nil
}

// nodeLabels returns the graph's node labels in id order.
func nodeLabels(g *core.Graph) []string {
	out := make([]string, g.NumNodes())
	for i := range out {
		out[i] = g.NodeLabel(core.NodeID(i))
	}
	return out
}

// runDashHot, runAdhocScan and runRouterMix build the workload's data and
// schedule from the seed and run its end-to-end and traced parts.
func runDashHot(cfg *config) (*result, error) {
	w, err := newWorkloadRun(cfg, wDashHot)
	if err != nil {
		return nil, err
	}
	g := dblpGraph(cfg.scale)
	s := dashHotSchedule(g.Timeline().Labels(), cfg.opCount(wDashHot), w.rng)
	return w.runStatic(g, s)
}

func runAdhocScan(cfg *config) (*result, error) {
	w, err := newWorkloadRun(cfg, wAdhocScan)
	if err != nil {
		return nil, err
	}
	g := dblpGraph(cfg.scale)
	s := adhocSchedule(g.Timeline().Labels(), nodeLabels(g), newOracle(g).kRange, cfg.opCount(wAdhocScan), w.rng)
	return w.runStatic(g, s)
}

func (w *workloadRun) runStatic(g *core.Graph, s *schedule) (*result, error) {
	var lr *loadResult
	if w.cfg.e2e {
		file, err := w.writeDBLP(g)
		if err != nil {
			return nil, err
		}
		if lr, err = w.runReads(func() (*deployment, error) { return w.deployStatic(file) }, g, s); err != nil {
			return nil, err
		}
	}
	if w.cfg.traced {
		if err := w.tracedReads(newStaticTarget(g), s, lr); err != nil {
			return nil, err
		}
	}
	return w.finish(), nil
}

// routerHeavyPct is the share of heavy (union-DIST on two attributes)
// scatters in router_mix.
const routerHeavyPct = 5

func runRouterMix(cfg *config) (*result, error) {
	w, err := newWorkloadRun(cfg, wRouterMix)
	if err != nil {
		return nil, err
	}
	g := dblpGraph(cfg.scale)
	labels := g.Timeline().Labels()
	split := at(len(labels), 0.48) // DBLP: 2000-2009 | 2010-2020
	s := routerMixSchedule(labels, split, newOracle(g).kRange, routerHeavyPct, cfg.opCount(wRouterMix), w.rng)
	bodies, err := ingestBodies(ingestBatches(g))
	if err != nil {
		return nil, err
	}
	var lr *loadResult
	if cfg.e2e {
		if lr, err = w.runReads(func() (*deployment, error) { return w.deployCluster(bodies, split) }, g, s); err != nil {
			return nil, err
		}
	}
	if cfg.traced {
		target, err := newClusterTarget(g, bodies, split)
		if err != nil {
			return nil, err
		}
		defer target.close()
		if err := w.tracedReads(target, s, lr); err != nil {
			return nil, err
		}
	}
	return w.finish(), nil
}

// describeFlags renders the flags each spawned binary ran with.
func describeFlags(flags map[string][]string) string {
	names := make([]string, 0, len(flags))
	for name := range flags {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "  %s %s\n", name, strings.Join(flags[name], " "))
	}
	return b.String()
}
