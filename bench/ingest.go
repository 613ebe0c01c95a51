package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/storage"
)

// ingest_audit sizes. The stream is one contact day per ingest request.
const (
	ingestPreload      = 32  // days loaded during set-up, before anything is timed
	ingestCheckpoint   = 256 // -checkpoint-records: WAL records per background checkpoint
	ingestColdPins     = 20  // distinct AS OF transactions, from the oldest quarter
	ingestPinRepeats   = 20  // asks per pin: the first is cold, the rest hit the history LRU
	ingestOracleStride = 16  // concurrent reads at prefix lengths divisible by this are oracle-checked
)

// readShape is one of the reader's three project-ALL aggregates over the
// visible prefix day1..dayK: the whole prefix, its trailing week, its last
// day.
type readShape struct {
	name  string
	attrs []string
	back  int // days before K the range starts; -1 = from day1
}

var readShapes = []readShape{
	{"prefix", []string{"grade"}, -1},
	{"week", []string{"grade", "contacts"}, 6},
	{"day", []string{"class", "contacts"}, 0},
}

// template builds the shape's request over the first k days, optionally
// pinned to a transaction.
func (rs readShape) template(labels []string, k, asOf int) template {
	from := 0
	if rs.back >= 0 {
		from = max(0, k-1-rs.back)
	}
	t := aggT("project", "all", rs.attrs, rangeOf(labels, from, k-1), labelRange{}, true)
	if asOf > 0 {
		t.Agg.AsOf = asOf
		t.Body = mustJSON(t.Agg)
		t.Name += fmt.Sprintf("@%d", asOf)
		t.Class = classPin
	}
	return t
}

// ingestRun is the state of one ingest_audit run.
type ingestRun struct {
	*workloadRun
	g       *core.Graph
	labels  []string
	batches []server.IngestRequest
	bodies  [][]byte
	oracle  *oracle
	writes  int // ingests in the measured phase
	pins    []int
	// per (shape, k): the payload hash every read of it must show, and
	// whether it has been compared with the oracle.
	mu     sync.Mutex
	hashes map[string]uint64
	// attempted counts requests from both client goroutines.
	attempted atomic.Int64
}

func runIngestAudit(cfg *config) (*result, error) {
	w, err := newWorkloadRun(cfg, wIngestAudit)
	if err != nil {
		return nil, err
	}
	writes := cfg.opCount(wIngestAudit)
	days := ingestPreload + writes
	g := contactsGraph(days, cfg.scale)
	batches := ingestBatches(g)
	bodies, err := ingestBodies(batches)
	if err != nil {
		return nil, err
	}
	r := &ingestRun{workloadRun: w, g: g, labels: g.Timeline().Labels(), batches: batches, bodies: bodies,
		oracle: newOracle(g), writes: writes, hashes: map[string]uint64{}}
	r.pins = drawPins(days/4, ingestColdPins, w.rng)
	h := fnv.New64a()
	for _, b := range bodies {
		hashRequest(h, "/v1/ingest", b)
	}
	for _, p := range r.pins {
		hashRequest(h, "pin", []byte(fmt.Sprint(p)))
	}
	w.res.ScheduleHash = fmt.Sprintf("%016x", h.Sum64())
	if cfg.e2e {
		if err := r.endToEnd(); err != nil {
			return nil, err
		}
	}
	if cfg.traced {
		if err := r.traced(); err != nil {
			return nil, err
		}
	}
	return w.finish(), nil
}

// drawPins picks n distinct transactions from [2, hi], ascending.
func drawPins(hi, n int, r *rand.Rand) []int {
	hi = max(hi, 3)
	n = min(n, hi-1)
	perm := r.Perm(hi - 1)[:n]
	for i := range perm {
		perm[i] += 2
	}
	sort.Ints(perm)
	return perm
}

// deploy spawns the durable daemon on dataDir, preloads the first days and
// warms the three read shapes (comparing them with the oracle).
func (r *ingestRun) deploy(dataDir string) (*deployment, error) {
	p, err := spawn(filepath.Join(r.cfg.binDir, "graphtempod"), r.dir, "graphtempod",
		"-stream", contactsStreamSpec, "-data-dir", dataDir, "-checkpoint-records", fmt.Sprint(ingestCheckpoint))
	if err != nil {
		return nil, err
	}
	d := &deployment{procs: []*proc{p}, base: p.url()}
	if err := waitHTTP(p.url()+"/healthz", 30*time.Second); err != nil {
		d.stop()
		return nil, err
	}
	if err := postAll(p.url()+"/v1/ingest", r.bodies[:ingestPreload]); err != nil {
		d.stop()
		return nil, err
	}
	if err := waitHTTP(fmt.Sprintf("%s/readyz?gen=%d", p.url(), ingestPreload), 30*time.Second); err != nil {
		d.stop()
		return nil, err
	}
	cl := newClient()
	defer cl.close()
	for _, rs := range readShapes {
		t := rs.template(r.labels, ingestPreload, 0)
		r.ask(cl, d.base, &t, true)
	}
	return d, nil
}

// ask sends one read and checks it: a 200 whose payload hash matches every
// earlier answer to the same request and, when withOracle, the oracle's
// bytes. It returns the latency and whether the answer was right.
func (r *ingestRun) ask(cl *client, base string, t *template, withOracle bool) (time.Duration, bool) {
	r.attempted.Add(1)
	status, body, _, d, err := cl.post(base+t.Path, t.Body)
	if err != nil {
		r.ck.fail(t.Name, "transport: %v", err)
		return d, false
	}
	if status != http.StatusOK {
		r.ck.fail(t.Name, "status %d: %.160s", status, body)
		return d, false
	}
	hash := payloadHash(t, body)
	// A pinned answer and the live answer to the same range must agree, so
	// both are filed under the unpinned name.
	key, _, _ := strings.Cut(t.Name, "@")
	r.mu.Lock()
	prev, seen := r.hashes[key]
	if !seen {
		r.hashes[key] = hash
	}
	r.mu.Unlock()
	if seen && prev != hash {
		r.ck.fail(t.Name, "payload differs from an earlier answer to the same request (hash %x, earlier %x)", hash, prev)
		return d, false
	}
	if withOracle && !seen {
		got, err := payload(t, body)
		if err != nil {
			r.ck.fail(t.Name, "%v", err)
			return d, false
		}
		want, err := r.oracle.expect(t)
		if err != nil {
			r.ck.fail(t.Name, "oracle: %v", err)
			return d, false
		}
		if !bytes.Equal(got, want) {
			r.ck.fail(t.Name, "answer differs from the oracle: got %.80s… want %.80s…", got, want)
			return d, false
		}
	}
	return d, true
}

// endToEnd is the spawned run: writer and reader side by side, then the
// pins, then (when the layers are wanted too) kill -9 and recovery.
func (r *ingestRun) endToEnd() error {
	var (
		d      *deployment
		err    error
		setupS []float64
		dir    string
	)
	for i := 0; i < r.cfg.setups; i++ {
		if d != nil {
			d.stop()
		}
		dir = filepath.Join(r.dir, fmt.Sprintf("data-%d", i))
		start := time.Now()
		if d, err = r.deploy(dir); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer func() {
		d.stop()
		r.res.Attempted += int(r.attempted.Load())
	}()
	r.noteFlags(d)
	r.res.E2E["setup_s"] = median(setupS)

	before, cpu0 := d.scrape(), d.cpuMs()
	start := time.Now()
	writeMs, readMs, userBytes, acked := r.ingestPhase(d.base)
	coldMs, hotMs := r.pinPhase(d.base)
	wall := time.Since(start)
	cpu1, after := d.cpuMs(), d.scrape()

	ops := len(writeMs) + len(readMs) + len(coldMs) + len(hotMs)
	r.res.Ops = r.writes*(1+ingestReadsPerWrite) + len(r.pins)*ingestPinRepeats
	reads := append(append(append([]float64(nil), readMs...), coldMs...), hotMs...)
	aggs := append(append([]float64(nil), readMs...), hotMs...)
	for _, v := range [][]float64{writeMs, reads, aggs, coldMs} {
		sort.Float64s(v)
	}
	E := r.res.E2E
	E["ops_per_s"] = ratio(float64(ops), wall.Seconds())
	r.p50("read_p50_ms", reads)
	r.tail("read_p99_ms", reads)
	r.p50("agg_p50_ms", aggs)
	r.p50("pin_p50_ms", coldMs)
	r.p50("write_p50_ms", writeMs)
	r.tail("write_p99_ms", writeMs)
	E["server_cpu_ms_per_op"] = ratio(cpu1-cpu0, float64(ops))
	E["server_peak_rss_mb"] = d.peakRSSMB()
	walBytes := promDelta(before, after, "graphtempod_storage_wal_bytes_total")
	E["wal_bytes_per_user_byte"] = ratio(walBytes, float64(userBytes))

	r.serverCounters(before, after)
	L := r.res.Layer
	walRecords := promDelta(before, after, "graphtempod_storage_wal_records_total")
	L["storage.fsyncs_per_write"] = ratio(promDelta(before, after, "graphtempod_storage_fsyncs_total"), walRecords)
	L["storage.wal_bytes"] = walBytes
	L["storage.checkpoints"] = promSum(after, "graphtempod_storage_checkpoints_total")
	L["storage.checkpoint_ms"] = promSum(after, "graphtempod_storage_last_checkpoint_ms")
	L["storage.dir_bytes_per_user_byte"] = ratio(float64(dirBytes(dir)), float64(userBytes))
	L["server.history_cache_bytes"] = promSum(after, "graphtempod_history_cache_bytes")

	if r.cfg.traced {
		d, err = r.durability(d, dir, acked)
		if err != nil {
			return err
		}
	}
	return nil
}

// ingestReadsPerWrite fixes the reader's op count: it asks this many
// aggregates per ingest in the stream, however fast either side runs.
const ingestReadsPerWrite = 2

// ingestPhase replays the stream over one writer connection while one
// reader connection aggregates over the visible prefix; the phase ends when
// both have done their fixed number of ops. An ingest counts when its
// acknowledgement says the point is already queryable.
func (r *ingestRun) ingestPhase(base string) (writeMs, readMs []float64, userBytes int64, acked int) {
	var visible atomic.Int64
	visible.Store(ingestPreload)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl := newClient()
		defer cl.close()
		for i := 0; i < r.writes*ingestReadsPerWrite; i++ {
			k := int(visible.Load())
			t := readShapes[i%len(readShapes)].template(r.labels, k, 0)
			if d, ok := r.ask(cl, base, &t, k%ingestOracleStride == 0); ok {
				readMs = append(readMs, float64(d)/1e6)
			}
		}
	}()
	cl := newClient()
	defer cl.close()
	for i := ingestPreload; i < len(r.bodies); i++ {
		body := r.bodies[i]
		name := "ingest/" + r.labels[i]
		r.attempted.Add(1)
		status, resp, _, d, err := cl.post(base+"/v1/ingest", body)
		if err != nil {
			r.ck.fail(name, "transport: %v", err)
			continue
		}
		if status != http.StatusOK {
			r.ck.fail(name, "status %d: %.160s", status, resp)
			continue
		}
		var ack server.IngestResponse
		if err := json.Unmarshal(resp, &ack); err != nil || ack.Points != i+1 || ack.Visible < ack.Points || ack.Txn != i+1 {
			r.ck.fail(name, "bad acknowledgement %.120s (want points=visible=txn=%d)", resp, i+1)
			continue
		}
		writeMs = append(writeMs, float64(d)/1e6)
		userBytes += int64(len(body))
		acked = ack.Txn
		visible.Store(int64(ack.Visible))
	}
	wg.Wait()
	return writeMs, readMs, userBytes, acked
}

// pinPhase asks, for each pinned transaction, the last-day aggregate as of
// that transaction: once cold (the daemon reconstructs the state) and then
// repeatedly hot (the history LRU holds it).
func (r *ingestRun) pinPhase(base string) (coldMs, hotMs []float64) {
	cl := newClient()
	defer cl.close()
	for _, txn := range r.pins {
		t := readShapes[2].template(r.labels, txn, txn)
		for i := 0; i < ingestPinRepeats; i++ {
			d, ok := r.ask(cl, base, &t, true)
			if !ok {
				continue
			}
			if i == 0 {
				coldMs = append(coldMs, float64(d)/1e6)
			} else {
				hotMs = append(hotMs, float64(d)/1e6)
			}
		}
	}
	return coldMs, hotMs
}

// durability kills the daemon with SIGKILL, restarts it on the same data
// directory and reports what survived. It claims nothing: a loss on the
// seed is reported as a loss.
func (r *ingestRun) durability(d *deployment, dir string, acked int) (*deployment, error) {
	cl := newClient()
	defer cl.close()
	probe := readShapes[1].template(r.labels, acked, 0)
	status, body, _, _, err := cl.post(d.base+probe.Path, probe.Body)
	var pre []byte
	if err == nil && status == http.StatusOK {
		pre, _ = payload(&probe, body)
	}
	d.stop()

	unloadable := 0
	snaps, _ := filepath.Glob(filepath.Join(dir, "snapshot-*.gts"))
	for _, s := range snaps {
		if _, err := storage.LoadFile(s); err != nil {
			unloadable++
			fmt.Printf("CHECK %s/durability: snapshot %s does not load: %v\n", wIngestAudit, filepath.Base(s), err)
		}
	}

	start := time.Now()
	p, err := spawn(filepath.Join(r.cfg.binDir, "graphtempod"), r.dir, "graphtempod-restarted",
		"-stream", contactsStreamSpec, "-data-dir", dir, "-checkpoint-records", fmt.Sprint(ingestCheckpoint))
	if err != nil {
		return d, err
	}
	nd := &deployment{procs: []*proc{p}, base: p.url()}
	L := r.res.Layer
	recovered := 0
	if err := waitHTTP(p.url()+"/healthz", 60*time.Second); err != nil {
		fmt.Printf("CHECK %s/durability: restarted daemon never answered: %v\n", wIngestAudit, err)
	} else {
		L["storage.recover_ms"] = float64(time.Since(start)) / 1e6
		if resp, err := http.Get(p.url() + "/v1/status"); err == nil {
			var st server.StatusResponse
			if json.NewDecoder(resp.Body).Decode(&st) == nil {
				recovered = st.Txn
			}
			resp.Body.Close()
		}
	}
	same := "not comparable"
	if recovered >= acked && pre != nil {
		status, body, _, _, err := cl.post(nd.base+probe.Path, probe.Body)
		same = "differs"
		if err == nil && status == http.StatusOK {
			if post, err := payload(&probe, body); err == nil && bytes.Equal(pre, post) {
				same = "identical"
			}
		}
	}
	lost := max(0, acked-recovered)
	L["storage.recovered_points"] = float64(recovered)
	L["storage.acked_lost"] = float64(lost)
	L["storage.snapshots_unloadable"] = float64(unloadable)
	verdict := "PASS"
	if lost > 0 || unloadable > 0 || same != "identical" {
		verdict = "FAIL"
	}
	r.res.Verdicts = append(r.res.Verdicts, fmt.Sprintf(
		"DURABILITY %s: %s acked=%d recovered=%d lost=%d snapshots=%d unloadable=%d pre/post-kill aggregate %s",
		wIngestAudit, verdict, acked, recovered, lost, len(snaps), unloadable, same))
	return nd, nil
}
