package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/materialize"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/stream"
)

func snapshotOf(req server.IngestRequest) stream.Snapshot {
	snap := stream.Snapshot{
		Nodes: make([]stream.NodeRecord, len(req.Nodes)),
		Edges: make([]stream.EdgeRecord, len(req.Edges)),
	}
	for i, n := range req.Nodes {
		snap.Nodes[i] = stream.NodeRecord{Label: n.Label, Static: n.Static, Varying: n.Varying}
	}
	for i, e := range req.Edges {
		snap.Edges[i] = stream.EdgeRecord{U: e.U, V: e.V}
	}
	return snap
}

// tracedPins is how many cold pins the traced run reconstructs.
const tracedPins = 5

// traced is ingest_audit's in-process pass over a prefix of the stream: a
// durable server takes the ingests and reads through its handler, and a
// replica repeats each ingest through the storage, stream and materialize
// layers' public functions (on its own engine, series and catalog).
func (r *ingestRun) traced() error {
	openEngine := func(name string) (*storage.Engine, error) {
		return storage.Open(filepath.Join(r.dir, name), r.g.Attrs(), storage.Options{
			Fsync: storage.FsyncAlways, CheckpointRecords: ingestCheckpoint, Logger: quiet})
	}
	eng, err := openEngine("traced-data")
	if err != nil {
		return err
	}
	defer eng.Close()
	srv, err := server.New(server.Config{Storage: eng, Logger: quiet})
	if err != nil {
		return err
	}
	eng2, err := openEngine("traced-replica")
	if err != nil {
		return err
	}
	defer eng2.Close()
	series := stream.New(r.g.Attrs()...)

	t := &target{rootSpan: "server.handler", handler: srv.Handler()}
	ingest := func(i int) error {
		w := t.serve(&template{Path: "/v1/ingest", Body: r.bodies[i]})
		if w.Code != http.StatusOK {
			return fmt.Errorf("traced ingest %s: status %d: %.200s", r.labels[i], w.Code, w.Body.Bytes())
		}
		return nil
	}
	for i := 0; i < ingestPreload; i++ {
		if err := ingest(i); err != nil {
			return err
		}
		snap := snapshotOf(r.batches[i])
		if err := eng2.Append(r.labels[i], snap); err != nil {
			return err
		}
		if err := series.Append(r.labels[i], snap); err != nil {
			return err
		}
	}
	g, err := series.Graph()
	if err != nil {
		return err
	}
	cat := materialize.NewCatalog(g)
	plans, fb := plan.NewCache(0), plan.NewFeedback()

	rec := newRecorder()
	tr := &tracer{rec: rec, counts: map[string][]float64{}}
	writes := max(1, int(float64(r.writes)*tracedFraction))
	if _, ok := r.cfg.opsOverride[wIngestAudit]; ok {
		writes = r.writes
	}
	var traced, untraced []float64
	op := 0
	for i := ingestPreload; i < ingestPreload+writes; i++ {
		// The ingest through the handler, then through the layers.
		root := rec.begin(t.rootSpan, -1, op)
		err := ingest(i)
		rec.end(root)
		if err != nil {
			return err
		}
		snap := snapshotOf(r.batches[i])
		rep := rec.begin("replica", -1, op)
		tr.in("storage.append", rep, op, func() { err = eng2.Append(r.labels[i], snap) })
		if err != nil {
			return err
		}
		tr.in("stream.append", rep, op, func() { err = series.Append(r.labels[i], snap) })
		if err != nil {
			return err
		}
		tr.in("stream.graph", rep, op, func() { g, err = series.Graph() })
		if err != nil {
			return err
		}
		tr.in("materialize.advance", rep, op, func() { _, err = cat.Advance(g) })
		if err != nil {
			return err
		}
		rec.end(rep)
		plans.Advance(g, cat, g.Timeline().Len()-1)
		op++

		// One read over the new prefix, asked twice (alternating which goes
		// first) to compare a traced with an untraced handler call.
		t.g, t.env = g, plan.Env{Graph: g, Catalog: cat, Cache: plans, Feedback: fb}
		tp := readShapes[i%len(readShapes)].template(r.labels, i+1, 0)
		timeUntraced := func() {
			start := time.Now()
			t.serve(&tp)
			untraced = append(untraced, float64(time.Since(start))/1e3)
		}
		if i%2 == 0 {
			timeUntraced()
		}
		root = rec.begin(t.rootSpan, -1, op)
		w := t.serve(&tp)
		traced = append(traced, float64(rec.end(root))/1e3)
		if i%2 == 1 {
			timeUntraced()
		}
		if w.Code != http.StatusOK {
			return fmt.Errorf("traced read %s: status %d: %.200s", tp.Name, w.Code, w.Body.Bytes())
		}
		tr.count("server.resp_bytes", float64(w.Body.Len()))
		if err := tr.replica(t, &tp, op); err != nil {
			return fmt.Errorf("replica of %s: %w", tp.Name, err)
		}
		op++
	}

	// Cold pins: the handler reconstructs the state, and the replica asks
	// the engine for the same reconstruction.
	head := ingestPreload + writes
	for p := 0; p < tracedPins; p++ {
		txn := 2 + p*(head/4)/tracedPins
		tp := readShapes[2].template(r.labels, txn, txn)
		root := rec.begin(t.rootSpan, -1, op)
		w := t.serve(&tp)
		rec.end(root)
		if w.Code != http.StatusOK {
			return fmt.Errorf("traced pin %s: status %d: %.200s", tp.Name, w.Code, w.Body.Bytes())
		}
		rep := rec.begin("replica", -1, op)
		tr.in("storage.replay_to", rep, op, func() { _, _, err = eng.ReplayTo(txn) })
		rec.end(rep)
		if err != nil {
			return err
		}
		op++
	}

	file := filepath.Join(r.dir, "trace.jsonl")
	if err := writeSpans(file, rec.spans); err != nil {
		return err
	}
	r.res.TraceFile = file
	r.spanMetrics(rec.spans, tr.counts, t.rootSpan)
	r.res.Layer["trace.overhead_ratio"] = ratio(median(traced), median(untraced))
	return nil
}
