package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gtest"
	"repro/internal/stream"
	"repro/internal/timeline"
)

// This file is the bi-temporal equivalence oracle: every AS OF
// reconstruction the engine performs (an in-memory anchor resumed, with the
// records after it folded in, or a replay from the first record when no
// anchor lies below) must be byte-identical — under the canonical snapshot
// serialization — to the naive oracle that replays the first txn journal
// records into a fresh series. The oracle runs over synthetic DBLP at three scales, seeded
// random series, and retroactive-ingest histories.

// snapBytes canonicalizes a graph as its binary snapshot encoding.
func snapBytes(t *testing.T, g *core.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

// oracleReplay is the naive reference: append the first txn journal
// records, in transaction order, to a fresh series.
func oracleReplay(t *testing.T, attrs []core.AttrSpec, journal []stream.JournalEntry, txn int) *core.Graph {
	t.Helper()
	s := stream.New(attrs...)
	for i, e := range journal[:txn] {
		if _, err := s.AppendRecord(e.Record); err != nil {
			t.Fatalf("oracle replay record %d: %v", i, err)
		}
	}
	g, err := s.Graph()
	if err != nil {
		t.Fatalf("oracle graph: %v", err)
	}
	return g
}

// assertReplayMatchesOracle sweeps the given transactions and compares the
// engine's reconstruction against the oracle byte for byte. It returns how
// many reconstructions resumed from an anchor. Every graph it sees — the
// engine's live one (recovered, when the engine was reopened) and each
// reconstruction, resumed from an anchor (a snapshot's lazy columns, after a
// reopen) or replayed — must carry a point index equal to the transpose of
// its τ.
func assertReplayMatchesOracle(t *testing.T, e *Engine, attrs []core.AttrSpec, txns []int) int {
	t.Helper()
	journal := e.Series().Journal()
	if live, err := e.Series().Graph(); err != nil {
		t.Fatalf("live graph: %v", err)
	} else if err := gtest.PointIndexError(live); err != nil {
		t.Fatalf("live graph's point index: %v", err)
	}
	resumed := 0
	for _, txn := range txns {
		g, st, err := e.ReplayTo(txn)
		if err != nil {
			t.Fatalf("ReplayTo(%d): %v", txn, err)
		}
		if st.AnchorTxn > 0 {
			resumed++
		}
		if err := gtest.PointIndexError(g); err != nil {
			t.Fatalf("ReplayTo(%d) (%+v): point index: %v", txn, st, err)
		}
		want := snapBytes(t, oracleReplay(t, attrs, journal, txn))
		if got := snapBytes(t, g); !bytes.Equal(got, want) {
			t.Fatalf("ReplayTo(%d) diverges from full-replay oracle (%d vs %d bytes, %+v)",
				txn, len(got), len(want), st)
		}
	}
	return resumed
}

// graphBatches decomposes a generated graph into per-point ingest batches.
func graphBatches(g *core.Graph) (attrs []core.AttrSpec, labels []string, snaps []stream.Snapshot) {
	attrs = g.Attrs()
	tl := g.Timeline()
	for ti := 0; ti < tl.Len(); ti++ {
		var snap stream.Snapshot
		for n := 0; n < g.NumNodes(); n++ {
			id := core.NodeID(n)
			if !g.NodeTau(id).Contains(ti) {
				continue
			}
			rec := stream.NodeRecord{Label: g.NodeLabel(id)}
			for a, spec := range attrs {
				v := g.ValueString(core.AttrID(a), id, timeline.Time(ti))
				if v == "" {
					continue
				}
				if spec.Kind == core.Static {
					if rec.Static == nil {
						rec.Static = map[string]string{}
					}
					rec.Static[spec.Name] = v
				} else {
					if rec.Varying == nil {
						rec.Varying = map[string]string{}
					}
					rec.Varying[spec.Name] = v
				}
			}
			snap.Nodes = append(snap.Nodes, rec)
		}
		for eID := 0; eID < g.NumEdges(); eID++ {
			id := core.EdgeID(eID)
			if !g.EdgeTau(id).Contains(ti) {
				continue
			}
			ep := g.Edge(id)
			snap.Edges = append(snap.Edges, stream.EdgeRecord{
				U: g.NodeLabel(ep.U), V: g.NodeLabel(ep.V),
			})
		}
		labels = append(labels, tl.Label(timeline.Time(ti)))
		snaps = append(snaps, snap)
	}
	return attrs, labels, snaps
}

// TestReplayToOracleDBLP replays the synthetic DBLP stream at three scales
// and checks point-in-time reconstruction against the oracle at several
// transactions, with a mid-stream checkpoint; each reconstruction keeps the
// states it passes as anchors, so both the anchor-resume and the
// full-replay paths are exercised.
func TestReplayToOracleDBLP(t *testing.T) {
	for _, scale := range []float64{0.01, 0.02, 0.04} {
		scale := scale
		t.Run(fmt.Sprintf("scale=%g", scale), func(t *testing.T) {
			attrs, labels, snaps := graphBatches(dataset.DBLPScaled(7, scale))
			dir := t.TempDir()
			e, err := Open(dir, attrs, Options{CheckpointRecords: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			for i, label := range labels {
				if err := e.Append(label, snaps[i]); err != nil {
					t.Fatalf("append %s: %v", label, err)
				}
				if i == len(labels)/2 {
					if err := e.Checkpoint(); err != nil {
						t.Fatalf("checkpoint: %v", err)
					}
				}
			}
			n := len(labels)
			resumed := assertReplayMatchesOracle(t, e, attrs, []int{1, n / 4, n / 2, 3 * n / 4, n})
			if resumed == 0 {
				t.Fatalf("no reconstruction resumed from an anchor an earlier one kept")
			}
		})
	}
}

// randomJournal drives n random batches into the engine, about a quarter
// of them retroactive at random positions, with a checkpoint after every
// tenth; static values are a pure function of the node label so histories
// stay schema-consistent. Labels continue after the points already there.
func randomJournal(t *testing.T, e *Engine, r *rand.Rand, n int) {
	t.Helper()
	live := e.Series().Labels()
	for i, end := len(live), len(live)+n; i < end; i++ {
		label := fmt.Sprintf("p%d", i)
		var snap stream.Snapshot
		seen := map[string]bool{}
		for k := 0; k < 2+r.Intn(5); k++ {
			node := fmt.Sprintf("n%d", r.Intn(12))
			if seen[node] {
				continue
			}
			seen[node] = true
			gender := "f"
			if node[1]%2 == 0 {
				gender = "m"
			}
			snap.Nodes = append(snap.Nodes, stream.NodeRecord{
				Label:   node,
				Static:  map[string]string{"gender": gender},
				Varying: map[string]string{"pubs": fmt.Sprint(r.Intn(9))},
			})
		}
		for k := 0; k+1 < len(snap.Nodes); k++ {
			if r.Intn(2) == 0 {
				snap.Edges = append(snap.Edges, stream.EdgeRecord{
					U: snap.Nodes[k].Label, V: snap.Nodes[k+1].Label,
				})
			}
		}
		if len(live) > 0 && r.Intn(4) == 0 {
			before := live[r.Intn(len(live))]
			if _, err := e.AppendAt(label, snap, before); err != nil {
				t.Fatalf("AppendAt(%s before %s): %v", label, before, err)
			}
		} else if err := e.Append(label, snap); err != nil {
			t.Fatalf("Append(%s): %v", label, err)
		}
		live = append(live, label)
		if i%10 == 9 {
			if err := e.Checkpoint(); err != nil {
				t.Fatalf("checkpoint at %d: %v", i, err)
			}
		}
	}
}

// TestReplayToOracleRandomRetroactive sweeps EVERY transaction of a random
// history interleaving tail appends, retroactive inserts and checkpoints.
func TestReplayToOracleRandomRetroactive(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			e, err := Open(dir, testAttrs, Options{CheckpointRecords: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			const n = 30
			randomJournal(t, e, rand.New(rand.NewSource(seed)), n)
			txns := make([]int, n)
			for i := range txns {
				txns[i] = i + 1
			}
			assertReplayMatchesOracle(t, e, testAttrs, txns)
		})
	}
}

// TestReplayToSurvivesCrashRestart abandons the engine without Close (the
// kill -9 shape: FsyncAlways, so every acknowledged record is on disk) and
// checks that the reopened engine reconstructs every transaction — before
// and after the snapshot watermark — identically to the oracle.
func TestReplayToSurvivesCrashRestart(t *testing.T) {
	dir := t.TempDir()
	e := openTestEngine(t, dir, Options{Fsync: FsyncAlways, CheckpointRecords: -1})
	appendN(t, e, 0, 6)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	appendN(t, e, 6, 10)
	// Retroactive tail: t10 lands before t3, after the checkpoint.
	label, snap := testBatch(10)
	if _, err := e.AppendAt(label, snap, "t3"); err != nil {
		t.Fatal(err)
	}
	// No Close — the reopened engine must rebuild the txn axis from disk.
	e2 := openTestEngine(t, dir, Options{Fsync: FsyncAlways, CheckpointRecords: -1})
	defer e2.Close()
	if got := e2.Series().Txn(); got != 11 {
		t.Fatalf("recovered txn %d, want 11", got)
	}
	// Every recovered entry carries its logged bytes, from the snapshot or
	// from the WAL.
	logged := e.Series().Journal()
	for i, j := range e2.Series().Journal() {
		if want := logged[i]; j.Label != want.Label || j.Before != want.Before || !bytes.Equal(j.Record, want.Record) {
			t.Fatalf("recovered entry %d (%s) carries record %x, want %x", i, j.Label, j.Record, want.Record)
		}
	}
	// The reopened engine's one anchor is the snapshot (covers 6): txn 11
	// resumes from it, and its delta carries the retroactive record, which
	// the fold applies as ingest did.
	g, st, err := e2.ReplayTo(11)
	if err != nil {
		t.Fatal(err)
	}
	if want := (ReplayStats{AnchorTxn: 6, Replayed: 5}); st != want {
		t.Fatalf("retroactive delta: %+v, want %+v", st, want)
	}
	// That replay kept txns 7..11 as anchors; only txn 1 has none below it.
	txns := []int{1, 3, 6, 7, 10, 11}
	if resumed := assertReplayMatchesOracle(t, e2, testAttrs, txns); resumed != 5 {
		t.Fatalf("%d reconstructions resumed from an anchor, want 5", resumed)
	}
	if g.Timeline().Len() != 11 {
		t.Fatalf("head reconstruction has %d points, want 11", g.Timeline().Len())
	}
}

// TestReplayToFromAnchorsMatchesScratch is the durable arm of the stream
// package's test of the same name: seeded random histories of tail
// appends, retroactive inserts, batches that introduce nodes (some inserted
// retroactively, which renumbers), refused batches, materializations and
// checkpoints, long enough to double the anchor spacing twice; every
// transaction, in random order, must equal the replay from the first
// record — on the engine that ingested them and on one reopened without
// Close, whose first anchor is its snapshot.
func TestReplayToFromAnchorsMatchesScratch(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			e := openTestEngine(t, dir, Options{Fsync: FsyncAlways, CheckpointRecords: -1, Logger: quiet})
			var labels []string
			for i := 0; len(labels) < 150; i++ {
				label, before := fmt.Sprintf("p%d", i), ""
				var snap stream.Snapshot
				for _, j := range r.Perm(4 + i/3)[:1+r.Intn(4)] {
					node := fmt.Sprintf("n%d", j)
					snap.Nodes = append(snap.Nodes, stream.NodeRecord{Label: node,
						Static: map[string]string{"gender": string("fm"[j%2])}, Varying: map[string]string{"pubs": fmt.Sprint(r.Intn(5))}})
				}
				switch r.Intn(8) {
				case 0, 1:
					if len(labels) > 0 {
						before = labels[r.Intn(len(labels))]
					}
				case 2:
					if len(labels) > 0 {
						label = labels[r.Intn(len(labels))] // refused: the label is taken
					}
				case 3:
					snap.Edges = append(snap.Edges, stream.EdgeRecord{U: snap.Nodes[0].Label, V: "absent"}) // refused
				}
				at, err := e.AppendAt(label, snap, before)
				if err != nil {
					continue
				}
				labels = slices.Insert(labels, at, label)
				switch r.Intn(6) {
				case 0:
					if err := e.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				case 1, 2, 3:
					if _, err := e.Series().Graph(); err != nil { // as the server does after an ingest
						t.Fatal(err)
					}
				}
			}
			sweep := func(e *Engine) {
				t.Helper()
				journal := e.Series().Journal()
				resumed := 0
				for _, i := range r.Perm(len(journal)) {
					g, st, err := e.ReplayTo(i + 1)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(snapBytes(t, g), snapBytes(t, oracleReplay(t, testAttrs, journal, i+1))) {
						t.Fatalf("ReplayTo(%d) (%+v) differs from the replay from the first record", i+1, st)
					}
					if st.AnchorTxn > 0 {
						resumed++
					}
				}
				if st := e.Series().Anchors(); st.Spacing < 4 || st.Count > 33 || resumed < len(journal)/2 {
					t.Fatalf("%+v after %d transactions, %d resumed", st, len(journal), resumed)
				}
			}
			sweep(e)
			// No Close: the reopened engine recovers from the files alone.
			e2 := openTestEngine(t, dir, Options{Fsync: FsyncAlways, CheckpointRecords: -1, Logger: quiet})
			defer e2.Close()
			if st := e2.Series().Anchors(); st.Count != 1 {
				t.Fatalf("reopened engine has %d anchors, want its snapshot's 1", st.Count)
			}
			sweep(e2)
			if st := e2.Series().Anchors(); st.Spacing != 8 {
				t.Fatalf("%d transactions keep spacing %d, want 8", e2.Series().Txn(), st.Spacing)
			}

			// Replays racing appends on the reopened engine, which resume
			// from its snapshot and its replays' anchors while the appends
			// double the spacing and drop anchors (run with -race).
			journal := e2.Series().Journal()
			want := make([][]byte, len(journal)+1)
			for txn := 1; txn <= len(journal); txn++ {
				want[txn] = snapBytes(t, oracleReplay(t, testAttrs, journal, txn))
			}
			errs := make(chan error, 3)
			var wg sync.WaitGroup
			for w := range 3 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					r := rand.New(rand.NewSource(seed*10 + int64(w)))
					n := 60
					if w == 0 {
						n = 110 // past 256 entries: the spacing doubles to 16 mid-race
					}
					for i := 0; i < n; i++ {
						if w == 0 {
							label, snap := testBatch(1000 + i)
							if _, err := e2.AppendAt(label, snap, ""); err != nil {
								errs <- err
								return
							}
							continue
						}
						txn := 1 + r.Intn(len(journal))
						g, _, err := e2.ReplayTo(txn)
						if err == nil && !bytes.Equal(snapBytes(t, g), want[txn]) {
							err = fmt.Errorf("racing ReplayTo(%d) differs from the replay from the first record", txn)
						}
						if err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if st := e2.Series().Anchors(); st.Spacing != 16 {
				t.Fatalf("%d transactions keep spacing %d, want 16", e2.Series().Txn(), st.Spacing)
			}
		})
	}
}
