package stream

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/timeline"
)

// graphGob canonicalizes a graph for equality checks through its stable
// textual dump: timeline labels, node labels with attribute histories, and
// edge endpoint pairs per time point.
func graphDump(t *testing.T, g *core.Graph) []byte {
	t.Helper()
	var b bytes.Buffer
	tl := g.Timeline()
	for ti := 0; ti < tl.Len(); ti++ {
		b.WriteString(tl.Label(timeline.Time(ti)))
		b.WriteByte('\n')
	}
	attrs := g.Attrs()
	for n := 0; n < g.NumNodes(); n++ {
		id := core.NodeID(n)
		b.WriteString(g.NodeLabel(id))
		for ti := 0; ti < tl.Len(); ti++ {
			if !g.NodeTau(id).Contains(ti) {
				continue
			}
			b.WriteByte(' ')
			b.WriteString(tl.Label(timeline.Time(ti)))
			for a := range attrs {
				b.WriteByte('=')
				b.WriteString(g.ValueString(core.AttrID(a), id, timeline.Time(ti)))
			}
		}
		b.WriteByte('\n')
	}
	for e := 0; e < g.NumEdges(); e++ {
		id := core.EdgeID(e)
		ep := g.Edge(id)
		b.WriteString(g.NodeLabel(ep.U))
		b.WriteString("->")
		b.WriteString(g.NodeLabel(ep.V))
		for ti := 0; ti < tl.Len(); ti++ {
			if g.EdgeTau(id).Contains(ti) {
				b.WriteByte(' ')
				b.WriteString(tl.Label(timeline.Time(ti)))
			}
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// TestAppendAtInsertsBeforeLabel checks that a retroactive append lands at
// the requested valid-time position while the journal keeps txn order.
func TestAppendAtInsertsBeforeLabel(t *testing.T) {
	attrs, labels, snaps := paperSnapshots()
	s := New(attrs...)
	for i, snap := range snaps {
		if err := s.Append(labels[i], snap); err != nil {
			t.Fatal(err)
		}
	}
	late := Snapshot{Nodes: []NodeRecord{{
		Label:   "u9",
		Static:  map[string]string{"gender": "m"},
		Varying: map[string]string{"publications": "5"},
	}}}
	pos, err := s.AppendAt("t0b", late, "t1")
	if err != nil {
		t.Fatalf("AppendAt: %v", err)
	}
	if pos != 1 {
		t.Fatalf("AppendAt position = %d, want 1", pos)
	}
	if got, want := s.Labels(), []string{"t0", "t0b", "t1", "t2"}; len(got) != len(want) {
		t.Fatalf("labels = %v, want %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("labels = %v, want %v", got, want)
			}
		}
	}
	if s.Txn() != 4 {
		t.Fatalf("Txn = %d, want 4", s.Txn())
	}
	j := s.Journal()
	if len(j) != 4 {
		t.Fatalf("journal has %d entries, want 4", len(j))
	}
	// Transaction order is ingest order: the retro record is LAST in the
	// journal even though its valid-time position is second.
	if j[3].Label != "t0b" || j[3].Before != "t1" {
		t.Fatalf("journal tail = %+v, want label t0b before t1", j[3])
	}
	for i := 0; i < 3; i++ {
		if j[i].Before != "" {
			t.Fatalf("journal[%d].Before = %q, want tail append", i, j[i].Before)
		}
	}
}

// TestAppendAtValidation covers the rejection paths: unknown anchor,
// duplicate label, and schema violations travel through the same
// validation as Append.
func TestAppendAtValidation(t *testing.T) {
	attrs, labels, snaps := paperSnapshots()
	s := New(attrs...)
	for i, snap := range snaps {
		if err := s.Append(labels[i], snap); err != nil {
			t.Fatal(err)
		}
	}
	ok := Snapshot{Nodes: []NodeRecord{{Label: "u9", Static: map[string]string{"gender": "m"}}}}
	if _, err := s.AppendAt("tX", ok, "nope"); err == nil {
		t.Error("AppendAt before unknown label succeeded")
	}
	if _, err := s.AppendAt("t1", ok, "t2"); err == nil {
		t.Error("AppendAt with duplicate point label succeeded")
	}
	// Static conflict with an existing node must be caught retroactively too.
	bad := Snapshot{Nodes: []NodeRecord{{Label: "u1", Static: map[string]string{"gender": "f"}}}}
	if _, err := s.AppendAt("tY", bad, "t1"); err == nil {
		t.Error("AppendAt with conflicting static value succeeded")
	}
	if s.Txn() != 3 || len(s.Labels()) != 3 {
		t.Fatalf("failed appends mutated the series: txn=%d labels=%v", s.Txn(), s.Labels())
	}
}

// TestReplayToPrefixesJournal checks ReplayTo(k) equals appending the
// first k journal records, decoded, to the map-path Oracle, for every k,
// across a history with retroactive inserts.
func TestReplayToPrefixesJournal(t *testing.T) {
	attrs, labels, snaps := paperSnapshots()
	s := New(attrs...)
	if err := s.Append(labels[0], snaps[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(labels[2], snaps[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendAt(labels[1], snaps[1], labels[2]); err != nil {
		t.Fatal(err)
	}
	journal := s.Journal()
	for txn := 1; txn <= len(journal); txn++ {
		got, err := s.ReplayTo(txn)
		if err != nil {
			t.Fatalf("ReplayTo(%d): %v", txn, err)
		}
		ref := NewOracle(attrs...)
		for _, e := range journal[:txn] {
			label, before, snap, err := DecodeIngestRecord(e.Record)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ref.AppendAt(label, snap, before); err != nil {
				t.Fatal(err)
			}
		}
		want := ref.Graph()
		if !bytes.Equal(graphDump(t, got), graphDump(t, want)) {
			t.Fatalf("ReplayTo(%d) diverges from prefix replay:\n%s\nvs\n%s",
				txn, graphDump(t, got), graphDump(t, want))
		}
	}
	// Bounds: zero and beyond-head are rejected.
	if _, err := s.ReplayTo(0); err == nil {
		t.Error("ReplayTo(0) succeeded")
	}
	if _, err := s.ReplayTo(len(journal) + 1); err == nil {
		t.Error("ReplayTo beyond head succeeded")
	}
}

// TestReplayToHeadMatchesGraph checks that replaying to the head txn is
// the same graph the live accumulator serves.
func TestReplayToHeadMatchesGraph(t *testing.T) {
	s := buildSeries(t)
	head, err := s.ReplayTo(s.Txn())
	if err != nil {
		t.Fatal(err)
	}
	live, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(graphDump(t, head), graphDump(t, live)) {
		t.Fatal("ReplayTo(head) diverges from the live graph")
	}
}

// TestRestoreResumesJournal rebuilds a series from its graph and journal —
// a history with a retroactive insert — and drives the original and the
// restored series through the same further batches: a tail append that
// introduces a node, a retroactive insert (which rebuilds the columns from
// the restored per-point batches), and a static conflict both must reject.
// Graphs, labels and journals must agree after every step. Restored from the
// graph of any journal prefix, with the rest folded in, the series must be
// the original too.
func TestRestoreResumesJournal(t *testing.T) {
	attrs, labels, snaps := paperSnapshots()
	s := New(attrs...)
	if err := s.Append(labels[0], snaps[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(labels[2], snaps[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendAt(labels[1], snaps[1], labels[2]); err != nil {
		t.Fatal(err)
	}
	g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	same := func(step string, r *Series) {
		t.Helper()
		sg, err1 := s.Graph()
		rg, err2 := r.Graph()
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: Graph: %v / %v", step, err1, err2)
		}
		if !bytes.Equal(graphDump(t, sg), graphDump(t, rg)) {
			t.Fatalf("%s: restored series diverges:\n%s\nvs\n%s", step, graphDump(t, rg), graphDump(t, sg))
		}
		if fmt.Sprint(s.Labels(), s.Journal()) != fmt.Sprint(r.Labels(), r.Journal()) {
			t.Fatalf("%s: labels/journal %v %v, want %v %v", step, r.Labels(), r.Journal(), s.Labels(), s.Journal())
		}
	}
	for covered := 1; covered <= 3; covered++ {
		gc, err := s.ReplayTo(covered)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Restore(gc, s.Journal(), covered)
		if err != nil {
			t.Fatalf("Restore covering %d: %v", covered, err)
		}
		same(fmt.Sprintf("restored from txn %d", covered), r)
	}
	r, err := Restore(g, s.Journal(), 3)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	both := func(step string, label string, snap Snapshot, before string, wantErr bool) {
		t.Helper()
		_, err1 := s.AppendAt(label, snap, before)
		_, err2 := r.AppendAt(label, snap, before)
		if (err1 != nil) != wantErr || (err2 != nil) != wantErr {
			t.Fatalf("%s: errors %v / %v, want error=%v", step, err1, err2, wantErr)
		}
		same(step, r)
	}
	n := func(label, gender, pubs string) NodeRecord {
		return NodeRecord{Label: label, Static: map[string]string{"gender": gender},
			Varying: map[string]string{"publications": pubs}}
	}
	both("tail", "t3", Snapshot{Nodes: []NodeRecord{n("u2", "f", "4"), n("u6", "f", "2")},
		Edges: []EdgeRecord{{"u6", "u2"}}}, "", false)
	both("retroactive", "t0b", Snapshot{Nodes: []NodeRecord{n("u7", "m", "1"), n("u1", "m", "2")},
		Edges: []EdgeRecord{{"u7", "u1"}}}, "t1", false)
	both("static conflict", "t4", Snapshot{Nodes: []NodeRecord{n("u5", "f", "1")}}, "", true)

	if _, err := Restore(g, s.Journal()[:2], 2); err == nil {
		t.Error("Restore accepted a graph whose timeline is not the covered entries'")
	}
	if _, err := Restore(g, s.Journal()[:2], 3); err == nil {
		t.Error("Restore accepted a journal shorter than the graph covers")
	}
}
