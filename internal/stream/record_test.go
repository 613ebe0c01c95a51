package stream_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/stream"
)

// recAttrs has two static attributes, so one node can contradict both and
// the reported conflict must be the first in schema order, and two
// time-varying ones.
var recAttrs = []core.AttrSpec{
	{Name: "grade", Kind: core.Static},
	{Name: "class", Kind: core.Static},
	{Name: "contacts", Kind: core.TimeVarying},
	{Name: "mood", Kind: core.TimeVarying},
}

func saved(t testing.TB, g *core.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := storage.Save(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// historyGen draws random batches for a series that holds labels, each
// valid or carrying one fault. known holds the static values of the
// accepted batches, so most batches restate them and some contradict them.
type historyGen struct {
	r      *rand.Rand
	labels []string
	known  map[string][2]string
	next   int
}

// batch returns the next batch and the fault it carries ("" for none;
// faults the check ignores — unknown attribute names, a static attribute
// under varying, empty varying values — count as none).
func (h *historyGen) batch() (label, before string, snap stream.Snapshot, fault string) {
	r := h.r
	label = fmt.Sprintf("p%d", h.next)
	h.next++
	if len(h.labels) > 0 && r.Intn(4) == 0 {
		before = h.labels[r.Intn(len(h.labels))]
	}
	switch r.Intn(12) {
	case 0:
		if len(h.labels) > 0 {
			label, fault = h.labels[r.Intn(len(h.labels))], "duplicate time point label"
		}
	case 1:
		before, fault = "nowhere", "no time point labeled"
	}
	values := []string{"a", "b", "c"}
	perm := r.Perm(24)[:1+r.Intn(8)]
	for _, i := range perm {
		n := stream.NodeRecord{Label: fmt.Sprintf("n%d", i)}
		if prev, ok := h.known[n.Label]; ok && r.Intn(6) > 0 {
			if r.Intn(3) > 0 {
				n.Static = map[string]string{"grade": prev[0], "class": prev[1]}
			}
		} else if r.Intn(5) > 0 {
			n.Static = map[string]string{"grade": values[r.Intn(3)], "class": values[r.Intn(3)]}
		}
		n.Varying = map[string]string{"contacts": values[r.Intn(3)]}
		switch r.Intn(10) {
		case 0:
			n.Varying["mood"] = ""
		case 1:
			n.Varying["grade"] = "z"
		case 2:
			n.Varying["weather"] = "rain"
			if n.Static == nil {
				n.Static = map[string]string{}
			}
			n.Static["height"], n.Static["mood"] = "tall", "x"
		case 3:
			n.Varying["mood"] = values[r.Intn(3)]
		}
		snap.Nodes = append(snap.Nodes, n)
	}
	switch r.Intn(14) {
	case 0:
		snap.Nodes = append(snap.Nodes, stream.NodeRecord{Label: ""})
	case 1:
		snap.Nodes = append(snap.Nodes, snap.Nodes[0])
	case 2:
		snap.Edges = append(snap.Edges, stream.EdgeRecord{U: snap.Nodes[0].Label, V: "absent"})
	}
	for range r.Intn(2 * len(snap.Nodes)) {
		snap.Edges = append(snap.Edges, stream.EdgeRecord{
			U: snap.Nodes[r.Intn(len(snap.Nodes))].Label, V: snap.Nodes[r.Intn(len(snap.Nodes))].Label,
		})
	}
	return label, before, snap, fault
}

// accepted records an accepted batch's labels and static values.
func (h *historyGen) accepted(label string, at int, snap stream.Snapshot) {
	h.labels = append(h.labels[:at], append([]string{label}, h.labels[at:]...)...)
	for _, n := range snap.Nodes {
		prev := h.known[n.Label]
		if v, ok := n.Static["grade"]; ok {
			prev[0] = v
		}
		if v, ok := n.Static["class"]; ok {
			prev[1] = v
		}
		h.known[n.Label] = prev
	}
}

// contradictsBoth reports whether a node of snap contradicts both of its
// recorded static values.
func (h *historyGen) contradictsBoth(snap stream.Snapshot) bool {
	for _, n := range snap.Nodes {
		prev, ok := h.known[n.Label]
		g, gok := n.Static["grade"]
		c, cok := n.Static["class"]
		if ok && gok && cok && prev[0] != "" && prev[1] != "" && g != prev[0] && c != prev[1] {
			return true
		}
	}
	return false
}

// TestRecordPathMatchesMapOracle drives a Series (records checked and
// applied from their bytes) and the map-path Oracle (batches decoded into
// maps, checked by validate and applied by applyAcc) through random
// histories of tail and retroactive batches, a share of which carry a
// fault. Every verdict must be the oracle's, error text included, and every
// graph — after each batch and replayed to each transaction — must Save to
// the oracle's bytes. Each fault the check rejects must occur, and so must
// the kinds it ignores.
func TestRecordPathMatchesMapOracle(t *testing.T) {
	seen := map[string]int{}
	for seed := int64(1); seed <= 24; seed++ {
		h := &historyGen{r: rand.New(rand.NewSource(seed)), known: map[string][2]string{}}
		s, o := stream.New(recAttrs...), stream.NewOracle(recAttrs...)
		for step := 0; step < 60; step++ {
			label, before, snap, fault := h.batch()
			at, err := s.AppendAt(label, snap, before)
			oat, oerr := o.AppendAt(label, snap, before)
			if fmt.Sprint(err) != fmt.Sprint(oerr) || at != oat {
				t.Fatalf("seed %d step %d (%s before %q): record path (%d, %v), oracle (%d, %v)",
					seed, step, label, before, at, err, oat, oerr)
			}
			if fault != "" && (err == nil || !strings.Contains(err.Error(), fault)) {
				t.Fatalf("seed %d step %d: fault %q gave %v", seed, step, fault, err)
			}
			if err != nil {
				for _, kind := range []string{"duplicate time point label", "no time point labeled", "node with empty label",
					"appears twice", "static attribute grade", "static attribute class", "references a node not in"} {
					if strings.Contains(err.Error(), kind) {
						seen[kind]++
					}
				}
				if strings.Contains(err.Error(), "static attribute grade") && h.contradictsBoth(snap) {
					seen["static conflict on both attributes"]++
				}
				if s.Len() != o.Len() || s.Txn() != o.Len() {
					t.Fatalf("seed %d step %d: a rejected batch changed the series", seed, step)
				}
				continue
			}
			for _, n := range snap.Nodes {
				if v, ok := n.Varying["mood"]; ok && v == "" {
					seen["empty varying value"]++
				}
				if _, ok := n.Varying["grade"]; ok {
					seen["static attribute under varying"]++
				}
				if _, ok := n.Static["height"]; ok {
					seen["unknown attribute"]++
				}
			}
			h.accepted(label, at, snap)
			if s.Len() != o.Len() || s.Txn() != o.Len() {
				t.Fatalf("seed %d step %d: series has %d points, txn %d; oracle %d", seed, step, s.Len(), s.Txn(), o.Len())
			}
			g, err := s.Graph()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(saved(t, g), saved(t, o.Graph())) {
				t.Fatalf("seed %d step %d (%s before %q): graphs differ", seed, step, label, before)
			}
		}
		for txn := 1; txn <= s.Txn(); txn++ {
			g, err := s.ReplayTo(txn)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(saved(t, g), saved(t, o.ReplayTo(txn))) {
				t.Fatalf("seed %d: ReplayTo(%d) differs from the oracle's", seed, txn)
			}
		}
	}
	for _, kind := range []string{"duplicate time point label", "no time point labeled", "node with empty label",
		"appears twice", "static attribute grade", "static attribute class", "references a node not in",
		"static conflict on both attributes", "empty varying value", "static attribute under varying", "unknown attribute"} {
		if seen[kind] == 0 {
			t.Errorf("no history exercised %q", kind)
		}
	}
	t.Logf("exercised: %v", seen)
}

// fuzzBase is a series of three points and the oracle fed the same batches.
func fuzzBase(t testing.TB) (*stream.Series, *stream.Oracle) {
	s, o := stream.New(recAttrs...), stream.NewOracle(recAttrs...)
	h := &historyGen{r: rand.New(rand.NewSource(7)), known: map[string][2]string{}}
	for s.Len() < 3 {
		label, before, snap, _ := h.batch()
		if at, err := s.AppendAt(label, snap, before); err == nil {
			h.accepted(label, at, snap)
			if _, err := o.AppendAt(label, snap, before); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s, o
}

// FuzzAppendRecord feeds arbitrary bytes to AppendRecord on a series of
// three points: it must never panic; a rejected record must leave Len, Txn
// and the graph as they were; an accepted one must decode, and the oracle
// must accept the decoded batch and build the same graph.
func FuzzAppendRecord(f *testing.F) {
	h := &historyGen{r: rand.New(rand.NewSource(8)), known: map[string][2]string{}, next: 100}
	for range 8 {
		label, before, snap, _ := h.batch()
		f.Add(stream.EncodeRecord(label, before, snap))
	}
	// A record no encoder writes: keys repeated within a map, where the
	// last value counts, as in the decoded map.
	dup := &codec.Enc{}
	dup.Byte(1)
	dup.Str("q9")
	dup.Uvarint(1)
	dup.Str("n30")
	for _, pairs := range [][]string{{"grade", "a", "grade", "b"}, {"contacts", "a", "mood", "c", "contacts", "b"}} {
		dup.Uvarint(uint64(len(pairs) / 2))
		for _, s := range pairs {
			dup.Str(s)
		}
	}
	dup.Uvarint(0)
	f.Add(dup.B)
	f.Add([]byte{1, 2, 'p', '9', 0, 0})
	f.Add([]byte{2, 2, 'p', '9', 2, 'p', '0', 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, rec []byte) {
		s, o := fuzzBase(t)
		before, err := s.Graph()
		if err != nil {
			t.Fatal(err)
		}
		want := saved(t, before)
		if _, err := s.AppendRecord(rec); err != nil {
			g, gerr := s.Graph()
			if gerr != nil || s.Len() != 3 || s.Txn() != 3 || !bytes.Equal(saved(t, g), want) {
				t.Fatalf("rejected record (%v) changed the series: len %d txn %d", err, s.Len(), s.Txn())
			}
			return
		}
		label, pos, snap, err := stream.DecodeIngestRecord(rec)
		if err != nil {
			t.Fatalf("accepted a record the decoder rejects: %v", err)
		}
		if _, err := o.AppendAt(label, snap, pos); err != nil {
			t.Fatalf("accepted a record the oracle rejects: %v", err)
		}
		g, err := s.Graph()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved(t, g), saved(t, o.Graph())) {
			t.Fatal("accepted record builds a graph the oracle does not")
		}
	})
}
