package stream_test

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/stream"
)

// anchoredHistory appends n batches of a historyGen to s — tail and
// retroactive ones, some introducing nodes, some refused — materializing
// the graph after most accepted ones, as a server does, and asking
// ReplayTo of a random earlier txn now and then, so that anchors exist
// while the history grows. It returns the graph Graph() returned at each
// txn.
func anchoredHistory(t *testing.T, s *stream.Series, h *historyGen, n int) map[int][]byte {
	t.Helper()
	live := map[int][]byte{}
	for step := 0; step < n; step++ {
		label, before, snap, _ := h.batch()
		at, err := s.AppendAt(label, snap, before)
		if err != nil {
			continue
		}
		h.accepted(label, at, snap)
		if h.r.Intn(4) > 0 {
			g, err := s.Graph()
			if err != nil {
				t.Fatal(err)
			}
			live[s.Txn()] = saved(t, g)
		}
		if h.r.Intn(10) == 0 {
			if _, err := s.ReplayTo(1 + h.r.Intn(s.Txn())); err != nil {
				t.Fatal(err)
			}
		}
	}
	return live
}

// checkAnchorBound checks the retention rule: a power-of-two spacing no
// finer than the history needs, and no more anchors than the bound allows.
func checkAnchorBound(t *testing.T, s *stream.Series) stream.AnchorStats {
	t.Helper()
	st, n := s.Anchors(), s.Txn()
	if bits.OnesCount(uint(st.Spacing)) != 1 || n > stream.MaxAnchors*st.Spacing ||
		(st.Spacing > 1 && n <= stream.MaxAnchors*st.Spacing/2) {
		t.Fatalf("spacing %d for %d transactions (bound %d)", st.Spacing, n, stream.MaxAnchors)
	}
	if st.Count > stream.MaxAnchors+1 || (st.Count > 0) != (st.Bytes > 0) {
		t.Fatalf("%+v for %d transactions", st, n)
	}
	return st
}

// TestReplayToFromAnchorsMatchesScratch checks every transaction of seeded
// random histories, long enough to double the anchor spacing at least
// twice, in random order: ReplayTo, resumed from whichever anchor lies
// nearest below, must Save to the bytes of the replay from the first record
// and of the graph the series materialized at that txn.
func TestReplayToFromAnchorsMatchesScratch(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		h := &historyGen{r: rand.New(rand.NewSource(seed)), known: map[string][2]string{}}
		s := stream.New(recAttrs...)
		live := anchoredHistory(t, s, h, 6*stream.MaxAnchors)
		if st := checkAnchorBound(t, s); st.Spacing < 4 {
			t.Fatalf("seed %d: %d transactions leave spacing %d: the history crossed fewer than two doublings", seed, s.Txn(), st.Spacing)
		}
		resumed := 0
		for _, i := range h.r.Perm(s.Txn()) {
			txn := i + 1
			g, from, err := s.ReplayFrom(txn)
			if err != nil {
				t.Fatal(err)
			}
			want, err := stream.ScratchReplay(s, txn)
			if err != nil {
				t.Fatal(err)
			}
			got := saved(t, g)
			if !bytes.Equal(got, saved(t, want)) {
				t.Fatalf("seed %d: ReplayTo(%d), resumed from txn %d, differs from the scratch replay", seed, txn, from)
			}
			if b, ok := live[txn]; ok && !bytes.Equal(got, b) {
				t.Fatalf("seed %d: ReplayTo(%d) differs from the graph served at that txn", seed, txn)
			}
			if from > 0 {
				resumed++
			}
		}
		checkAnchorBound(t, s)
		if resumed < s.Txn()/2 {
			t.Fatalf("seed %d: only %d of %d reconstructions resumed from an anchor", seed, resumed, s.Txn())
		}
	}
}

// TestReplayToRacesAppends runs ReplayTo of random transactions while
// another goroutine appends, materializes and replays (so anchors are
// added, the spacing doubles and anchors are dropped); every
// reconstruction must still equal the scratch replay. Run it with -race.
func TestReplayToRacesAppends(t *testing.T) {
	h := &historyGen{r: rand.New(rand.NewSource(7)), known: map[string][2]string{}}
	s := stream.New(recAttrs...)
	anchoredHistory(t, s, h, 8)
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		anchoredHistory(t, s, h, 4*stream.MaxAnchors)
	}()
	errs := make(chan error, 2)
	for w := int64(0); w < 2; w++ {
		wg.Add(1)
		go func(r *rand.Rand) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				txn := 1 + r.Intn(s.Txn())
				g, err := s.ReplayTo(txn)
				if err == nil {
					var want []byte
					if w, werr := stream.ScratchReplay(s, txn); werr != nil {
						err = werr
					} else if want = saved(t, w); !bytes.Equal(saved(t, g), want) {
						err = fmt.Errorf("ReplayTo(%d) differs from the scratch replay", txn)
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(rand.New(rand.NewSource(w)))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	checkAnchorBound(t, s)
}

// TestApplyRechecksStaleVerdict applies verdicts that another append made
// stale: one whose label that append took is refused, and one whose
// insertion point that append moved lands where the point is now, as
// AppendRecord would place it. A verdict applied at the txn it was checked
// at is applied as it is.
func TestApplyRechecksStaleVerdict(t *testing.T) {
	batch := func(nodes ...string) stream.Snapshot {
		var snap stream.Snapshot
		for _, n := range nodes {
			snap.Nodes = append(snap.Nodes, stream.NodeRecord{Label: n, Varying: map[string]string{"contacts": "a"}})
		}
		return snap
	}
	s, ref := stream.New(recAttrs...), stream.New(recAttrs...)
	for _, x := range []*stream.Series{s, ref} {
		for i := 0; i < 4; i++ {
			if err := x.Append(fmt.Sprintf("t%d", i), batch("n1", "n2")); err != nil {
				t.Fatal(err)
			}
		}
	}
	dup, err := s.CheckRecord(stream.EncodeRecord("t9", "", batch("n1")))
	if err != nil {
		t.Fatal(err)
	}
	retro, err := s.CheckRecord(stream.EncodeRecord("r1", "t2", batch("n3")))
	if err != nil {
		t.Fatal(err)
	}
	// Another append in between: it takes t9 and moves t2 one place on.
	if _, err := s.AppendAt("t9", batch("n2"), "t1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(dup); err == nil || s.Txn() != 5 {
		t.Fatalf("stale verdict for a label taken since: err %v, txn %d", err, s.Txn())
	}
	at, err := s.Apply(retro)
	if err != nil || at != 3 {
		t.Fatalf("stale retroactive verdict applied at %d (%v), want 3: t2 moved from 2 to 3", at, err)
	}
	fresh, err := s.CheckRecord(stream.EncodeRecord("t10", "", batch("n4")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(fresh); err != nil {
		t.Fatal(err)
	}
	// ref takes the same accepted batches through AppendRecord.
	for _, e := range s.Journal()[4:] {
		if _, err := ref.AppendRecord(e.Record); err != nil {
			t.Fatal(err)
		}
	}
	g, _ := s.Graph()
	want, _ := ref.Graph()
	if !bytes.Equal(saved(t, g), saved(t, want)) {
		t.Fatal("the series that applied verdicts differs from the one that appended records")
	}
	// A verdict another series gave at the same txn is checked again too.
	other := stream.New(recAttrs...)
	for i := 0; i < s.Txn(); i++ {
		if err := other.Append(fmt.Sprintf("u%d", i), batch("n1")); err != nil {
			t.Fatal(err)
		}
	}
	v, err := other.CheckRecord(stream.EncodeRecord("t0", "", batch("n1")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(v); err == nil {
		t.Fatal("a verdict from another series was applied unchecked")
	}
}
