package analytics

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/gtest"
	"repro/internal/storage"
	"repro/internal/timeline"
)

// checkPaths asserts PathsEngine ≡ NaivePaths to the byte on g in both
// modes, over the empty window, a 1-point and a 2-point window, the whole
// timeline and random ranges, with random node sets, sources and targets
// absent from the window, and DURING windows that start after a source's
// first point.
func checkPaths(t *testing.T, g *core.Graph, r *rand.Rand) {
	t.Helper()
	tl := g.Timeline()
	T, N := tl.Len(), g.NumNodes()
	pick := func(k int) []core.NodeID {
		out := make([]core.NodeID, k)
		for i := range out {
			out[i] = core.NodeID(r.Intn(N))
		}
		return out
	}
	all := make([]core.NodeID, N)
	for n := range all {
		all[n] = core.NodeID(n)
	}
	type query struct {
		win      timeline.Interval
		src, dst []core.NodeID
	}
	wins := []timeline.Interval{tl.Empty(), tl.Point(timeline.Time(r.Intn(T))), tl.All()}
	if T >= 2 {
		lo := timeline.Time(r.Intn(T - 1))
		wins = append(wins, tl.Range(lo, lo+1))
	}
	for i := 0; i < 3; i++ {
		wins = append(wins, gtest.RandomRange(r, tl))
	}
	var qs []query
	for _, win := range wins {
		qs = append(qs, query{win, pick(1 + r.Intn(3)), pick(1 + r.Intn(5))}, query{win, pick(1 + r.Intn(3)), all})
		if win.IsEmpty() {
			continue
		}
		var absent []core.NodeID
		for _, n := range all {
			if g.NodeTau(n).Next(int(win.Min())) < 0 || g.NodeTau(n).Next(int(win.Min())) > int(win.Max()) {
				absent = append(absent, n)
			}
		}
		if len(absent) > 0 {
			qs = append(qs, query{win, absent, all}, query{win, append(pick(2), absent...), absent})
		}
	}
	for k := 0; k < 3; k++ {
		u := core.NodeID(r.Intn(N))
		if first := g.NodeTau(u).Next(0); first < T-1 {
			lo := first + 1 + r.Intn(T-first-1)
			hi := lo + r.Intn(T-lo)
			qs = append(qs, query{tl.Range(timeline.Time(lo), timeline.Time(hi)), []core.NodeID{u}, all})
		}
	}
	for _, q := range qs {
		for _, mode := range []string{ModeEarliest, ModeFastest} {
			spec := PathsSpec{Mode: mode, Src: q.src, Dst: q.dst, Window: q.win}
			want := asJSON(t, NaivePaths(g, spec))
			if got := asJSON(t, NewPathsEngine(g, spec).Run()); got != want {
				t.Fatalf("paths (%s %s src=%v) diverges:\n got %s\nwant %s", mode, q.win, q.src, got, want)
			}
		}
	}
}

// storedForms returns g as the storage layer serves it: decoded from a
// Save'd buffer, and read from a snapshot file as graphtempod -dataset does.
func storedForms(t *testing.T, g *core.Graph) map[string]*core.Graph {
	t.Helper()
	var buf bytes.Buffer
	if err := storage.Save(&buf, g); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.gts")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := storage.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	file, err := storage.LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*core.Graph{"load": loaded.Graph, "file": file}
}

// TestPathsEquivalence proves the frontier engine byte-identical to the
// oracle on a 320-point long-lived graph (g00) and 50 random graphs, each as
// built, replayed through an accumulator (point-index columns frozen
// shorter than the final id space) and read back from storage.
func TestPathsEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	graphs := []*core.Graph{gtest.LongLivedGraph(r, 320)}
	for i := 0; i < 50; i++ {
		graphs = append(graphs, gtest.RandomGraph(r, gtest.DefaultParams()))
	}
	for i, g := range graphs {
		forms := storedForms(t, g)
		forms["built"], forms["accumulated"] = g, gtest.Accumulated(g)
		for form, fg := range forms {
			t.Run(fmt.Sprintf("g%02d/%s", i, form), func(t *testing.T) {
				checkPaths(t, fg, rand.New(rand.NewSource(int64(i))))
			})
		}
	}
}

// probeCtx is a context that reports cancellation from its n'th Err call
// on, counting the calls.
type probeCtx struct {
	context.Context
	n, calls int64
}

func (c *probeCtx) Err() error {
	if c.calls++; c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestPathsRunCtxCancels checks that a FASTEST over a long window stops at
// a probe, both for a context canceled before the call and for one canceled
// at a later probe mid-sweep, and returns the context's error with no
// answer.
func TestPathsRunCtxCancels(t *testing.T) {
	g := gtest.LongLivedGraph(rand.New(rand.NewSource(5)), 320)
	all := make([]core.NodeID, g.NumNodes())
	for n := range all {
		all[n] = core.NodeID(n)
	}
	eng := NewPathsEngine(g, PathsSpec{Mode: ModeFastest, Src: all[:3], Dst: all, Window: g.Timeline().All()})

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := eng.RunCtx(canceled); !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("pre-canceled RunCtx = (%v, %v), want (nil, context.Canceled)", res, err)
	}

	// The first departure's sweep probes every 16 of its 320 points; canceling
	// at probe 7 stops it mid-sweep.
	late := &probeCtx{Context: context.Background(), n: 7}
	if res, err := eng.RunCtx(late); !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("late-canceled RunCtx = (%v, %v), want (nil, context.Canceled)", res, err)
	}
	if late.calls > 8 {
		t.Errorf("RunCtx called Err %d times, want it to stop at the cancel seen by probe 7", late.calls)
	}

	want := asJSON(t, NaivePaths(g, eng.spec))
	if res, err := eng.RunCtx(context.Background()); err != nil || asJSON(t, res) != want {
		t.Fatalf("uncanceled RunCtx after cancels = (%v, %v), want the oracle's answer", res, err)
	}
}
