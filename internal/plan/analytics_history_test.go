package plan_test

import (
	"strings"
	"testing"

	"repro/internal/plan"
)

// TestAnalyticsAsOf pins bi-temporal behavior for the analytics family:
// AS OF the head transaction answers exactly like the live graph, AS OF an
// earlier transaction answers over the shorter historical timeline, and
// the clause is part of every canonical cache key.
func TestAnalyticsAsOf(t *testing.T) {
	s := paperSeries(t)
	r := &seriesResolver{s: s}
	live, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	env := plan.Env{Graph: live, History: r}

	events := func(txn int) *plan.Events {
		return &plan.Events{
			Kind: "dist", Attrs: []string{"gender"}, Width: 1,
			AsOf: plan.TxnRef{Txn: txn},
		}
	}
	trend := func(txn int) *plan.Trend {
		return &plan.Trend{
			Kind: "all", Attrs: []string{"gender"}, Width: 1,
			AsOf: plan.TxnRef{Txn: txn},
		}
	}
	paths := func(txn int) *plan.Paths {
		return &plan.Paths{
			Mode: "earliest", From: []string{"u1"}, To: []string{"u2"},
			AsOf: plan.TxnRef{Txn: txn},
		}
	}

	// Head pin: AS OF the current txn is byte-identical to the live graph.
	head, liveRes := execute(t, env, events(s.Txn())), execute(t, env, events(0))
	if got, want := mustJSON(t, head.Events), mustJSON(t, liveRes.Events); got != want {
		t.Errorf("EVENTS AS OF head diverges from live: %s vs %s", got, want)
	}
	headT, liveT := execute(t, env, trend(s.Txn())), execute(t, env, trend(0))
	if got, want := mustJSON(t, headT.Trend), mustJSON(t, liveT.Trend); got != want {
		t.Errorf("TREND AS OF head diverges from live: %s vs %s", got, want)
	}
	headP, liveP := execute(t, env, paths(s.Txn())), execute(t, env, paths(0))
	if got, want := mustJSON(t, headP.Paths), mustJSON(t, liveP.Paths); got != want {
		t.Errorf("PATHS AS OF head diverges from live: %s vs %s", got, want)
	}

	// At txn 1 only the t0 batch exists: a one-point timeline has zero
	// steps, zero rows; the live head has two steps worth of rows.
	old := execute(t, env, events(1))
	if old.Events == nil || old.Events.Steps != 0 || len(old.Events.Rows) != 0 {
		t.Errorf("EVENTS AS OF 1 should see a single-point timeline, got %+v", old.Events)
	}
	if liveRes.Events.Steps != 2 {
		t.Errorf("live EVENTS has %d steps, want 2", liveRes.Events.Steps)
	}
	oldT := execute(t, env, trend(1))
	if oldT.Trend == nil || oldT.Trend.Windows != 1 {
		t.Errorf("TREND AS OF 1 should see one window, got %+v", oldT.Trend)
	}

	// The clause must key separately for all three statements.
	for _, pair := range [][2]string{
		{events(1).Key(), events(0).Key()},
		{trend(1).Key(), trend(0).Key()},
		{paths(1).Key(), paths(0).Key()},
	} {
		if pair[0] == pair[1] {
			t.Errorf("AS OF absent from cache key %q", pair[0])
		}
		if !strings.Contains(pair[0], "AS OF 1") {
			t.Errorf("key %q does not render AS OF", pair[0])
		}
	}
}

// TestAnalyticsValidDuring windows the analytics statements in valid time:
// a VALID DURING t0..t1 restriction must behave exactly like a graph that
// never had t2.
func TestAnalyticsValidDuring(t *testing.T) {
	s := paperSeries(t)
	r := &seriesResolver{s: s}
	live, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	env := plan.Env{Graph: live, History: r}

	node := &plan.Events{
		Kind: "dist", Attrs: []string{"gender"}, Width: 1,
		Valid: plan.IntervalRef{From: "t0", To: "t1"},
		AsOf:  plan.TxnRef{Txn: s.Txn()},
	}
	res := execute(t, env, node)
	if res.Events == nil || res.Events.Steps != 1 {
		t.Fatalf("EVENTS VALID DURING t0..t1 should see one step, got %+v", res.Events)
	}

	// Valid-time restriction without AS OF windows the live graph inline.
	inline := &plan.Trend{
		Kind: "all", Attrs: []string{"gender"}, Width: 1,
		Valid: plan.IntervalRef{From: "t0", To: "t1"},
	}
	tres := execute(t, plan.Env{Graph: live}, inline)
	if tres.Trend == nil || tres.Trend.Windows != 2 {
		t.Fatalf("TREND VALID DURING t0..t1 should see two width-1 windows, got %+v", tres.Trend)
	}
}
