package tgql

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/stream"
	"repro/internal/timeline"
)

// replaySeries feeds the paper example point by point so the test resolver
// has a transaction log to travel on.
func replaySeries(t *testing.T) *stream.Series {
	t.Helper()
	g := core.PaperExample()
	s := stream.New(g.Attrs()...)
	tl := g.Timeline()
	attrs := g.Attrs()
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
		for e := 0; e < g.NumEdges(); e++ {
			id := core.EdgeID(e)
			if !g.EdgeTau(id).Contains(ti) {
				continue
			}
			ep := g.Edge(id)
			snap.Edges = append(snap.Edges, stream.EdgeRecord{U: g.NodeLabel(ep.U), V: g.NodeLabel(ep.V)})
		}
		if err := s.Append(tl.Label(timeline.Time(ti)), snap); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// replayResolver serves plan.State via stream replay.
type replayResolver struct{ s *stream.Series }

func (r replayResolver) StateAt(txn int) (*plan.State, error) {
	if txn == 0 {
		txn = r.s.Txn()
	}
	g, err := r.s.ReplayTo(txn)
	if err != nil {
		return nil, err
	}
	return &plan.State{Graph: g}, nil
}

func (r replayResolver) WindowAt(txn, from, to int) (*plan.State, error) {
	st, err := r.StateAt(txn)
	if err != nil {
		return nil, err
	}
	wg, err := core.Window(st.Graph, from, to)
	if err != nil {
		return nil, err
	}
	return &plan.State{Graph: wg}, nil
}

// TestTemporalClausesParse routes the clauses through every statement
// family and checks they parse and execute (VALID DURING inline; AS OF via
// the resolver).
func TestTemporalClausesParse(t *testing.T) {
	s := replaySeries(t)
	live, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	env := plan.Env{Graph: live, History: replayResolver{s}}
	queries := []string{
		"AGG DIST gender ON POINT t0 AS OF 1",
		"AGG DIST gender ON POINT t0 VALID DURING t0..t1 AS OF 2",
		"AGG ALL gender ON UNION(t0, t1) VALID DURING t0..t1",
		"AGG DIST gender ON POINT t0 AS OF 2 VALID DURING t0..t1",
		"EVOLVE DIST gender FROM t0 TO t1 AS OF 2",
		"TOP 2 GROWTH BY gender AS OF 2",
		"TIMELINE BY gender VALID DURING t0..t1 AS OF 3",
		"EXPLORE GROWTH BY gender K 1 AS OF 2",
	}
	for _, q := range queries {
		res, err := ExecEnv(context.Background(), env, q)
		if err != nil {
			t.Errorf("%q: %v", q, err)
			continue
		}
		if res == nil {
			t.Errorf("%q: nil result", q)
		}
	}
}

// TestAsOfMatchesReplayedState: AGG over the full interval AS OF txn 2
// must render exactly what the same query renders on a series truncated at
// two batches — time travel is indistinguishable from having stopped
// ingesting.
func TestAsOfMatchesReplayedState(t *testing.T) {
	s := replaySeries(t)
	live, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	env := plan.Env{Graph: live, History: replayResolver{s}}
	res, err := ExecEnv(context.Background(), env, "AGG DIST gender ON UNION(t0, t1) AS OF 2")
	if err != nil {
		t.Fatal(err)
	}
	past, err := s.ReplayTo(2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Exec(past, "AGG DIST gender ON UNION(t0, t1)")
	if err != nil {
		t.Fatal(err)
	}
	if res.String() != want.String() {
		t.Fatalf("AS OF 2 render:\n%s\nwant (truncated series):\n%s", res, want)
	}
	// The historical timeline has two points; t2 does not exist yet.
	if _, err := ExecEnv(context.Background(), env, "AGG DIST gender ON POINT t2 AS OF 2"); err == nil ||
		!strings.Contains(err.Error(), `unknown time point "t2"`) {
		t.Fatalf("POINT t2 AS OF 2 = %v, want unknown-point error", err)
	}
}

// TestTemporalClauseErrors pins the parse/resolution failure shapes with
// their positions.
func TestTemporalClauseErrors(t *testing.T) {
	g := core.PaperExample()
	cases := []struct {
		query string
		want  []string
	}{
		{"AGG DIST gender ON POINT t0 AS OF 0", []string{"positive transaction number"}},
		{"AGG DIST gender ON POINT t0 AS OF x", []string{"positive transaction number", `"x"`}},
		{"AGG DIST gender ON POINT t0 AS OF", []string{"(at end of input)"}},
		{"AGG DIST gender ON POINT t0 AS OF 1 AS OF 2", []string{"tgql: 1:37:", "duplicate AS OF"}},
		{"AGG DIST gender ON POINT t0 VALID DURING t0 VALID DURING t1", []string{"tgql: 1:45:", "duplicate VALID DURING"}},
		{"AGG DIST gender ON POINT t0 VALID", []string{"expected DURING"}},
		{"AGG DIST gender ON POINT t0 AS 3", []string{"expected OF"}},
		// An empty label is an error, not an absent clause or operand.
		{"AGG DIST gender ON POINT t0 VALID DURING ''", []string{"tgql: 1:42:", "empty time-point label"}},
		{"AGG DIST gender ON PROJECT t0..''", []string{"tgql: 1:32:", "empty time-point label"}},
		// No transaction log behind plain Exec: AS OF must be rejected at
		// the clause's position, VALID DURING with an unknown label at the
		// label's position.
		{"AGG DIST gender ON POINT t0 AS OF 1", []string{"tgql: 1:35:", "transaction log"}},
		{"AGG DIST gender ON POINT t0 VALID DURING t8..t9", []string{"tgql: 1:42:", `unknown time point "t8"`}},
	}
	for _, c := range cases {
		_, err := Exec(g, c.query)
		if err == nil {
			t.Errorf("%q: no error", c.query)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%q:\n  error %q\n  missing %q", c.query, err, w)
			}
		}
	}
}

// TestValidDuringInlineWindow: with no resolver at all, VALID DURING still
// works by windowing the live graph — restricts what labels resolve, and
// labels TIMELINE's steps with the window's timeline.
func TestValidDuringInlineWindow(t *testing.T) {
	g := core.PaperExample()
	res, err := Exec(g, "AGG DIST gender ON POINT t1 VALID DURING t1..t2")
	if err != nil {
		t.Fatal(err)
	}
	want, err := Exec(g, "AGG DIST gender ON POINT t1")
	if err != nil {
		t.Fatal(err)
	}
	if res.String() != want.String() {
		t.Fatalf("windowed POINT t1 render:\n%s\nwant:\n%s", res, want)
	}
	if _, err := Exec(g, "AGG DIST gender ON POINT t0 VALID DURING t1..t2"); err == nil ||
		!strings.Contains(err.Error(), `unknown time point "t0"`) {
		t.Fatalf("POINT t0 outside window = %v, want unknown-point error", err)
	}
	wg, err := core.Window(g, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res, err = Exec(g, "TIMELINE BY gender VALID DURING t1..t2"); err != nil {
		t.Fatal(err)
	}
	if want, err = Exec(wg, "TIMELINE BY gender"); err != nil {
		t.Fatal(err)
	}
	if res.String() != want.String() {
		t.Fatalf("windowed TIMELINE render:\n%s\nwant:\n%s", res, want)
	}
}
