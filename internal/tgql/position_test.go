package tgql

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// TestErrorPositions checks that parse and execution errors carry a
// 1-based line:column anchor and quote the offending token — the HTTP
// endpoint surfaces these verbatim, so clients can point at the spot.
func TestErrorPositions(t *testing.T) {
	g := core.PaperExample()
	cases := []struct {
		query string
		want  []string // substrings the error must contain
	}{
		{"AGG DIST gender POINT t0", []string{"tgql: 1:17:", `(near "POINT")`}},
		{"AGG DIST gender ON POINT t9", []string{"tgql: 1:26:", `unknown time point "t9"`, `(near "t9")`}},
		{"AGG DIST gender\nON POINT t9", []string{"tgql: 2:10:", `unknown time point "t9"`}},
		{"AGG DIST nope ON POINT t0", []string{"tgql: 1:10:", `unknown attribute "nope"`}},
		{"AGG DIST gender ON POINT t0 WHERE nope = 1", []string{"tgql: 1:35:", `unknown attribute "nope" in WHERE`}},
		{"AGG DIST gender ON POINT t0 WHERE gender < f", []string{"tgql: 1:44:", "needs a numeric value"}},
		{"AGG DIST gender ON POINT t0 WHERE publications > four", []string{"tgql: 1:50:", "needs a numeric value"}},
		{"AGG DIST gender ON POINT t0 MEASURE AVG(nope)", []string{"tgql: 1:41:", `unknown measured attribute "nope"`}},
		{"AGG DIST gender ON PROJECT t2..t0", []string{"tgql: 1:28:", "runs backwards"}},
		{"EVOLVE DIST gender FROM t0", []string{"(at end of input)"}},
		{"AGG DIST gender ON POINT t0 - t1", []string{"tgql: 1:29:", "unexpected '-'"}},
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

// TestParseFilterErrorPositions checks that errors inside a WHERE clause are
// anchored at the offending predicate token, counted from the statement start.
func TestParseFilterErrorPositions(t *testing.T) {
	g := core.PaperExample()
	const prefix = "AGG DIST gender ON POINT t0 WHERE " // 34 columns
	if _, err := Exec(g, prefix+"nope = 1"); err == nil ||
		!strings.Contains(err.Error(), "tgql: 1:35:") {
		t.Errorf("WHERE unknown attr = %v, want a 1:35 anchor", err)
	}
	if _, err := Exec(g, prefix+"publications > four"); err == nil ||
		!strings.Contains(err.Error(), "tgql: 1:50:") {
		t.Errorf("WHERE non-numeric = %v, want a 1:50 anchor", err)
	}
}
