package plan

import (
	"repro/internal/core"
	"repro/internal/materialize"
)

// State is one serving state: a graph, the materialization catalog built
// over it and the plans compiled against both, plus the series generation a
// server's head state was built from (-1 for a static graph, 0 for a
// reconstructed historical state). A state owns its plan cache and the
// answers memoized in it, so a plan and its answer live exactly as long as
// the graph they were computed over: every new state — an advance, a
// rebuild, an AS OF replay, a VALID DURING window — starts with an empty
// cache. Catalog and Plans may be nil — compilation then falls back to
// direct operators and skips plan and answer memoization.
type State struct {
	Graph   *core.Graph
	Catalog *materialize.Catalog
	Plans   *Cache
	Gen     int
}

// NewState returns the state over g and cat at generation gen, with an
// empty plan cache of the same byte budget as cat's result cache.
func NewState(g *core.Graph, cat *materialize.Catalog, gen int) *State {
	return &State{Graph: g, Catalog: cat, Plans: NewCache(cat.MaxBytes()), Gen: gen}
}

// HistoryResolver reconstructs historical states on demand. The server
// implements it over the storage engine's transaction log with an LRU of
// reconstructed states; tests implement it over stream.Series.ReplayTo.
//
// Txn 0 means the live head (the resolver pins it to the current watermark
// so the result is stable for the duration of one compile). From/to are
// valid-time indices into the txn-state's timeline, inclusive.
type HistoryResolver interface {
	StateAt(txn int) (*State, error)
	WindowAt(txn, from, to int) (*State, error)
}

// temporalOf extracts a logical node's bi-temporal clauses.
func temporalOf(node Logical) (IntervalRef, TxnRef) {
	switch q := node.(type) {
	case *Aggregate:
		return q.Valid, q.AsOf
	case *Explore:
		return q.Valid, q.AsOf
	case *Top:
		return q.Valid, q.AsOf
	case *Evolve:
		return q.Valid, q.AsOf
	case *Timeline:
		return q.Valid, q.AsOf
	case *Events:
		return q.Valid, q.AsOf
	case *Paths:
		return q.Valid, q.AsOf
	case *Trend:
		return q.Valid, q.AsOf
	}
	return IntervalRef{}, TxnRef{}
}

// resolveHistory rewrites the compile environment for a node carrying AS OF
// or VALID DURING clauses: the graph (and catalog, plan cache, when a
// resolver can supply them) is swapped for the reconstructed historical
// state BEFORE any operand resolution or cache lookup, so every downstream
// compile step — and every entry point that funnels through Compile — sees
// time travel as just a different base graph. Interval operands then
// resolve against the historical timeline, which is exactly the semantics:
// a label that did not exist at that transaction is an unknown time point.
func resolveHistory(env Env, node Logical) (Env, error) {
	valid, asOf := temporalOf(node)
	if valid.IsZero() && asOf.IsZero() {
		return env, nil
	}
	if len(valid.Points) > 0 {
		return env, errf(env.Query, valid.FromPos, valid.Points[0],
			"VALID DURING requires a contiguous range, not a point set")
	}
	if asOf.IsZero() && env.History == nil {
		// Valid-time restriction alone needs no transaction log: window the
		// live graph inline. No catalog or plan cache covers the windowed
		// graph, so operators compile to direct recompute.
		iv, err := ResolveInterval(env.Graph, env.Query, valid)
		if err != nil {
			return env, err
		}
		wg, err := core.Window(env.Graph, int(iv.Min()), int(iv.Max()))
		if err != nil {
			return env, err
		}
		env.Graph, env.Catalog, env.Cache = wg, nil, nil
		return env, nil
	}
	if env.History == nil {
		return env, errf(env.Query, asOf.Pos, "",
			"AS OF requires a store with a transaction log (no history resolver in this environment)")
	}
	st, err := env.History.StateAt(asOf.Txn)
	if err != nil {
		return env, errf(env.Query, asOf.Pos, "", "AS OF %d: %v", asOf.Txn, err)
	}
	if !valid.IsZero() {
		// The window labels must exist at that transaction: resolve against
		// the historical timeline, not the head.
		iv, err := ResolveInterval(st.Graph, env.Query, valid)
		if err != nil {
			return env, err
		}
		st, err = env.History.WindowAt(asOf.Txn, int(iv.Min()), int(iv.Max()))
		if err != nil {
			return env, errf(env.Query, valid.FromPos, valid.From, "VALID DURING: %v", err)
		}
	}
	env.Graph, env.Catalog, env.Cache = st.Graph, st.Catalog, st.Plans
	return env, nil
}
