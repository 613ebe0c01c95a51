// Package materialize implements GraphTempo's partial materialization
// optimizations (§4.3).
//
// Materializing every aggregate of every attribute combination over every
// interval is unrealistic, so the paper proposes precomputing per-time-
// point aggregations and reusing them:
//
//   - T-distributive reuse: the non-distinct (ALL) aggregate of a union
//     graph over an interval is the weight-wise sum of the per-time-point
//     ALL aggregates (distinct union aggregates are NOT T-distributive —
//     distinct entities cannot be identified across precomputed graphs).
//   - D-distributive reuse: the aggregate on an attribute subset A” ⊆ A'
//     is derived from the aggregate on A' by regrouping and summing
//     (agg.Rollup); at a single time point this is exact for DIST too.
//
// Store holds the per-time-point materialization for one schema and
// composes interval queries from flat weight vectors (dense.go): prefix
// sums answer a contiguous run in O(1) vector ops, with the linear
// map-merge kept as the cross-checked reference. Catalog adds a concurrent query-level serving
// layer — a sharded byte-budgeted LRU with singleflight deduplication and
// atomic per-source counters — that answers aggregate requests from
// materialized results whenever one of the two derivations applies, and
// falls back to computing from scratch (while recording what it did, for
// the speedup experiments of Figs. 10–11).
package materialize

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/lru"
	"repro/internal/ops"
	"repro/internal/timeline"
)

// Store precomputes, for one aggregation schema, the ALL aggregate of
// every base time point (the paper's chosen materialization unit).
// A Store is immutable after construction and safe for concurrent readers;
// the dense composition tables are built lazily on first composed query.
// Append extends a store to a longer timeline by producing a NEW store that
// shares all frozen per-point state — the old store keeps serving.
type Store struct {
	schema   *agg.Schema
	perPoint []*agg.Graph

	compOnce sync.Once
	comp     *composer
}

// NewStore materializes the per-time-point ALL aggregates of g under s.
// All-static schemas (the common materialization unit) are built by one
// pass over the entities' timestamp runs (static.go) instead of one
// aggregation per time point; time-varying schemas take the per-point
// loop.
func NewStore(g *core.Graph, s *agg.Schema) *Store {
	if s.Graph() != g {
		panic("materialize: schema built on a different graph")
	}
	if s.AllStatic() {
		return &Store{schema: s, perPoint: buildPointsStatic(g, s)}
	}
	return &Store{schema: s, perPoint: referencePointsLoop(g, s)}
}

// Append returns a new store extending st with the time points newG has
// beyond st's horizon, in O(batch) aggregation work plus O(slots) per point
// to extend the dense engine — never a re-aggregation of history. newG must
// be an append-only extension of the store's base graph (the old timeline
// labels are a prefix of newG's). It fails with
// ErrCodingChanged when an attribute dictionary grew — new values change
// the mixed-radix tuple coding, so the per-point vectors are not
// comparable and the caller must rebuild from scratch (Catalog.Advance
// counts those). The old store is left fully usable; a store may be
// extended at most once (callers serialize lineage — Catalog.Advance does
// so under its lock).
func (st *Store) Append(newG *core.Graph) (*Store, error) {
	s2, err := agg.NewSchema(newG, st.schema.Attrs()...)
	if err != nil {
		return nil, err
	}
	if !s2.SameCoding(st.schema) {
		return nil, ErrCodingChanged
	}
	oldN := len(st.perPoint)
	n := newG.Timeline().Len()
	if n < oldN {
		return nil, fmt.Errorf("materialize: graph has %d points, store already covers %d", n, oldN)
	}
	perPoint := st.perPoint[:oldN:oldN]
	for t := oldN; t < n; t++ {
		perPoint = append(perPoint, agg.Aggregate(ops.At(newG, timeline.Time(t)), s2, agg.All))
	}
	next := &Store{schema: s2, perPoint: perPoint}
	// Extend the dense engine eagerly (forcing the parent's lazy build if
	// needed): the first query on the new store must not pay a rebuild.
	next.comp = st.composer().extend(s2, perPoint[oldN:])
	return next, nil
}

// ErrCodingChanged reports that a store cannot be extended because an
// attribute dictionary grew, changing the tuple coding.
var ErrCodingChanged = fmt.Errorf("materialize: attribute coding changed; store must be rebuilt")

// ErrStaticBackfill reports that an advance would be unsound because a
// static attribute value was filled in (or changed) for a node that
// already existed — old per-point aggregates and cached results would no
// longer match a from-scratch rebuild. Callers handle it by rebuilding
// the catalog.
var ErrStaticBackfill = fmt.Errorf("materialize: static attribute back-filled on an existing node")

// Schema returns the store's aggregation schema.
func (st *Store) Schema() *agg.Schema { return st.schema }

// Point returns the materialized ALL aggregate of base time point t.
// The caller must not modify it.
func (st *Store) Point(t timeline.Time) *agg.Graph { return st.perPoint[t] }

// UnionAll composes the ALL aggregate of the union graph over iv from the
// materialized per-point aggregates (T-distributive reuse), without
// touching the base graph. It uses the dense prefix-sum engine: each
// contiguous run of the interval costs one vector subtraction, independent
// of its length, and the result is decoded to maps only at the boundary.
func (st *Store) UnionAll(iv timeline.Interval) *agg.Graph {
	return st.composer().compose(iv)
}

// UnionAllLinear is the reference composition: merge the per-point
// map-based aggregates one at a time, O(|interval|) map merges. The dense
// engine is cross-checked against it.
func (st *Store) UnionAllLinear(iv timeline.Interval) *agg.Graph {
	out := &agg.Graph{
		Schema: st.schema,
		Kind:   agg.All,
		Nodes:  make(map[agg.Tuple]int64),
		Edges:  make(map[agg.EdgeKey]int64),
	}
	for _, t := range iv.Times() {
		out.Merge(st.perPoint[t])
	}
	return out
}

// PointSubset derives the aggregate of base time point t on a subset of
// the store's attributes by D-distributive roll-up. At a single time
// point the roll-up is exact for both kinds; the result carries the
// store's ALL kind.
func (st *Store) PointSubset(t timeline.Time, attrs ...core.AttrID) (*agg.Graph, error) {
	return agg.Rollup(st.perPoint[t], attrs...)
}

// Source describes how a Catalog answered a request.
type Source int

const (
	// Scratch: computed from the base graph.
	Scratch Source = iota
	// Cached: returned a previously computed result verbatim.
	Cached
	// TDistributive: composed from per-time-point materialized aggregates.
	TDistributive
	// DDistributive: rolled up from a materialized superset aggregate.
	DDistributive

	numSources
)

// String names the source for logs and experiment output.
func (s Source) String() string {
	switch s {
	case Scratch:
		return "scratch"
	case Cached:
		return "cached"
	case TDistributive:
		return "t-distributive"
	default:
		return "d-distributive"
	}
}

// CatalogConfig sizes a Catalog's serving cache. The zero value selects
// the defaults.
type CatalogConfig struct {
	// MaxBytes is the byte budget for cached query results (approximate,
	// see agg.Graph.ApproxBytes); least-recently-used results are evicted
	// beyond it. <= 0 selects 64 MiB.
	MaxBytes int64
	// Shards is the number of independently locked cache shards. <= 0
	// selects 16.
	Shards int
}

// Stats is a snapshot of a Catalog's counters.
type Stats struct {
	// Answers by source. A request deduplicated onto another goroutine's
	// in-flight computation is counted under that computation's source.
	Scratch, Cached, TDistributive, DDistributive int64

	// Serving-cache internals.
	CacheEntries   int
	CacheBytes     int64
	CacheEvictions int64
	CacheDeduped   int64

	// Stores is the number of materialized per-time-point stores.
	Stores int
}

// Answered returns the total number of answered requests.
func (s Stats) Answered() int64 {
	return s.Scratch + s.Cached + s.TDistributive + s.DDistributive
}

// catEntry is a cached query result together with how it was derived.
type catEntry struct {
	g   *agg.Graph
	src Source
}

// Catalog serves union-ALL aggregate requests over one evolving graph,
// reusing a per-time-point store per attribute set and caching full
// results in a sharded LRU. All methods are safe for concurrent use:
// distinct requests proceed in parallel (mutex-per-shard cache,
// RWMutex-guarded store set) and concurrent identical requests are
// deduplicated onto one computation. Advance folds newly appended time
// points into every store without invalidating the cache — the graph is
// append-only and interval cache keys are label-based, so every previously
// cached result stays correct forever.
type Catalog struct {
	mu          sync.RWMutex
	g           *core.Graph // current graph; replaced by Advance
	gen         uint64      // bumped by Advance; guards in-flight builds
	stores      map[string]*Store
	storeFlight map[string]*storeCall

	cache *lru.Cache[catEntry]
	hits  [numSources]atomic.Int64
}

type storeCall struct {
	wg  sync.WaitGroup
	st  *Store
	err error
}

// NewCatalog returns an empty catalog over g with the default cache
// configuration.
func NewCatalog(g *core.Graph) *Catalog {
	return NewCatalogWith(g, CatalogConfig{})
}

// NewCatalogWith returns an empty catalog over g sized by cfg.
func NewCatalogWith(g *core.Graph, cfg CatalogConfig) *Catalog {
	return &Catalog{
		g:           g,
		stores:      make(map[string]*Store),
		storeFlight: make(map[string]*storeCall),
		cache:       lru.New[catEntry](lru.Config{MaxBytes: cfg.MaxBytes, Shards: cfg.Shards}),
	}
}

// attrsKey renders an attribute list as a compact cache key without any
// fmt machinery (one strconv.AppendInt per id, no intermediate strings).
func attrsKey(attrs []core.AttrID) string {
	b := make([]byte, 0, 4*len(attrs))
	for _, a := range attrs {
		b = strconv.AppendInt(b, int64(a), 10)
		b = append(b, ',')
	}
	return string(b)
}

// graph returns the catalog's current graph.
func (c *Catalog) graph() *core.Graph {
	c.mu.RLock()
	g := c.g
	c.mu.RUnlock()
	return g
}

// Graph returns the graph the catalog currently serves (the newest
// generation after Advance calls).
func (c *Catalog) Graph() *core.Graph { return c.graph() }

// Materialize builds (or returns) the per-time-point store for the given
// attribute set. Concurrent calls for the same attribute set share one
// construction. If the catalog Advances while a store is being built, the
// build catches up on the new points before registering.
func (c *Catalog) Materialize(attrs ...core.AttrID) (*Store, error) {
	key := attrsKey(attrs)
	c.mu.Lock()
	if st, ok := c.stores[key]; ok {
		c.mu.Unlock()
		return st, nil
	}
	if call, ok := c.storeFlight[key]; ok {
		c.mu.Unlock()
		call.wg.Wait()
		return call.st, call.err
	}
	call := &storeCall{}
	call.wg.Add(1)
	c.storeFlight[key] = call
	g, gen := c.g, c.gen
	c.mu.Unlock()

	st, err := buildStore(g, attrs)

	c.mu.Lock()
	// The catalog may have advanced while we built against the old graph;
	// fold the missed points in (or rebuild on a coding change) until the
	// generation holds still.
	for err == nil && c.gen != gen {
		g, gen = c.g, c.gen
		c.mu.Unlock()
		if next, aerr := st.Append(g); aerr == nil {
			st = next
		} else {
			st, err = buildStore(g, attrs)
		}
		c.mu.Lock()
	}
	delete(c.storeFlight, key)
	if err == nil {
		c.stores[key] = st
	}
	call.st, call.err = st, err
	c.mu.Unlock()
	call.wg.Done()
	return call.st, call.err
}

func buildStore(g *core.Graph, attrs []core.AttrID) (*Store, error) {
	s, err := agg.NewSchema(g, attrs...)
	if err != nil {
		return nil, err
	}
	return NewStore(g, s), nil
}

// AdvanceStats reports what one Catalog.Advance did.
type AdvanceStats struct {
	// NewPoints is how many time points the advance appended.
	NewPoints int
	// Extended counts stores folded forward incrementally (O(batch)).
	Extended int
	// Rebuilt counts stores re-materialized from scratch because a new
	// attribute value changed their tuple coding.
	Rebuilt int
}

// Advance folds the delta between the catalog's current graph and newG
// into every materialized store: newG must be an append-only extension
// (the current timeline labels are a prefix of newG's, nodes and edges
// only accumulate). Each store is extended in O(batch) aggregation work —
// or rebuilt from scratch when an attribute dictionary grew and changed
// its tuple coding — and the catalog switches to serving newG. The result
// cache and hit counters are retained: cache keys are label-based interval
// strings and the graph is append-only, so every cached result remains
// correct. Concurrent readers keep serving the old stores until the swap;
// in-flight Materialize builds catch up on their own.
func (c *Catalog) Advance(newG *core.Graph) (AdvanceStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if newG == c.g {
		return AdvanceStats{}, nil
	}
	oldLabels := c.g.Timeline().Labels()
	newLabels := newG.Timeline().Labels()
	if len(newLabels) < len(oldLabels) {
		return AdvanceStats{}, fmt.Errorf("materialize: advance shrinks the timeline from %d to %d points", len(oldLabels), len(newLabels))
	}
	for i, l := range oldLabels {
		if newLabels[i] != l {
			return AdvanceStats{}, fmt.Errorf("materialize: advance rewrites time point %d (%q → %q)", i, l, newLabels[i])
		}
	}
	// A static value back-filled on a pre-existing node retroactively
	// changes that node's tuple at EVERY old time point, so the frozen
	// per-point aggregates (and cached results) would silently diverge
	// from a scratch rebuild. Refuse the delta; the caller falls back to
	// a full rebuild. Time-varying values and timestamps of old points are
	// immutable in the accumulator lineage, so statics are the only
	// retroactive channel.
	if n := c.g.NumAttrs(); n != newG.NumAttrs() {
		return AdvanceStats{}, fmt.Errorf("materialize: advance changes the attribute schema (%d → %d attributes)", n, newG.NumAttrs())
	}
	oldNodes := c.g.NumNodes()
	for a := 0; a < newG.NumAttrs(); a++ {
		if newG.Attr(core.AttrID(a)).Kind != core.Static {
			continue
		}
		for n := 0; n < oldNodes; n++ {
			if c.g.StaticValue(core.AttrID(a), core.NodeID(n)) != newG.StaticValue(core.AttrID(a), core.NodeID(n)) {
				return AdvanceStats{}, fmt.Errorf("%w: node %q attribute %q",
					ErrStaticBackfill, newG.NodeLabel(core.NodeID(n)), newG.Attr(core.AttrID(a)).Name)
			}
		}
	}
	stats := AdvanceStats{NewPoints: len(newLabels) - len(oldLabels)}
	for key, st := range c.stores {
		next, err := st.Append(newG)
		if err == nil {
			c.stores[key] = next
			stats.Extended++
			continue
		}
		s, err := agg.NewSchema(newG, st.Schema().Attrs()...)
		if err != nil {
			return stats, err
		}
		c.stores[key] = NewStore(newG, s)
		stats.Rebuilt++
	}
	c.g = newG
	c.gen++
	return stats, nil
}

// store returns the materialized store for the exact attribute set, if any.
func (c *Catalog) store(key string) (*Store, bool) {
	c.mu.RLock()
	st, ok := c.stores[key]
	c.mu.RUnlock()
	return st, ok
}

// snapshotStores returns the current stores for iteration outside the lock.
func (c *Catalog) snapshotStores() []*Store {
	c.mu.RLock()
	out := make([]*Store, 0, len(c.stores))
	for _, st := range c.stores {
		out = append(out, st)
	}
	c.mu.RUnlock()
	return out
}

func catEntrySize(e catEntry) int64 { return e.g.ApproxBytes() }

// UnionAll returns the ALL aggregate of the union graph over iv on the
// given attributes, answering from cache or from a materialized store when
// possible and computing from scratch otherwise. The returned Source
// reports which path was taken; results are cached either way. Safe for
// concurrent use; concurrent identical requests share one computation.
func (c *Catalog) UnionAll(iv timeline.Interval, attrs ...core.AttrID) (*agg.Graph, Source, error) {
	skey := attrsKey(attrs)
	key := skey + "@" + iv.String()
	e, cached, err := c.cache.Do(key, catEntrySize, func() (catEntry, error) {
		return c.computeUnionAll(skey, iv, attrs)
	})
	if err != nil {
		return nil, Scratch, err
	}
	if cached {
		c.hits[Cached].Add(1)
		return e.g, Cached, nil
	}
	c.hits[e.src].Add(1)
	return e.g, e.src, nil
}

// Predict reports which source would answer UnionAll(iv, attrs...) right
// now, without computing anything or touching the counters and cache
// recency. It mirrors the serving order — cache, exact store
// (T-distributive), single-point superset store (D-distributive), scratch —
// so the query planner can cost and explain a catalog-backed operator
// before executing it. Concurrent traffic may change the answer between
// Predict and UnionAll; it is a hint, not a promise.
func (c *Catalog) Predict(iv timeline.Interval, attrs ...core.AttrID) Source {
	skey := attrsKey(attrs)
	if c.cache.Contains(skey + "@" + iv.String()) {
		return Cached
	}
	if _, ok := c.store(skey); ok {
		return TDistributive
	}
	if iv.Len() == 1 {
		for _, st := range c.snapshotStores() {
			if covers(st.Schema().Attrs(), attrs) {
				return DDistributive
			}
		}
	}
	return Scratch
}

// computeUnionAll answers a cache miss: T-distributive composition from an
// exact store, D-distributive roll-up from a superset store at a single
// point, or scratch aggregation from the base graph.
func (c *Catalog) computeUnionAll(skey string, iv timeline.Interval, attrs []core.AttrID) (catEntry, error) {
	if st, ok := c.store(skey); ok {
		return catEntry{st.UnionAll(iv), TDistributive}, nil
	}
	// A superset store at a single time point can answer by roll-up.
	if iv.Len() == 1 {
		for _, st := range c.snapshotStores() {
			if covers(st.Schema().Attrs(), attrs) {
				g, err := st.PointSubset(iv.Min(), attrs...)
				if err == nil {
					return catEntry{g, DDistributive}, nil
				}
			}
		}
	}
	g := c.graph()
	s, err := agg.NewSchema(g, attrs...)
	if err != nil {
		return catEntry{}, err
	}
	return catEntry{agg.Aggregate(ops.Union(g, iv, iv), s, agg.All), Scratch}, nil
}

// Stats returns an atomic snapshot of the catalog's counters.
func (c *Catalog) Stats() Stats {
	cs := c.cache.Stats()
	c.mu.RLock()
	stores := len(c.stores)
	c.mu.RUnlock()
	return Stats{
		Scratch:        c.hits[Scratch].Load(),
		Cached:         c.hits[Cached].Load(),
		TDistributive:  c.hits[TDistributive].Load(),
		DDistributive:  c.hits[DDistributive].Load(),
		CacheEntries:   cs.Entries,
		CacheBytes:     cs.Bytes,
		CacheEvictions: cs.Evictions,
		CacheDeduped:   cs.Deduped,
		Stores:         stores,
	}
}

// covers reports whether super contains every attribute of sub.
func covers(super, sub []core.AttrID) bool {
	for _, a := range sub {
		found := false
		for _, b := range super {
			if a == b {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
