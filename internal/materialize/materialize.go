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
	"errors"
	"fmt"
	"slices"
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
// Extend carries a store to a longer timeline by producing a NEW store that
// shares all frozen per-point state — the old store keeps serving.
type Store struct {
	schema   *agg.Schema
	perPoint []*agg.Graph

	compOnce sync.Once
	comp     *composer
}

// NewStore materializes the per-time-point ALL aggregates of g under s, one
// kernel aggregation per time point.
func NewStore(g *core.Graph, s *agg.Schema) *Store {
	if s.Graph() != g {
		panic("materialize: schema built on a different graph")
	}
	perPoint := make([]*agg.Graph, g.Timeline().Len())
	for t := range perPoint {
		perPoint[t] = agg.Aggregate(ops.At(g, timeline.Time(t)), s, agg.All)
	}
	return &Store{schema: s, perPoint: perPoint}
}

// Extend returns a new store over newG's timeline: the time points listed in
// inserted (ascending indices into newG's timeline, from newPoints) are
// aggregated fresh, and the store's own aggregates — pure tuple→weight maps
// with no time index inside — take every other position. O(len(inserted))
// aggregations, never a re-aggregation of history. When every inserted point
// lies beyond the store's horizon the dense composition tables are extended
// eagerly, O(slots) per point (forcing the parent's lazy build if needed), so
// the first query on the new store pays no rebuild; an insert anywhere
// earlier shifts positions and leaves them to that query's lazy build.
//
// It fails with ErrCodingChanged when an attribute dictionary grew or was
// re-ordered (a mid-timeline insert replays valid order, which can change
// which value is seen first): the old vectors are then not comparable and
// the caller rebuilds from scratch. The old store is left fully usable.
func (st *Store) Extend(newG *core.Graph, inserted []int) (*Store, error) {
	s2, err := agg.NewSchema(newG, st.schema.Attrs()...)
	if err != nil {
		return nil, err
	}
	for _, id := range s2.Attrs() {
		// The same values in the same order: agg.Schema.SameCoding, which
		// compares dictionary sizes, plus what each code decodes to.
		if !slices.Equal(st.schema.Graph().Dict(id).Values(), newG.Dict(id).Values()) {
			return nil, ErrCodingChanged
		}
	}
	oldN, n := len(st.perPoint), newG.Timeline().Len()
	if oldN+len(inserted) != n {
		return nil, fmt.Errorf("materialize: %d new points do not bridge %d covered to %d total", len(inserted), oldN, n)
	}
	perPoint := make([]*agg.Graph, 0, n)
	next := 0
	for t := 0; t < n; t++ {
		if next < len(inserted) && inserted[next] == t {
			perPoint = append(perPoint, agg.Aggregate(ops.At(newG, timeline.Time(t)), s2, agg.All))
			next++
		} else if old := t - next; old < oldN {
			perPoint = append(perPoint, st.perPoint[old])
		}
	}
	if len(perPoint) != n {
		return nil, fmt.Errorf("materialize: new point positions %v are not ascending indices into a timeline of %d points", inserted, n)
	}
	ext := &Store{schema: s2, perPoint: perPoint}
	if len(inserted) == 0 || inserted[0] == oldN {
		ext.comp = st.composer().extend(s2, perPoint[oldN:])
	}
	return ext, nil
}

// ErrCodingChanged reports that a store cannot be extended because an
// attribute dictionary grew or was re-ordered, changing the tuple coding.
var ErrCodingChanged = errors.New("materialize: attribute coding changed; store must be rebuilt")

// ErrNotExtension reports that an advance was refused because the new graph
// does not extend the catalog's: a time point was dropped, the attribute
// schema changed, or nodes were renumbered. Callers rebuild the catalog.
var ErrNotExtension = errors.New("materialize: graph does not extend the catalog's; catalog must be rebuilt")

// ErrStaticBackfill reports that an advance would be unsound because a
// static attribute value was filled in (or changed) for a node that
// already existed — old per-point aggregates and cached results would no
// longer match a from-scratch rebuild. Callers handle it by rebuilding
// the catalog.
var ErrStaticBackfill = errors.New("materialize: static attribute back-filled on an existing node")

// Schema returns the store's aggregation schema.
func (st *Store) Schema() *agg.Schema { return st.schema }

// UnionAll composes the ALL aggregate of the union graph over iv from the
// materialized per-point aggregates (T-distributive reuse), without
// touching the base graph. It uses the dense prefix-sum engine: each
// contiguous run of the interval costs one vector subtraction, independent
// of its length, and the result is decoded to maps only at the boundary.
func (st *Store) UnionAll(iv timeline.Interval) *agg.Graph {
	return st.composer().compose(iv)
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

// catEntry is a cached query result together with how it was derived.
type catEntry struct {
	g   *agg.Graph
	src Source
}

// Catalog serves union-ALL aggregate requests over one graph, for life,
// reusing a per-time-point store per attribute set and caching full
// results in a sharded LRU. All methods are safe for concurrent use:
// distinct requests proceed in parallel (mutex-per-shard cache,
// RWMutex-guarded store set) and concurrent identical requests are
// deduplicated onto one computation. Nothing changes a catalog's graph: a
// longer history gets a successor catalog (Advance, or Rebuild when the
// advance is refused) that continues the answer and cache counters, so a
// request still running on the predecessor answers over the predecessor's
// graph and caches into the predecessor's cache.
type Catalog struct {
	g *core.Graph

	mu     sync.RWMutex
	stores map[string]*Store

	cache *lru.Cache[catEntry]
	hits  *[numSources]atomic.Int64 // shared with successors
}

// NewCatalog returns an empty catalog over g with the default cache
// configuration.
func NewCatalog(g *core.Graph) *Catalog {
	return NewCatalogWith(g, CatalogConfig{})
}

// NewCatalogWith returns an empty catalog over g sized by cfg.
func NewCatalogWith(g *core.Graph, cfg CatalogConfig) *Catalog {
	return &Catalog{
		g:      g,
		stores: make(map[string]*Store),
		cache:  lru.New[catEntry](lru.Config{MaxBytes: cfg.MaxBytes, Shards: cfg.Shards}),
		hits:   new([numSources]atomic.Int64),
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

// Graph returns the graph the catalog serves.
func (c *Catalog) Graph() *core.Graph { return c.g }

// MaxBytes returns the byte budget of the catalog's result cache.
func (c *Catalog) MaxBytes() int64 { return c.cache.MaxBytes() }

// Materialize builds (or returns) the per-time-point store for the given
// attribute set. The build runs outside the lock; when concurrent calls
// race on one attribute set, the first store registered wins and every
// caller gets it.
func (c *Catalog) Materialize(attrs ...core.AttrID) (*Store, error) {
	key := attrsKey(attrs)
	if st, ok := c.store(key); ok {
		return st, nil
	}
	st, err := buildStore(c.g, attrs)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.stores[key]; ok {
		return old, nil
	}
	c.stores[key] = st
	return st, nil
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
	// Catalog is the successor catalog over the new graph.
	Catalog *Catalog
	// NewPoints is how many time points the new graph has beyond the old.
	NewPoints int
	// Extended counts stores folded forward incrementally (Store.Extend).
	Extended int
	// Rebuilt counts stores re-materialized from scratch because their
	// tuple coding changed.
	Rebuilt int
	// FirstDirty is the lowest new-timeline index whose content changed. It
	// equals the old timeline length when the new points are a suffix.
	FirstDirty int
}

// newPoints matches old's time-point labels as a subsequence of new's and
// returns the positions of new's timeline that old lacks, ascending.
func newPoints(old, new *core.Graph) ([]int, error) {
	otl, ntl := old.Timeline(), new.Timeline()
	var inserted []int
	i := 0
	for j := 0; j < ntl.Len(); j++ {
		if i < otl.Len() && otl.Label(timeline.Time(i)) == ntl.Label(timeline.Time(j)) {
			i++
		} else {
			inserted = append(inserted, j)
		}
	}
	if i != otl.Len() {
		return nil, fmt.Errorf("%w: time point %q dropped or moved", ErrNotExtension, otl.Label(timeline.Time(i)))
	}
	return inserted, nil
}

// checkLineage verifies that what the old graph said about its nodes still
// holds in the new one: same attribute schema, node identities and static
// values. Time-varying values and timestamps of old points are immutable in
// the accumulator lineage, so these are the only channels through which new
// input can change what an OLD per-point aggregate should contain.
func checkLineage(old, new *core.Graph) error {
	if n := old.NumAttrs(); n != new.NumAttrs() {
		return fmt.Errorf("%w: attribute schema changed (%d → %d attributes)", ErrNotExtension, n, new.NumAttrs())
	}
	nodes := old.NumNodes()
	if new.NumNodes() < nodes {
		return fmt.Errorf("%w: node count shrank", ErrNotExtension)
	}
	// A mid-timeline insert replays valid order, which assigns node IDs by
	// first appearance: a batch introducing a new node renumbers every node
	// first seen after it. The static comparison below is ID-indexed, so
	// identity comes first.
	for n := 0; n < nodes; n++ {
		if ol, nl := old.NodeLabel(core.NodeID(n)), new.NodeLabel(core.NodeID(n)); ol != nl {
			return fmt.Errorf("%w: node %d renumbered (%q → %q)", ErrNotExtension, n, ol, nl)
		}
	}
	// A static value back-filled on a pre-existing node retroactively
	// changes that node's tuple at EVERY old time point, so the frozen
	// per-point aggregates (and cached results) would silently diverge
	// from a scratch rebuild. Codes are compared directly while the new
	// dictionary extends the old; a replay that re-ordered it compares the
	// decoded values.
	for a := 0; a < new.NumAttrs(); a++ {
		id := core.AttrID(a)
		if new.Attr(id).Kind != core.Static {
			continue
		}
		od, nd := old.Dict(id), new.Dict(id)
		stable := nd.Len() >= od.Len() && slices.Equal(od.Values(), nd.Values()[:od.Len()])
		for n := 0; n < nodes; n++ {
			ov, nv := old.StaticValue(id, core.NodeID(n)), new.StaticValue(id, core.NodeID(n))
			same := ov == nv
			if !stable {
				same = od.Value(ov) == nd.Value(nv)
			}
			if same {
				continue
			}
			return fmt.Errorf("%w: node %q attribute %q (%q → %q)", ErrStaticBackfill,
				new.NodeLabel(core.NodeID(n)), new.Attr(id).Name, od.Value(ov), nd.Value(nv))
		}
	}
	return nil
}

// Advance returns the successor catalog over newG, the one way a catalog
// moves to a longer history; the catalog itself is left unchanged and keeps
// answering over its own graph. newG's timeline must contain the catalog's
// labels as a subsequence (newPoints) and agree with its graph on schema,
// node identities and static values (checkLineage); anything else is
// refused with ErrNotExtension or ErrStaticBackfill and the caller falls
// back to Rebuild. Each store is carried to newG (Store.Extend) or rebuilt
// from scratch when its tuple coding changed.
//
// Whether the result cache carries over is decided by where the new points
// landed, not by the caller. When they are a suffix of the new timeline
// (FirstDirty == the old length: a tail append) the successor shares the
// catalog's cache — cache keys are label-based interval strings and nothing
// an old label range covers changed, so either catalog may fill it. A point
// that landed earlier (a retroactive insert) puts one more point inside every
// label range spanning it, so the successor starts with a fresh cache.
// Answer and cache counters continue either way.
//
// The superseded graph's tuple-code rows are released (agg.ReleaseRows).
// What still holds that graph — the per-point aggregates a store carries
// over, a kept cached result, an in-flight request — then pins what it
// pinned before the rows existed (the graph's columns, shared with its
// successors on an accumulator); a reader that scans it again rebuilds the
// rows it reads.
func (c *Catalog) Advance(newG *core.Graph) (AdvanceStats, error) {
	oldN := c.g.Timeline().Len()
	if newG == c.g {
		return AdvanceStats{Catalog: c, FirstDirty: oldN}, nil
	}
	inserted, err := newPoints(c.g, newG)
	if err != nil {
		return AdvanceStats{}, err
	}
	if err := checkLineage(c.g, newG); err != nil {
		return AdvanceStats{}, err
	}
	stats := AdvanceStats{NewPoints: len(inserted), FirstDirty: oldN}
	if len(inserted) > 0 {
		stats.FirstDirty = inserted[0]
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	next := &Catalog{g: newG, stores: make(map[string]*Store, len(c.stores)), cache: c.cache, hits: c.hits}
	if stats.FirstDirty < oldN {
		next.cache = c.cache.Renew()
	}
	for key, st := range c.stores {
		ext, err := st.Extend(newG, inserted)
		if err == nil {
			stats.Extended++
		} else if ext, err = buildStore(newG, st.schema.Attrs()); err == nil {
			stats.Rebuilt++
		} else {
			return AdvanceStats{}, err
		}
		next.stores[key] = ext
	}
	agg.ReleaseRows(c.g)
	stats.Catalog = next
	return stats, nil
}

// Rebuild returns an empty successor catalog over g — no stores, a fresh
// result cache with the catalog's configuration — whose answer and cache
// counters continue the catalog's. It is the fallback when Advance refuses
// g.
func (c *Catalog) Rebuild(g *core.Graph) *Catalog {
	return &Catalog{g: g, stores: make(map[string]*Store), cache: c.cache.Renew(), hits: c.hits}
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
	g := c.g
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
