package plan

import (
	"sync"

	"repro/internal/core"
	"repro/internal/materialize"
)

// Cache memoizes compiled plans keyed on the logical node's canonical text
// (Logical.Key, a normalized query rendering). It is generation-keyed on
// the (graph, catalog) identity the plans were compiled against: compiled plans bind resolved views and
// schemas to one concrete graph, so when a serving snapshot is replaced
// wholesale the cache is flushed rather than ever serving a plan built on
// an unrelated graph.
//
// Append-only growth gets a cheaper path: Advance rebinds the cache to the
// extended (graph, catalog) generation and evicts only the plans that can
// observe the appended suffix — unbounded plans (whole-timeline traversals
// like EXPLORE, TOP and TIMELINE) and bounded plans whose resolved
// intervals reach at or past the first dirty time point. A bounded plan
// over the clean prefix keeps serving: it executes against the retired
// snapshot, whose points are frozen by the append-only contract, so its
// results are identical to a recompile. The pair it was compiled against
// is remembered as the retired generation, and in-flight lookups/stores
// from that generation degrade to misses/drops instead of flushing the
// advanced cache.
//
// Only successfully compiled plans are stored, so a hit can never replay a
// resolution error from a differently-positioned query spelling. Safe for
// concurrent use; eviction is FIFO at a bounded entry count (plans are
// small — views and schemas, no result data).
type Cache struct {
	mu    sync.Mutex
	g     *core.Graph
	cat   *materialize.Catalog
	prevG *core.Graph
	prevC *materialize.Catalog
	m     map[string]*Plan
	order []string
	max   int
}

// NewCache returns a plan cache bounded to maxEntries (<= 0 selects 256).
func NewCache(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = 256
	}
	return &Cache{m: make(map[string]*Plan), max: maxEntries}
}

// retired reports whether (g, cat) is the remembered just-retired
// generation (and not the current one). Called with c.mu held.
func (c *Cache) retired(g *core.Graph, cat *materialize.Catalog) bool {
	return g == c.prevG && cat == c.prevC && (g != c.g || cat != c.cat)
}

// syncGeneration flushes the cache when the (graph, catalog) pair changed.
// Called with c.mu held.
func (c *Cache) syncGeneration(g *core.Graph, cat *materialize.Catalog) {
	if c.g != g || c.cat != cat {
		c.g, c.cat = g, cat
		c.m = make(map[string]*Plan)
		c.order = c.order[:0]
	}
}

// Advance rebinds the cache to an append-only extension of the current
// generation without flushing it. firstDirty is the index of the first
// appended time point (the retired timeline's length, or 0 to distrust
// the whole history, e.g. when a static attribute was back-filled on an
// old node): every unbounded plan and every bounded plan touching time ≥
// firstDirty is evicted, the rest keep serving. It returns how many plans
// were kept and evicted.
func (c *Cache) Advance(g *core.Graph, cat *materialize.Catalog, firstDirty int) (kept, evicted int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.g == g && c.cat == cat {
		return len(c.m), 0
	}
	c.prevG, c.prevC = c.g, c.cat
	c.g, c.cat = g, cat
	order := make([]string, 0, len(c.order))
	for _, key := range c.order {
		p := c.m[key]
		if p == nil {
			continue
		}
		if !p.bounded || p.maxTime >= firstDirty {
			delete(c.m, key)
			evicted++
			continue
		}
		order = append(order, key)
	}
	c.order = order
	return len(c.m), evicted
}

// Reset rebinds the cache to a freshly rebuilt (graph, catalog) pair,
// flushing every plan — the full-rebuild counterpart of Advance.
func (c *Cache) Reset(g *core.Graph, cat *materialize.Catalog) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.prevG, c.prevC = c.g, c.cat
	c.syncGeneration(g, cat)
}

func (c *Cache) lookup(g *core.Graph, cat *materialize.Catalog, key string) *Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.retired(g, cat) {
		return nil
	}
	c.syncGeneration(g, cat)
	return c.m[key]
}

func (c *Cache) store(g *core.Graph, cat *materialize.Catalog, key string, p *Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.retired(g, cat) {
		return
	}
	c.syncGeneration(g, cat)
	if _, ok := c.m[key]; !ok {
		for len(c.order) >= c.max {
			delete(c.m, c.order[0])
			c.order = c.order[1:]
		}
		c.order = append(c.order, key)
	}
	c.m[key] = p
}

// Len returns the number of cached plans.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
