package plan

import (
	"sync"

	"repro/internal/core"
	"repro/internal/materialize"
)

// Cache memoizes compiled plans keyed on the logical node's canonical text
// (Logical.Key, a normalized query rendering). A cache belongs to one
// serving State: compiled plans bind resolved views and schemas to that
// state's graph and catalog, so every new state starts with an empty cache
// and its plans are dropped together with it. A cache must not be shared
// across graphs.
//
// Only successfully compiled plans are stored, so a hit can never replay a
// resolution error from a differently-positioned query spelling. Safe for
// concurrent use; eviction is FIFO at a fixed entry count (plans are small
// — views and schemas, no result data).
type Cache struct {
	mu    sync.Mutex
	m     map[string]*Plan
	order []string
	max   int
}

// NewCache returns a cache of at most maxEntries plans (<= 0 selects 256).
func NewCache(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = 256
	}
	return &Cache{m: make(map[string]*Plan), max: maxEntries}
}

// Advance empties the cache, for a caller that moves one cache to a new
// graph generation instead of starting a new State. bench/ is its last
// caller.
func (c *Cache) Advance(*core.Graph, *materialize.Catalog, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = make(map[string]*Plan)
	c.order = nil
}

func (c *Cache) lookup(key string) *Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[key]
}

func (c *Cache) store(key string, p *Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
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
