package plan

import (
	"repro/internal/core"
	"repro/internal/lru"
	"repro/internal/materialize"
)

// Cache holds one serving State's compiled plans, keyed on the logical
// node's canonical text (Logical.Key), and the answers they computed:
// compiled plans bind resolved views and schemas to that state's graph and
// catalog, and a state never changes, so a plan's first successful answer
// is the answer to every later request for it (Plan.Answer). Every new
// state starts with an empty cache, and its plans and answers are dropped
// together with it. A cache must not be shared across graphs.
//
// Only successfully compiled plans are stored, so a hit can never replay a
// resolution error from a differently-positioned query spelling. Plans and
// answers share one byte budget, evicted least-recently-used first; an
// answer larger than the whole budget is served but not kept. Safe for
// concurrent use.
type Cache struct {
	plans *lru.Cache[*Plan]
}

// planBytes is what a compiled plan is charged against the budget: 512
// bytes per operator, plus the node and edge bitsets of every view it
// keeps, which span the whole graph.
func planBytes(op physOp) int64 {
	n := int64(512)
	if v, ok := op.(*viewOp); ok {
		n += int64(v.view.Nodes().Len()+v.view.Edges().Len()) / 8
	}
	for _, c := range op.children() {
		n += planBytes(c)
	}
	return n
}

// NewCache returns an empty cache of at most maxBytes resident plans and
// answers (<= 0 selects the lru default, 64 MiB).
func NewCache(maxBytes int64) *Cache {
	return &Cache{plans: lru.New[*Plan](lru.Config{MaxBytes: maxBytes, Shards: 1})}
}

// Advance empties the cache, for a caller that moves one cache to a new
// graph generation instead of starting a new State. bench/ is its last
// caller.
func (c *Cache) Advance(*core.Graph, *materialize.Catalog, int) { c.plans = c.plans.Renew() }

func (c *Cache) lookup(key string) *Plan {
	p, _ := c.plans.Get(key)
	return p
}

// store caches p, unless it alone exceeds the budget.
func (c *Cache) store(p *Plan) {
	if size := planBytes(p.root); c.plans.Fits(p.key, size) {
		c.plans.Put(p.key, p, size)
	}
}

// keep memoizes res as p's answer and charges it against the budget, unless
// it could never fit or another request's answer got there first.
func (c *Cache) keep(p *Plan, res *Result) {
	size := planBytes(p.root) + res.bytes()
	if c.plans.Fits(p.key, size) && p.answer.CompareAndSwap(nil, res) {
		c.plans.Put(p.key, p, size)
	}
}

// MaxBytes returns the cache's byte budget; Bytes, what is resident of it.
func (c *Cache) MaxBytes() int64 { return c.plans.MaxBytes() }
func (c *Cache) Bytes() int64    { return c.plans.Stats().Bytes }

// Len returns the number of cached plans.
func (c *Cache) Len() int { return c.plans.Len() }
