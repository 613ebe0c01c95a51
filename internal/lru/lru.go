// Package lru implements the concurrent serving cache behind the
// materialization layer: a sharded, mutex-per-shard LRU keyed by string
// with a configurable byte budget, singleflight deduplication of
// concurrent identical computations, and atomic hit/miss/eviction
// counters.
//
// The cache is generic over the value type so the same engine backs the
// materialization catalog (aggregate graphs), the cube's query cache and
// the exploration evaluator's result memo. Keys are hashed (FNV-1a) onto
// independently locked shards, so goroutines serving different keys never
// contend on one mutex; goroutines requesting the same missing key share
// one computation through Do.
package lru

import (
	"sync"
	"sync/atomic"
)

// Config sizes a Cache. The zero value selects the defaults.
type Config struct {
	// MaxBytes is the total byte budget across all shards; entries are
	// evicted least-recently-used first once a shard exceeds its share.
	// <= 0 selects 64 MiB.
	MaxBytes int64
	// Shards is the number of independently locked shards, rounded up to a
	// power of two. <= 0 selects 16.
	Shards int
}

// Stats is an atomic snapshot of the cache counters.
type Stats struct {
	Hits      int64 // Get/Do answered from a resident entry
	Misses    int64 // Do computations performed
	Deduped   int64 // Do calls that waited on another goroutine's computation
	Evictions int64 // entries dropped to respect the byte budget
	Entries   int   // resident entries
	Bytes     int64 // resident bytes (entry sizes + key overhead)
}

// entry is one resident value on a shard's intrusive LRU ring.
type entry[V any] struct {
	key        string
	val        V
	bytes      int64
	prev, next *entry[V]
}

// call is one in-flight computation other goroutines may wait on.
type call[V any] struct {
	wg  sync.WaitGroup
	val V
	err error
}

type shard[V any] struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	items    map[string]*entry[V]
	ring     entry[V] // sentinel: ring.next is most recent, ring.prev least
	flight   map[string]*call[V]
}

// Cache is a sharded byte-budgeted LRU. The zero value is not usable; use
// New.
type Cache[V any] struct {
	shards []shard[V]
	mask   uint32
	cfg    Config
	*counters
}

// counters are a cache's cumulative totals, shared with every cache Renew
// derives from it.
type counters struct {
	hits, misses, deduped, evictions atomic.Int64
}

// New returns an empty cache sized by cfg.
func New[V any](cfg Config) *Cache[V] { return newCache[V](cfg, &counters{}) }

// Renew returns an empty cache with c's configuration whose counters
// continue c's: both caches count into the same hit, miss, dedupe and
// eviction totals, so a caller that replaces c by its renewal keeps
// monotonic counters. c itself is left untouched and keeps serving.
func (c *Cache[V]) Renew() *Cache[V] { return newCache[V](c.cfg, c.counters) }

func newCache[V any](cfg Config, ctr *counters) *Cache[V] {
	maxBytes := cfg.MaxBytes
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	n := cfg.Shards
	if n <= 0 {
		n = 16
	}
	pow := 1
	for pow < n {
		pow <<= 1
	}
	c := &Cache[V]{shards: make([]shard[V], pow), mask: uint32(pow - 1), cfg: cfg, counters: ctr}
	for i := range c.shards {
		s := &c.shards[i]
		s.maxBytes = maxBytes / int64(pow)
		s.items = make(map[string]*entry[V])
		s.flight = make(map[string]*call[V])
		s.ring.next, s.ring.prev = &s.ring, &s.ring
	}
	return c
}

// fnv1a hashes the key onto a shard index.
func fnv1a(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

func (c *Cache[V]) shard(key string) *shard[V] {
	return &c.shards[fnv1a(key)&c.mask]
}

// entryOverhead approximates per-entry bookkeeping (map slot + ring links)
// charged against the budget in addition to the caller-declared size.
const entryOverhead = 64

func (s *shard[V]) unlink(e *entry[V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (s *shard[V]) pushFront(e *entry[V]) {
	e.next = s.ring.next
	e.prev = &s.ring
	s.ring.next.prev = e
	s.ring.next = e
}

// evict drops least-recently-used entries until the shard fits its budget.
// Called with the shard lock held.
func (s *shard[V]) evict(c *Cache[V]) {
	for s.bytes > s.maxBytes && s.ring.prev != &s.ring {
		e := s.ring.prev
		s.unlink(e)
		delete(s.items, e.key)
		s.bytes -= e.bytes
		c.evictions.Add(1)
	}
}

// insert stores v under key. Called with the shard lock held.
func (s *shard[V]) insert(c *Cache[V], key string, v V, bytes int64) {
	size := bytes + int64(len(key)) + entryOverhead
	if old, ok := s.items[key]; ok {
		s.unlink(old)
		s.bytes -= old.bytes
		delete(s.items, key)
	}
	e := &entry[V]{key: key, val: v, bytes: size}
	s.items[key] = e
	s.pushFront(e)
	s.bytes += size
	s.evict(c)
}

// Get returns the resident value for key, refreshing its recency.
func (c *Cache[V]) Get(key string) (V, bool) {
	s := c.shard(key)
	s.mu.Lock()
	if e, ok := s.items[key]; ok {
		s.unlink(e)
		s.pushFront(e)
		s.mu.Unlock()
		c.hits.Add(1)
		return e.val, true
	}
	s.mu.Unlock()
	c.misses.Add(1)
	var zero V
	return zero, false
}

// Contains reports whether key is resident, without refreshing its recency
// or touching the hit/miss counters. It is a prediction primitive (would a
// Get hit?), so callers that only want to describe cache behavior — like a
// query planner's Explain — don't perturb it.
func (c *Cache[V]) Contains(key string) bool {
	s := c.shard(key)
	s.mu.Lock()
	_, ok := s.items[key]
	s.mu.Unlock()
	return ok
}

// Put stores v under key, charging bytes (plus key and entry overhead)
// against the budget.
func (c *Cache[V]) Put(key string, v V, bytes int64) {
	s := c.shard(key)
	s.mu.Lock()
	s.insert(c, key, v, bytes)
	s.mu.Unlock()
}

// Do returns the value for key, computing it at most once across
// concurrent callers: a resident entry is returned immediately (cached ==
// true); otherwise the first caller runs compute while later callers for
// the same key block until it finishes and share its result (cached ==
// false for all of them). Successful results are inserted with the size
// reported by size; errors are returned to every waiter and not cached.
func (c *Cache[V]) Do(key string, size func(V) int64, compute func() (V, error)) (v V, cached bool, err error) {
	s := c.shard(key)
	s.mu.Lock()
	if e, ok := s.items[key]; ok {
		s.unlink(e)
		s.pushFront(e)
		s.mu.Unlock()
		c.hits.Add(1)
		return e.val, true, nil
	}
	if cl, ok := s.flight[key]; ok {
		s.mu.Unlock()
		c.deduped.Add(1)
		cl.wg.Wait()
		return cl.val, false, cl.err
	}
	cl := &call[V]{}
	cl.wg.Add(1)
	s.flight[key] = cl
	s.mu.Unlock()
	c.misses.Add(1)

	cl.val, cl.err = compute()

	s.mu.Lock()
	delete(s.flight, key)
	if cl.err == nil {
		s.insert(c, key, cl.val, size(cl.val))
	}
	s.mu.Unlock()
	cl.wg.Done()
	return cl.val, false, cl.err
}

// MaxBytes returns the byte budget, the default resolved.
func (c *Cache[V]) MaxBytes() int64 { return c.shards[0].maxBytes * int64(len(c.shards)) }

// Fits reports whether an entry of bytes under key fits its shard's share
// of the budget. Put of one that does not evicts its whole shard, itself
// included.
func (c *Cache[V]) Fits(key string, bytes int64) bool {
	return bytes+int64(len(key))+entryOverhead <= c.shard(key).maxBytes
}

// Len returns the number of resident entries.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the counters and residency.
func (c *Cache[V]) Stats() Stats {
	st := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Deduped:   c.deduped.Load(),
		Evictions: c.evictions.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += len(s.items)
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
}
