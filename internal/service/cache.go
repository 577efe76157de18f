package service

import (
	"container/list"
	"sync"
)

// Cache is the content-addressed result store: finished job results, as
// exact wire bytes, keyed by scenario.JobKey. Because every key pins the
// code version, seed derivation, and full run configuration, a hit is a
// bit-for-bit replay of the first computation — the cache never serves an
// approximation.
//
// The cache holds at most a budget of bytes. Each entry is charged its
// result's length plus entryOverhead, which covers what lives exactly as
// long as the entry: the scheduler's job record and the index entries
// under its key. Least-recently-used entries are evicted while the cache is
// over budget, but the newest entry always stays. Get and Touch refresh an
// entry's recency, so a hot result survives churn from cold ones. Put
// reports the evicted keys to its caller instead of invoking a callback, so
// the scheduler can apply its own bookkeeping under its own lock — no
// foreign code ever runs under the cache lock. All methods are safe for
// concurrent use.
type Cache struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64 // charged bytes of the held entries
	entries map[string]*list.Element
	order   *list.List // front is least recently used, back is most recent
	hits    int64
	misses  int64
}

// entry is the list payload: the key rides along so eviction can report it.
type entry struct {
	key string
	val []byte
}

// DefaultCacheBytes is the byte budget used when Config leaves CacheBytes
// zero: about 1,500 finished n = 64 trial jobs, or 780 certificates.
const DefaultCacheBytes = 2 << 20

// entryOverhead is what one entry is charged beyond its result's length. A
// finished n = 64 trial job retains about 1.3 KiB of which 0.4 KiB is its
// result, and a certificate about 2.7 KiB of which 1.7 KiB is its result.
const entryOverhead = 1 << 10

// charge is the number of bytes an entry holding val is charged.
func charge(val []byte) int64 { return int64(len(val)) + entryOverhead }

// NewCache returns an empty cache holding at most budget bytes (0 picks
// DefaultCacheBytes).
func NewCache(budget int64) *Cache {
	if budget <= 0 {
		budget = DefaultCacheBytes
	}
	return &Cache{
		budget:  budget,
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}
}

// Get returns the stored bytes for key and refreshes the entry's recency.
// The returned slice is shared — the whole point is byte identity — and
// must be treated as read-only.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToBack(el)
	return el.Value.(*entry).val, true
}

// Touch refreshes the recency of key's entry, if it holds one, without
// counting a lookup: a replay answered from elsewhere (the scheduler's
// finished job record) is still a use of the entry.
func (c *Cache) Touch(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToBack(el)
	}
}

// Put stores val under key and returns the keys evicted to bring the cache
// back within its budget, least recently used first; the new entry itself
// is never evicted. Re-putting an existing key refreshes its recency but
// keeps the original bytes: the first computation wins, which keeps
// replays identical over the cache entry's lifetime. Callers that mirror
// cache membership elsewhere must process the returned keys under their
// own lock.
func (c *Cache) Put(key string, val []byte) (evicted []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, exists := c.entries[key]; exists {
		c.order.MoveToBack(el)
		return nil
	}
	c.entries[key] = c.order.PushBack(&entry{key: key, val: val})
	c.bytes += charge(val)
	for c.bytes > c.budget && c.order.Len() > 1 {
		oldest := c.order.Remove(c.order.Front()).(*entry)
		delete(c.entries, oldest.key)
		c.bytes -= charge(oldest.val)
		evicted = append(evicted, oldest.key)
	}
	return evicted
}

// Len returns the number of cached results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the charged bytes of the cached results.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Lookups returns the raw Get counters (hits, misses). These count cache
// probes, not job outcomes; the scheduler's Stats reports the job-level
// hit rate the acceptance checks care about.
func (c *Cache) Lookups() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
