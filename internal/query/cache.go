package query

import (
	"container/list"
	"context"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ajaxcrawl/internal/obs"
)

// ResultCache is the serving layer's query-result cache: a sharded LRU
// keyed on the normalized query plus k, with optional TTL expiry. The
// cache is generation-aware: every entry records the snapshot generation
// it was computed from, and a hot swap invalidates the whole cache by
// installing the new generation — in-flight fills racing a swap are
// dropped (Put) or re-computed (Get), so a reader can never be served
// results from a snapshot that is no longer live.
//
// Sharding bounds lock contention under concurrent serving: keys hash to
// one of CacheOptions.Shards independent mutex+LRU shards.
//
// Counters (on the context's obs registry):
//
//	query.cache.hits       lookups served from memory
//	query.cache.misses     lookups that must evaluate the query
//	query.cache.evictions  entries displaced by capacity (LRU tail)
//	query.cache.expired    entries dropped because their TTL passed
type ResultCache struct {
	shards []cacheShard
	ttl    time.Duration
	now    func() time.Time
	gen    atomic.Int64
}

// CacheOptions configure a ResultCache.
type CacheOptions struct {
	// Shards is the number of independent LRU shards (default 8).
	Shards int
	// Capacity is the total entry budget across shards (default 1024).
	// Each shard holds Capacity/Shards entries (at least one).
	Capacity int
	// TTL bounds an entry's lifetime; 0 disables expiry.
	TTL time.Duration
	// Now is the clock (default time.Now); tests inject virtual time.
	Now func() time.Time
}

type cacheShard struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
}

type cacheEntry struct {
	key     string
	val     []ResultWithSnippet
	gen     int64
	expires time.Time // zero = never
}

// NewResultCache returns an empty cache at generation 0.
func NewResultCache(o CacheOptions) *ResultCache {
	if o.Shards <= 0 {
		o.Shards = 8
	}
	if o.Capacity <= 0 {
		o.Capacity = 1024
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	perShard := o.Capacity / o.Shards
	if perShard < 1 {
		perShard = 1
	}
	c := &ResultCache{
		shards: make([]cacheShard, o.Shards),
		ttl:    o.TTL,
		now:    o.Now,
	}
	for i := range c.shards {
		c.shards[i] = cacheShard{
			cap:     perShard,
			entries: make(map[string]*list.Element),
			lru:     list.New(),
		}
	}
	return c
}

// CacheKey normalizes a query+k pair into a cache key: queries that
// tokenize identically ("Funny  Dance!" vs "funny dance") share one
// entry. The 0x1f separator cannot appear in tokenized terms.
func CacheKey(q string, k int) string { return cacheKey(Parse(q), k) }

func cacheKey(terms []string, k int) string {
	return strings.Join(terms, " ") + "\x1f" + strconv.Itoa(k)
}

// shard picks key's shard by FNV-1a, inline (hash/fnv costs a hasher and
// a []byte copy per lookup). The modulo is unsigned: as an int the hash
// is negative for half of all keys where int is 32 bits.
func (c *ResultCache) shard(key string) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return &c.shards[h%uint32(len(c.shards))]
}

// Gen returns the cache's current generation.
func (c *ResultCache) Gen() int64 { return c.gen.Load() }

// Get returns the cached results for key, provided the entry belongs to
// snapshot generation gen and has not expired. A generation mismatch or
// an expired entry counts as a miss (and drops the entry).
func (c *ResultCache) Get(ctx context.Context, key string, gen int64) ([]ResultWithSnippet, bool) {
	tel := obs.From(ctx)
	s := c.shard(key)
	var (
		val     []ResultWithSnippet
		hit     bool
		expired bool
	)
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		switch {
		case e.gen != gen:
			s.removeLocked(el)
		case !e.expires.IsZero() && c.now().After(e.expires):
			s.removeLocked(el)
			expired = true
		default:
			s.lru.MoveToFront(el)
			val, hit = e.val, true
		}
	}
	s.mu.Unlock()
	if hit {
		tel.Counter("query.cache.hits").Inc()
		return val, true
	}
	tel.Counter("query.cache.misses").Inc()
	if expired {
		tel.Counter("query.cache.expired").Inc()
	}
	return nil, false
}

// Put stores results computed against snapshot generation gen. A fill
// whose generation is no longer current — the snapshot was swapped while
// the query evaluated — is dropped: its results describe an index that
// is no longer serving.
func (c *ResultCache) Put(ctx context.Context, key string, gen int64, val []ResultWithSnippet) {
	if gen != c.gen.Load() {
		return
	}
	tel := obs.From(ctx)
	var expires time.Time
	if c.ttl > 0 {
		expires = c.now().Add(c.ttl)
	}
	s := c.shard(key)
	evicted := 0
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		e.val, e.gen, e.expires = val, gen, expires
		s.lru.MoveToFront(el)
	} else {
		el := s.lru.PushFront(&cacheEntry{key: key, val: val, gen: gen, expires: expires})
		s.entries[key] = el
		for s.lru.Len() > s.cap {
			s.removeLocked(s.lru.Back())
			evicted++
		}
	}
	s.mu.Unlock()
	if evicted > 0 {
		tel.Counter("query.cache.evictions").Add(int64(evicted))
	}
}

// removeLocked unlinks an element; callers hold the shard lock.
func (s *cacheShard) removeLocked(el *list.Element) {
	if el == nil {
		return
	}
	delete(s.entries, el.Value.(*cacheEntry).key)
	s.lru.Remove(el)
}

// Invalidate installs a new generation and drops every entry — the
// hot-swap path. It runs before the new snapshot pointer is published
// (see Server.Swap), so fills from the outgoing generation can never
// survive into the new one.
func (c *ResultCache) Invalidate(gen int64) {
	c.gen.Store(gen)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.entries = make(map[string]*list.Element)
		s.lru.Init()
		s.mu.Unlock()
	}
}

// Len returns the number of live entries across all shards.
func (c *ResultCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}
