package query

import (
	"context"
	"hash/fnv"
	"testing"
	"time"

	"ajaxcrawl/internal/obs"
)

func cacheTestCtx(t *testing.T) (context.Context, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	return obs.With(context.Background(), obs.New(reg, nil)), reg
}

func fakeResults(url string) []ResultWithSnippet {
	return []ResultWithSnippet{{Result: Result{URL: url, State: 0, Score: 1}, Snippet: url}}
}

// TestCacheScriptedSequence drives a single-shard cache through a fixed
// access script on a virtual clock and pins the exact counter values at
// every step — hits, misses, LRU evictions and TTL expiries each have to
// land on precisely the operation that causes them.
func TestCacheScriptedSequence(t *testing.T) {
	ctx, reg := cacheTestCtx(t)
	now := time.Unix(1000, 0)
	c := NewResultCache(CacheOptions{
		Shards:   1, // single shard: global LRU order is deterministic
		Capacity: 2,
		TTL:      time.Minute,
		Now:      func() time.Time { return now },
	})
	const gen = 1
	c.Invalidate(gen)

	hits := reg.Counter("query.cache.hits")
	misses := reg.Counter("query.cache.misses")
	evictions := reg.Counter("query.cache.evictions")
	expired := reg.Counter("query.cache.expired")
	keyA, keyB, keyC := CacheKey("alpha", 5), CacheKey("bravo", 5), CacheKey("charlie", 5)

	check := func(step string, wantHits, wantMisses, wantEvict, wantExpired int64) {
		t.Helper()
		if hits.Value() != wantHits || misses.Value() != wantMisses ||
			evictions.Value() != wantEvict || expired.Value() != wantExpired {
			t.Fatalf("%s: counters hits=%d misses=%d evictions=%d expired=%d, want %d/%d/%d/%d",
				step, hits.Value(), misses.Value(), evictions.Value(), expired.Value(),
				wantHits, wantMisses, wantEvict, wantExpired)
		}
	}

	if _, ok := c.Get(ctx, keyA, gen); ok {
		t.Fatal("empty cache hit")
	}
	check("cold get A", 0, 1, 0, 0)

	c.Put(ctx, keyA, gen, fakeResults("a"))
	if v, ok := c.Get(ctx, keyA, gen); !ok || v[0].URL != "a" {
		t.Fatalf("get A after put = %v, %v", v, ok)
	}
	check("hit A", 1, 1, 0, 0)

	c.Put(ctx, keyB, gen, fakeResults("b"))
	if _, ok := c.Get(ctx, keyB, gen); !ok {
		t.Fatal("get B after put missed")
	}
	check("hit B", 2, 1, 0, 0)

	// Capacity is 2 and the LRU order is [B, A] (A was touched before
	// B): inserting C must evict exactly A.
	c.Put(ctx, keyC, gen, fakeResults("c"))
	check("insert C evicts A", 2, 1, 1, 0)
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if _, ok := c.Get(ctx, keyA, gen); ok {
		t.Fatal("A survived eviction")
	}
	check("miss evicted A", 2, 2, 1, 0)
	if _, ok := c.Get(ctx, keyB, gen); !ok {
		t.Fatal("B evicted out of LRU order")
	}
	if _, ok := c.Get(ctx, keyC, gen); !ok {
		t.Fatal("C missing right after insert")
	}
	check("B and C still live", 4, 2, 1, 0)

	// Advance the virtual clock past the TTL: both entries expire, and
	// each expired lookup counts as miss + expired, not a hit.
	now = now.Add(time.Minute + time.Second)
	if _, ok := c.Get(ctx, keyB, gen); ok {
		t.Fatal("B served after TTL")
	}
	check("B expired", 4, 3, 1, 1)
	if c.Len() != 1 {
		t.Fatalf("len after expiry drop = %d, want 1", c.Len())
	}

	// Generation checks: a Put from a stale generation is dropped, and a
	// Get against an entry from another generation misses.
	c.Put(ctx, keyA, gen-1, fakeResults("stale"))
	if _, ok := c.Get(ctx, keyA, gen); ok {
		t.Fatal("stale-generation fill was served")
	}
	check("stale put dropped", 4, 4, 1, 1)

	c.Put(ctx, keyA, gen, fakeResults("a2"))
	c.Invalidate(gen + 1)
	if c.Len() != 0 {
		t.Fatalf("len after invalidate = %d, want 0", c.Len())
	}
	if _, ok := c.Get(ctx, keyA, gen+1); ok {
		t.Fatal("entry survived Invalidate")
	}
	check("post-swap miss", 4, 5, 1, 1)
}

// TestCacheKeyNormalization: queries that tokenize identically share one
// cache entry; different k values do not.
func TestCacheKeyNormalization(t *testing.T) {
	if CacheKey("Funny  Dance!", 5) != CacheKey("funny dance", 5) {
		t.Fatal("normalized queries must share a key")
	}
	if CacheKey("funny dance", 5) == CacheKey("funny dance", 6) {
		t.Fatal("different k must not share a key")
	}
	if CacheKey("funny dance", 5) == CacheKey("funny", 5) {
		t.Fatal("different queries must not share a key")
	}
}

// TestCacheTTLDisabled: with TTL 0 entries never expire, whatever the
// clock does.
func TestCacheTTLDisabled(t *testing.T) {
	ctx, reg := cacheTestCtx(t)
	now := time.Unix(1000, 0)
	c := NewResultCache(CacheOptions{Shards: 1, Capacity: 4, Now: func() time.Time { return now }})
	c.Invalidate(1)
	c.Put(ctx, CacheKey("q", 1), 1, fakeResults("x"))
	now = now.Add(1000 * time.Hour)
	if _, ok := c.Get(ctx, CacheKey("q", 1), 1); !ok {
		t.Fatal("entry expired with TTL disabled")
	}
	if reg.Counter("query.cache.expired").Value() != 0 {
		t.Fatal("expired counter moved with TTL disabled")
	}
}

// TestCacheShardTopBitKeys: the shard index is the key's FNV-1a hash
// modulo the shard count, taken unsigned. As an int the hash of half of
// all keys is negative where int is 32 bits, and the modulo with it — an
// index-out-of-range panic on the first Get. Keys whose hash has the
// top bit set must land in range, on the shard hash/fnv names.
func TestCacheShardTopBitKeys(t *testing.T) {
	for _, shards := range []int{1, 3, 8} {
		c := NewResultCache(CacheOptions{Shards: shards, Capacity: 64})
		topBit := 0
		for i := 0; topBit < 50; i++ {
			key := CacheKey("query "+itoa(i), i%7+1)
			h := fnv.New32a()
			h.Write([]byte(key))
			sum := h.Sum32()
			if int32(sum) >= 0 {
				continue
			}
			topBit++
			got := c.shard(key)
			if want := &c.shards[sum%uint32(shards)]; got != want {
				t.Fatalf("key %q (hash %#x) of %d shards: not the hash/fnv shard %d", key, sum, shards, sum%uint32(shards))
			}
		}
	}
}
