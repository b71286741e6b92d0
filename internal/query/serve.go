package query

import (
	"context"
	"sync/atomic"
	"time"

	"ajaxcrawl/internal/obs"
)

// Serving-side query evaluation: a Server owns the *live* search state —
// an immutable ServeSnapshot reached through one atomic pointer — plus
// the result cache in front of it. Snapshots are never mutated after
// installation, so a hot swap is a pointer store: readers that loaded
// the old snapshot finish their evaluation against it and drain
// naturally (the garbage collector reclaims it once the last reader
// returns), while every later request sees the new one. No locks sit on
// the read path.

// ServeSnapshot is one immutable generation of serving state: the
// sharded broker, the state-text source for snippets, and the sizes the
// serving layer reports. Gen, Docs and States are assigned by
// Server.Swap; a snapshot must not be modified after installation.
type ServeSnapshot struct {
	// Broker evaluates queries over this snapshot's shards.
	Broker *Broker
	// StateText resolves (url, state) to the state's visible text for
	// snippet generation (Broker.StateText); nil disables snippets.
	StateText func(url string, state int) string
	// SnippetOpts tune snippet extraction.
	SnippetOpts SnippetOptions
	// Gen is the monotonically increasing generation number, assigned
	// at swap time.
	Gen int64
	// Docs and States are the snapshot's aggregate sizes, computed at
	// swap time.
	Docs, States int
}

// Server serves queries from the live snapshot through a result cache,
// and supports atomic hot swaps of the snapshot.
type Server struct {
	live  atomic.Pointer[ServeSnapshot]
	cache *ResultCache
	gen   atomic.Int64
}

// NewServer returns a Server serving snap (which must be non-nil) with a
// fresh result cache.
func NewServer(snap *ServeSnapshot, cacheOpts CacheOptions) *Server {
	s := &Server{cache: NewResultCache(cacheOpts)}
	s.Swap(context.Background(), snap)
	return s
}

// Live returns the currently serving snapshot.
func (s *Server) Live() *ServeSnapshot { return s.live.Load() }

// Cache exposes the result cache (read-mostly use: Len, Gen).
func (s *Server) Cache() *ResultCache { return s.cache }

// Swap atomically installs snap as the live snapshot and returns the
// previous one (nil on first install). The order matters: the cache is
// invalidated *into the new generation first*, then the pointer is
// published. A reader racing the swap either still holds the old
// snapshot — its cache fills are dropped by the generation check — or
// already sees the new one, whose fills are valid. Old snapshots drain:
// in-flight evaluations against them complete, and the GC reclaims the
// shards once the last reference is gone.
func (s *Server) Swap(ctx context.Context, snap *ServeSnapshot) *ServeSnapshot {
	gen := s.gen.Add(1)
	snap.Gen = gen
	snap.Docs, snap.States = 0, 0
	for _, shard := range snap.Broker.Shards {
		snap.Docs += shard.NumDocs()
		snap.States += shard.TotalStates
	}
	s.cache.Invalidate(gen)
	old := s.live.Swap(snap)

	tel := obs.From(ctx)
	tel.Counter("query.serve.swaps").Inc()
	tel.Gauge("query.serve.snapshot.gen").Set(gen)
	tel.Gauge("query.serve.snapshot.docs").Set(int64(snap.Docs))
	return old
}

// SearchOptions tune one evaluation — the serving layer's brownout
// path degrades queries through these rather than a separate engine.
type SearchOptions struct {
	// NoSnippets skips snippet extraction: two scans of each result's
	// state text, about three quarters of a cold evaluation (140 µs to
	// top-k's 39 µs per miss on serve_single). Snippet-free results are
	// cached in their own namespace so they can never shadow a
	// full-quality entry.
	NoSnippets bool
}

// Search answers a top-k query from the cache when possible, otherwise
// evaluates it on the live snapshot (bounded-heap top-k plus snippets)
// and fills the cache. It returns the results, the snapshot that
// answered (for generation/size reporting), and whether the answer came
// from the cache. The per-request latency lands in the
// query.serve.latency histogram whether cached or not.
func (s *Server) Search(ctx context.Context, q string, k int) ([]ResultWithSnippet, *ServeSnapshot, bool) {
	return s.SearchOpts(ctx, q, k, SearchOptions{})
}

// SearchOpts is Search with per-query options.
func (s *Server) SearchOpts(ctx context.Context, q string, k int, opt SearchOptions) ([]ResultWithSnippet, *ServeSnapshot, bool) {
	tel := obs.From(ctx)
	tel.Counter("query.serve.requests").Inc()
	start := time.Now()
	snap := s.live.Load()
	terms := Parse(q) // once: the cache key, the broker and the snippets share them
	key := cacheKey(terms, k)
	stateText := snap.StateText
	if opt.NoSnippets {
		// "\x1fns" cannot collide with a real key: tokenized terms never
		// contain 0x1f, so a full-quality key ends in the k integer.
		key += "\x1fns"
		stateText = nil
	}
	if res, ok := s.cache.Get(ctx, key, snap.Gen); ok {
		tel.Histogram("query.serve.latency").Observe(time.Since(start).Seconds())
		return res, snap, true
	}
	out := attachSnippets(snap.Broker.search(ctx, q, terms, k), stateText, terms, snap.SnippetOpts)
	s.cache.Put(ctx, key, snap.Gen, out)
	tel.Histogram("query.serve.latency").Observe(time.Since(start).Seconds())
	return out, snap, false
}

// Cached answers a top-k query only if the full-quality cache already
// holds it — the brownout path's "prefer cached results" probe: a hit
// costs nothing and loses no quality, so a pressured server checks here
// before degrading the evaluation. ok is false on a miss. The probe
// deliberately bypasses the cache hit/miss counters (the subsequent
// degraded SearchOpts lookup counts once).
func (s *Server) Cached(q string, k int) ([]ResultWithSnippet, *ServeSnapshot, bool) {
	snap := s.live.Load()
	res, ok := s.cache.Get(context.Background(), CacheKey(q, k), snap.Gen)
	if !ok {
		return nil, snap, false
	}
	return res, snap, true
}
