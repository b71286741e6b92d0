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
// broker over its index, the state-text source for snippets, and the sizes the
// serving layer reports. Gen, Docs and States are assigned by
// Server.Swap; a snapshot must not be modified after installation.
type ServeSnapshot struct {
	// Broker evaluates queries over this snapshot's index.
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
// index once the last reference is gone.
func (s *Server) Swap(ctx context.Context, snap *ServeSnapshot) *ServeSnapshot {
	gen := s.gen.Add(1)
	snap.Gen = gen
	snap.Docs, snap.States = snap.Broker.Index.NumDocs(), snap.Broker.Index.TotalStates
	s.cache.Invalidate(gen)
	old := s.live.Swap(snap)

	tel := obs.From(ctx)
	tel.Counter("query.serve.swaps").Inc()
	tel.Gauge("query.serve.snapshot.gen").Set(gen)
	tel.Gauge("query.serve.snapshot.docs").Set(int64(snap.Docs))
	return old
}

// Search answers a top-k query from the cache when possible, otherwise
// evaluates it on the live snapshot (bounded-heap top-k plus snippets)
// and fills the cache. It returns the results, the snapshot that
// answered (for generation/size reporting), and whether the answer came
// from the cache. The per-request latency lands in the
// query.serve.latency histogram whether cached or not.
func (s *Server) Search(ctx context.Context, q string, k int) ([]ResultWithSnippet, *ServeSnapshot, bool) {
	tel := obs.From(ctx)
	tel.Counter("query.serve.requests").Inc()
	start := time.Now()
	snap := s.live.Load()
	terms := Parse(q) // once: the cache key, the broker and the snippets share them
	key := cacheKey(terms, k)
	if res, ok := s.cache.Get(ctx, key, snap.Gen); ok {
		tel.Histogram("query.serve.latency").Observe(time.Since(start).Seconds())
		return res, snap, true
	}
	out := attachSnippets(snap.Broker.search(ctx, q, terms, k), snap.StateText, terms, snap.SnippetOpts)
	s.cache.Put(ctx, key, snap.Gen, out)
	tel.Histogram("query.serve.latency").Observe(time.Since(start).Seconds())
	return out, snap, false
}
