package query

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// serveSnapshotN builds a fresh ServeSnapshot over n single-state docs
// that all contain the term "alpha". Each call returns a new snapshot —
// Swap assigns Gen/Docs/States on its argument, so snapshots are never
// reused across swaps.
func serveSnapshotN(n int) *ServeSnapshot {
	pages := make(map[string][]string, n)
	texts := make(map[string]string, n)
	for i := 0; i < n; i++ {
		url := fmt.Sprintf("url%d", i)
		text := fmt.Sprintf("alpha content number %d", i)
		pages[url] = []string{text}
		texts[url] = text
	}
	ix := buildIndex(pages, nil)
	return &ServeSnapshot{
		Broker:    NewBroker(ix),
		StateText: func(url string, state int) string { return texts[url] },
	}
}

// TestServerCacheAndSwap: the second identical query is a cache hit (no
// broker evaluation), a hot swap invalidates the cache and bumps the
// generation, and the same snapshot content re-answers identically.
func TestServerCacheAndSwap(t *testing.T) {
	ctx, reg := cacheTestCtx(t)
	srv := NewServer(serveSnapshotN(2), CacheOptions{Shards: 2, Capacity: 16})

	res1, snap, cached := srv.Search(ctx, "alpha", 10)
	if cached {
		t.Fatal("first query reported cached")
	}
	if snap.Gen != 1 || snap.Docs != 2 || snap.States != 2 {
		t.Fatalf("snapshot meta = gen %d, %d docs, %d states", snap.Gen, snap.Docs, snap.States)
	}
	if len(res1) != 2 {
		t.Fatalf("got %d results, want 2", len(res1))
	}
	for _, r := range res1 {
		if r.Snippet == "" {
			t.Fatalf("missing snippet for %s", r.URL)
		}
	}
	evals := reg.Counter("query.count").Value()

	// Same query again — and a differently-written but
	// identically-tokenized variant — must both come from the cache.
	res2, _, cached := srv.Search(ctx, "alpha", 10)
	if !cached {
		t.Fatal("repeat query missed the cache")
	}
	if _, _, cached := srv.Search(ctx, "  ALPHA!! ", 10); !cached {
		t.Fatal("normalized variant missed the cache")
	}
	if got := reg.Counter("query.count").Value(); got != evals {
		t.Fatalf("cache hits re-evaluated the query: query.count %d -> %d", evals, got)
	}
	if len(res2) != len(res1) || res2[0].URL != res1[0].URL || res2[0].Score != res1[0].Score {
		t.Fatalf("cached results differ: %+v vs %+v", res2, res1)
	}
	if reg.Counter("query.cache.hits").Value() != 2 {
		t.Fatalf("cache hits = %d, want 2", reg.Counter("query.cache.hits").Value())
	}

	// Hot swap to a 3-doc snapshot: new generation, cold cache, new
	// sizes — and the old results never reappear.
	old := srv.Swap(ctx, serveSnapshotN(3))
	if old == nil || old.Gen != 1 {
		t.Fatalf("Swap returned %+v, want the gen-1 snapshot", old)
	}
	if srv.Cache().Len() != 0 {
		t.Fatalf("cache kept %d entries across swap", srv.Cache().Len())
	}
	res3, snap3, cached := srv.Search(ctx, "alpha", 10)
	if cached {
		t.Fatal("post-swap query served from the invalidated cache")
	}
	if snap3.Gen != 2 || snap3.Docs != 3 || len(res3) != 3 {
		t.Fatalf("post-swap: gen %d, %d docs, %d results", snap3.Gen, snap3.Docs, len(res3))
	}
	// Only the explicit swap lands on this registry: NewServer's initial
	// install runs before any request context exists.
	if reg.Counter("query.serve.swaps").Value() != 1 {
		t.Fatalf("swaps counter = %d", reg.Counter("query.serve.swaps").Value())
	}
	if reg.Gauge("query.serve.snapshot.docs").Value() != 3 {
		t.Fatalf("docs gauge = %d", reg.Gauge("query.serve.snapshot.docs").Value())
	}
}

// TestServerHotSwapRace hammers one Server with concurrent searches,
// repeated hot swaps and cache churn (run under -race in CI). The
// invariant: every response's snapshot is internally consistent — the
// generation determines the doc count, the result set size matches that
// snapshot (never the other one's), and generations only move forward.
func TestServerHotSwapRace(t *testing.T) {
	ctx := context.Background() // no registry: exercises the nil-telemetry path too
	const (
		swaps   = 300
		readers = 8
	)
	// Generation g serves 1 doc when g is odd, 2 docs when even.
	docsForGen := func(gen int64) int {
		if gen%2 == 1 {
			return 1
		}
		return 2
	}
	srv := NewServer(serveSnapshotN(1), CacheOptions{Shards: 4, Capacity: 8})

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < swaps; i++ {
			n := 2 // swap i installs generation i+2
			if (int64(i)+2)%2 == 1 {
				n = 1
			}
			srv.Swap(ctx, serveSnapshotN(n))
		}
	}()

	var wg sync.WaitGroup
	errc := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var lastGen int64
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				// Vary k to churn distinct cache keys while swaps clear them.
				k := 4 + (i+r)%3
				res, snap, _ := srv.Search(ctx, "alpha", k)
				if snap.Gen < lastGen {
					errc <- fmt.Errorf("reader %d: generation went backwards: %d after %d", r, snap.Gen, lastGen)
					return
				}
				lastGen = snap.Gen
				want := docsForGen(snap.Gen)
				if snap.Docs != want {
					errc <- fmt.Errorf("reader %d: gen %d reports %d docs, want %d", r, snap.Gen, snap.Docs, want)
					return
				}
				if len(res) != want {
					errc <- fmt.Errorf("reader %d: gen %d returned %d results, want %d — stale snapshot data", r, snap.Gen, len(res), want)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// All swaps drained: the final answer must come from the last
	// generation, not any earlier snapshot.
	finalGen := int64(swaps + 1)
	res, snap, _ := srv.Search(ctx, "alpha", 10)
	if snap.Gen != finalGen {
		t.Fatalf("final gen = %d, want %d", snap.Gen, finalGen)
	}
	if want := docsForGen(finalGen); len(res) != want || snap.Docs != want {
		t.Fatalf("final state: %d results, %d docs, want %d", len(res), snap.Docs, want)
	}
}
