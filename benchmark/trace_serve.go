package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"time"

	"ajaxcrawl/internal/admission"
	"ajaxcrawl/internal/index"
	"ajaxcrawl/internal/query"
	"ajaxcrawl/internal/router"
	"ajaxcrawl/internal/serve"
)

// replayQueries bounds the single-snapshot piece-by-piece replay: that
// many distinct queries are enough for a mean and keep a traced run
// inside the driver's per-run limit.
const replayQueries = 1000

// traceServe measures tracedRounds rounds with one client span per op,
// then replays the same queries against each layer of the serving path
// from the outside in: loopback HTTP → handler without a socket →
// query.Server pieces (single snapshot), or router.Server → Router over
// HTTP backends → Router over in-process backends → shard handler →
// ShardSearch → response decode (fan-out).
func traceServe(ctx context.Context, w *serveWorkload, tr *tracer, layers layerSet, traced *roundTotals) error {
	w.tr = tr
	for i := 0; i < tracedRounds; i++ {
		traced.measureRound(ctx, w)
	}
	w.tr = nil
	if traced.failed > 0 {
		return fmt.Errorf("traced round failed: %w", traced.firstErr)
	}
	stats := tr.stats()
	clientUS := stats["client.request"].selfUS()
	p99 := median(traced.p99)

	if err := snapshotLoadLayers(w.corpus, layers); err != nil {
		return err
	}
	if w.spec.Shards == 0 {
		layers["serve.http_p99_ms"] = p99
		if n := w.hits + w.misses; n > 0 {
			layers["query.cache_hit_ratio"] = float64(w.hits) / float64(n)
		}
		return traceSingle(ctx, w, tr, layers, clientUS)
	}
	layers["router.http_p99_ms"] = p99
	layers["router.front_us_per_query"] = clientUS
	if w.shardsTotal > 0 {
		layers["router.shards_ok_ratio"] = float64(w.shardsOK) / float64(w.shardsTotal)
	}
	layers["router.hedges_per_query"] = float64(w.hedges) / float64(traced.ops)
	return traceFanout(ctx, w, tr, layers, clientUS)
}

// observeHeaders reads the serving metadata a traced op's response
// carries (cache state; fan-out completeness and hedges).
func (w *serveWorkload) observeHeaders(h http.Header) {
	switch h.Get(serve.HeaderCache) {
	case "hit":
		w.hits++
	case "miss":
		w.misses++
	}
	if ok, total, found := strings.Cut(h.Get(router.HeaderShards), "/"); found {
		a, _ := strconv.Atoi(ok)
		b, _ := strconv.Atoi(total)
		w.shardsOK += a
		w.shardsTotal += b
	}
	if v := h.Get(router.HeaderHedges); v != "" {
		n, _ := strconv.Atoi(v)
		w.hedges += n
	}
}

// snapshotLoadLayers times what set-up pays to bring a published
// snapshot into memory: one shard decode and the whole directory load.
func snapshotLoadLayers(c *corpus, layers layerSet) error {
	start := time.Now()
	_, shards, err := index.LoadSnapshot(c.singleDir)
	if err != nil {
		return err
	}
	layers["index.snapshot_load_ms"] = float64(time.Since(start)) / float64(time.Millisecond)
	var buf bytes.Buffer
	var decode time.Duration
	for _, ix := range shards {
		buf.Reset()
		if err := ix.Encode(&buf); err != nil {
			return err
		}
		start = time.Now()
		if _, err := index.Decode(&buf); err != nil {
			return err
		}
		decode += time.Since(start)
	}
	layers["index.decode_ms"] = float64(decode) / float64(time.Millisecond)
	return nil
}

// recorderGet drives a handler with no socket.
func recorderGet(h http.Handler, path string) (*httptest.ResponseRecorder, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", path, rec.Code, rec.Body.Bytes())
	}
	return rec, nil
}

// traceSingle replays the single-snapshot path.
func traceSingle(ctx context.Context, w *serveWorkload, tr *tracer, layers layerSet, clientUS float64) error {
	// The handler without HTTP: a second server over the same snapshot,
	// fed the whole stream twice so its cache is in the round's steady
	// state on the measured pass. Loopback minus this is what the socket,
	// net/http and the client cost.
	s, err := serve.New(defaultServeConfig(w.corpus.singleDir), daemonTelemetry())
	if err != nil {
		return err
	}
	h := s.Handler()
	for pass := 0; pass < 2; pass++ {
		for i, q := range w.stream {
			var id int
			if pass == 1 {
				id = tr.start("serve.search_handler", 0, i+1)
			}
			_, err := recorderGet(h, searchPath(q))
			tr.end(id)
			if err != nil {
				return err
			}
		}
	}
	handlerUS := tr.stats()["serve.search_handler"].selfUS()
	layers["serve.search_handler_us_per_request"] = handlerUS
	layers["serve.http_overhead_us"] = clientUS - handlerUS

	// The pieces under the handler, each on every distinct replay query
	// (a miss's work; hits skip all but parse and the cache).
	live := w.fleet.servers[0].QueryServer().Live()
	cache := query.NewResultCache(query.CacheOptions{Shards: 8, Capacity: 1024})
	limiter := admission.New(admission.Config{Initial: 64, Min: 1, Max: 64})
	seen := make(map[string]bool)
	var results, queries int
	for i, q := range w.stream {
		if seen[q] || queries >= replayQueries {
			continue
		}
		seen[q] = true
		queries++
		op := i + 1
		tr.timed("query.parse", 0, op, func() { query.Parse(q) })
		var rs []query.Result
		tr.timed("query.topk", 0, op, func() { rs = live.Broker.SearchTopKCtx(ctx, q, searchK) })
		var withSnips []query.ResultWithSnippet
		tr.timed("query.snippet", 0, op, func() {
			withSnips = query.AttachSnippets(rs, live.StateText, q, live.SnippetOpts)
		})
		results += len(rs)
		key := query.CacheKey(q, searchK)
		tr.timed("query.cache_put", 0, op, func() { cache.Put(ctx, key, cache.Gen(), withSnips) })
		tr.timed("query.cache_get", 0, op, func() { cache.Get(ctx, key, cache.Gen()) })
		var admitErr error
		tr.timed("admission.acquire_release", 0, op, func() {
			tok, err := limiter.Acquire(ctx)
			if err != nil {
				admitErr = err
				return
			}
			tok.Release()
		})
		if admitErr != nil {
			return admitErr
		}
	}
	stats := tr.stats()
	ns := func(name string) float64 { return stats[name].selfUS() * 1000 }
	layers["query.parse_us_per_query"] = stats["query.parse"].selfUS()
	layers["query.topk_us_per_query"] = stats["query.topk"].selfUS()
	layers["query.snippet_us_per_query"] = stats["query.snippet"].selfUS()
	layers["query.results_per_query"] = float64(results) / float64(queries)
	layers["query.cache_get_ns"] = ns("query.cache_get")
	layers["query.cache_put_ns"] = ns("query.cache_put")
	layers["admission.acquire_release_ns"] = ns("admission.acquire_release")
	return nil
}

// traceFanout replays the fan-out path, one layer of wrapping at a time.
func traceFanout(ctx context.Context, w *serveWorkload, tr *tracer, layers layerSet, frontUS float64) error {
	spec, f, stream := w.spec, w.fleet, w.stream
	// One replica per shard is enough for the in-process layers.
	shards := make([]*serve.Server, spec.Shards)
	local := make([][]router.Backend, spec.Shards)
	for i := range shards {
		shards[i] = f.servers[i*spec.Replicas]
		local[i] = []router.Backend{router.LocalBackend{QS: shards[i].QueryServer()}}
	}
	localRouter, err := router.New(defaultRouterConfig(local))
	if err != nil {
		return err
	}

	var candidates, respBytes int
	var attributed time.Duration
	for i, q := range stream {
		op := i + 1
		// Shard side, per shard: ShardSearch alone, then the whole
		// /shard/search handler without a socket (its excess over
		// ShardSearch is admission + JSON encode), then the router's
		// decode of those very bytes.
		var slowestShard, slowestSearch time.Duration
		for _, s := range shards {
			start := time.Now()
			tr.timed("query.shard_search", 0, op, func() {
				candidates += len(s.QueryServer().ShardSearch(ctx, q).Candidates)
			})
			search := time.Since(start)

			start = time.Now()
			id := tr.start("serve.shard_handler", 0, op)
			rec, err := recorderGet(s.Handler(), "/shard/search?q="+url.QueryEscape(q))
			tr.end(id)
			if err != nil {
				return err
			}
			body := rec.Body.Bytes()
			respBytes += len(body)
			tr.timed("router.decode", 0, op, func() {
				_, err = router.DecodeShardResult(bytes.NewReader(body), 0)
			})
			if err != nil {
				return fmt.Errorf("decode shard response for %q: %w", q, err)
			}
			if d := time.Since(start); d > slowestShard {
				slowestShard = d
			}
			if search > slowestSearch {
				slowestSearch = search
			}
		}
		// Router over in-process shards: parallel ShardSearch + merge.
		start := time.Now()
		id := tr.start("router.local", 0, op)
		_, err := localRouter.Search(ctx, q, searchK)
		tr.end(id)
		if err != nil {
			return err
		}
		merge := time.Since(start) - slowestSearch
		if merge < 0 {
			merge = 0
		}
		// Router over the fleet's HTTP backends, no front listener.
		id = tr.start("router.http", 0, op)
		_, err = f.rt.Search(ctx, q, searchK)
		tr.end(id)
		if err != nil {
			return err
		}
		attributed += slowestShard + merge
	}
	stats := tr.stats()
	n := float64(len(stream))
	layers["query.shard_search_us_per_query"] = float64(stats["query.shard_search"].Self) / float64(time.Microsecond) / n
	layers["query.shard_candidates_per_query"] = float64(candidates) / n
	layers["serve.shard_resp_kb_per_query"] = float64(respBytes) / 1024 / n
	layers["serve.shard_handler_us_per_request"] = stats["serve.shard_handler"].selfUS()
	layers["router.decode_us_per_response"] = stats["router.decode"].selfUS()
	layers["router.local_us_per_query"] = stats["router.local"].selfUS()
	layers["router.http_us_per_query"] = stats["router.http"].selfUS()
	// The ledger: a routed query waits for its slowest shard (handler +
	// decode) and then the merge; what the front-door latency holds
	// beyond that is HTTP on both hops, the router's own handler and the
	// client — nothing a layer above owns.
	if frontUS > 0 {
		layers["router.unattributed_share"] = 1 - float64(attributed)/float64(time.Microsecond)/n/frontUS
	}
	return nil
}
