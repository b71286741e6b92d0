// Package serve is the search serving layer: a long-running HTTP front
// end that answers keyword queries from persisted index snapshots — the
// piece that turns the crawl-then-query-once pipeline into a search
// *service* (thesis ch. 5–6's endgame; ROADMAP "serve heavy traffic").
//
// The design follows the classic crawler/repository split: the crawler
// publishes immutable snapshot directories (shards + manifest,
// internal/index; the shards carry the state text snippets are cut
// from), and the server loads one, fronts it with a sharded
// LRU result cache, and hot-swaps to a new snapshot — load in the
// background, swap one atomic pointer, let old readers drain — whenever
// the manifest's ID changes (Reload/Watch). Per-query deadlines, an
// adaptive admission gate (internal/admission: 429 + computed
// Retry-After on saturation), deadline-budget propagation from upstream
// routers, and a brownout mode that degrades quality before shedding
// keep an overloaded server answering instead of collapsing. The /search
// request path is Front, which internal/router's fan-out answers through.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"ajaxcrawl/internal/admission"
	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/index"
	"ajaxcrawl/internal/obs"
	"ajaxcrawl/internal/query"
)

// Response headers: per-request serving metadata rides on headers, not
// the JSON body, so response bodies for one snapshot's content are
// byte-stable across cache states, swaps of identical snapshots, and
// whole re-crawls (the golden end-to-end test pins this).
const (
	// HeaderGeneration is the serving generation that answered.
	HeaderGeneration = "X-Ajaxserve-Generation"
	// HeaderDocs is that generation's document count.
	HeaderDocs = "X-Ajaxserve-Docs"
	// HeaderStates is that generation's state count.
	HeaderStates = "X-Ajaxserve-States"
	// HeaderCache is "hit" or "miss".
	HeaderCache = "X-Ajaxserve-Cache"
	// HeaderBudget carries the caller's remaining deadline budget in
	// whole milliseconds (the router's fan-out sets it per shard call).
	// The server clamps its per-query deadline to it and fast-rejects
	// when it is already below BudgetFloor — no tier burns CPU on work
	// the caller has abandoned.
	HeaderBudget = "X-Ajaxserve-Budget-Ms"
	// HeaderDegraded marks a brownout answer and names what was shed:
	// "snippets" or "snippets,k". Absent on full-quality responses, so
	// routers and tests can tell exactly which bodies are comparable.
	HeaderDegraded = "X-Ajaxserve-Degraded"
)

// Config parameterizes a Server.
type Config struct {
	// SnapshotDir is the snapshot directory to serve (required).
	SnapshotDir string
	// DefaultK, MaxK, MaxInflight, AdmissionMin, AdmissionQueue,
	// AdmissionTarget and QueryTimeout configure the /search front and
	// its admission gate, which /shard/search shares: see FrontConfig.
	DefaultK        int
	MaxK            int
	MaxInflight     int
	AdmissionMin    int
	AdmissionQueue  int
	AdmissionTarget time.Duration
	QueryTimeout    time.Duration
	// CacheShards, CacheCapacity and CacheTTL configure the result
	// cache (defaults 8 / 1024 / no expiry).
	CacheShards   int
	CacheCapacity int
	CacheTTL      time.Duration
	// BudgetFloor fast-rejects requests whose propagated deadline
	// budget (HeaderBudget) is at or below this remaining time
	// (default 2ms) — by then the caller has hedged or given up.
	BudgetFloor time.Duration
	// NoBrownout disables graceful degradation under queue pressure
	// (brownout is only active when AdmissionQueue > 0 anyway).
	NoBrownout bool
	// Weights are the ranking coefficients (default query.DefaultWeights).
	Weights *query.Weights
	// Clock supplies timestamps for admission control and budget
	// accounting (nil = wall clock).
	Clock fetch.Clock
}

// Server is the HTTP search daemon's engine room: the hot-swappable
// query server plus snapshot (re)loading, behind the /search front it
// shares with the router (Front: Handler, Limiter).
type Server struct {
	*Front
	cfg Config
	qs  *query.Server

	// mu serializes Reload: only one snapshot load/swap runs at a time.
	// Serving never takes this lock.
	mu       sync.Mutex
	manifest *index.Manifest
}

// New loads the snapshot in cfg.SnapshotDir and returns a ready Server.
// tel may be nil (no telemetry).
func New(cfg Config, tel *obs.Telemetry) (*Server, error) {
	if cfg.SnapshotDir == "" {
		return nil, fmt.Errorf("serve: Config.SnapshotDir is required")
	}
	snap, man, err := LoadSnapshot(cfg.SnapshotDir, cfg.Weights)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, manifest: man}
	s.Front = NewFront(FrontConfig{
		DefaultK:        cfg.DefaultK,
		MaxK:            cfg.MaxK,
		MaxInflight:     cfg.MaxInflight,
		AdmissionMin:    cfg.AdmissionMin,
		AdmissionQueue:  cfg.AdmissionQueue,
		AdmissionTarget: cfg.AdmissionTarget,
		QueryTimeout:    cfg.QueryTimeout,
	}, Tier{
		Name:           "server",
		BudgetFloor:    cfg.BudgetFloor,
		Clock:          cfg.Clock,
		Shed:           tel.Counter("query.serve.shed"),
		Deadline:       tel.Counter("query.serve.deadline"),
		BudgetRejected: tel.Counter("query.serve.budget_rejected"),
	}, s.answer, tel)
	s.Handle("/shard/search", s.handleShardSearch)
	s.Handle("/healthz", s.handleHealth)
	s.qs = query.NewServer(snap, query.CacheOptions{
		Shards:   cfg.CacheShards,
		Capacity: cfg.CacheCapacity,
		TTL:      cfg.CacheTTL,
	})
	// Re-publish the swap gauges under this server's telemetry (the
	// initial NewServer swap ran before tel was attached to a context).
	live := s.qs.Live()
	tel.Gauge("query.serve.snapshot.gen").Set(live.Gen)
	tel.Gauge("query.serve.snapshot.docs").Set(int64(live.Docs))
	return s, nil
}

// LoadSnapshot reads a snapshot directory's shard files into a
// ServeSnapshot over the one index index.LoadSnapshot decodes them into,
// whose broker is also its snippet source; the application models are
// never opened. w nil means default weights.
func LoadSnapshot(dir string, w *query.Weights) (*query.ServeSnapshot, *index.Manifest, error) {
	man, shards, err := index.LoadSnapshot(dir)
	if err != nil {
		return nil, nil, err
	}
	weights := query.DefaultWeights
	if w != nil {
		weights = *w
	}
	broker := &query.Broker{Shards: shards, W: weights}
	return &query.ServeSnapshot{Broker: broker, StateText: broker.StateText}, man, nil
}

// Manifest returns the currently serving manifest.
func (s *Server) Manifest() *index.Manifest {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.manifest
}

// QueryServer exposes the underlying hot-swappable query server.
func (s *Server) QueryServer() *query.Server { return s.qs }

// Reload checks the snapshot directory's manifest and, when its ID
// differs from the serving one (or force is set), loads the new shards
// in the background and hot-swaps the live engine. Serving continues
// from the old snapshot for the whole load; the swap itself is one
// atomic pointer store. Returns whether a swap happened.
func (s *Server) Reload(ctx context.Context, force bool) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tel := s.tel
	man, err := index.LoadManifest(s.cfg.SnapshotDir)
	if err != nil {
		tel.Counter("query.serve.reload.errors").Inc()
		return false, err
	}
	if !force && man.ID == s.manifest.ID {
		return false, nil
	}
	snap, man, err := LoadSnapshot(s.cfg.SnapshotDir, s.cfg.Weights)
	if err != nil {
		// A half-written snapshot (new manifest, shard still streaming
		// to disk) stays un-swapped; the next poll retries.
		tel.Counter("query.serve.reload.errors").Inc()
		return false, err
	}
	s.qs.Swap(obs.With(ctx, tel), snap)
	s.manifest = man
	return true, nil
}

// Watch polls the manifest every interval and hot-swaps on ID changes —
// the -watch flag's loop. It returns when ctx ends. Reload errors are
// counted (query.serve.reload.errors) and retried next tick.
func (s *Server) Watch(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			_, _ = s.Reload(ctx, false)
		}
	}
}

// searchResponse is the /search JSON body. Field order (and therefore
// the marshaled bytes) is fixed; serving metadata that varies run-to-run
// (generation, cache state, fan-out completeness) travels in headers
// instead.
type searchResponse struct {
	Query   string                    `json:"query"`
	K       int                       `json:"k"`
	Count   int                       `json:"count"`
	Results []query.ResultWithSnippet `json:"results"`
}

// WriteSearch writes the 200 /search body for q's top-k results. The
// front answers both tiers with it, which is what makes a routed body
// byte-identical to a single-snapshot one. Headers must be set before
// the call.
func WriteSearch(w http.ResponseWriter, q string, k int, results []query.ResultWithSnippet) {
	if results == nil {
		results = []query.ResultWithSnippet{} // "results":[], never null
	}
	WriteJSON(w, http.StatusOK, searchResponse{
		Query:   query.QueryString(query.Parse(q)),
		K:       k,
		Count:   len(results),
		Results: results,
	})
}

// writeError writes the JSON error body every tier answers failures
// with.
func writeError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, struct {
		Error string `json:"error"`
	}{msg})
}

// maxPooledBuffer bounds the buffers the body pool keeps: one that an
// outsized body grew past it is left to the garbage collector.
const maxPooledBuffer = 64 << 10

// bodyPool holds the body buffers of every serving hop.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// GetBuffer takes an empty buffer from the serving hops' body pool.
func GetBuffer() *bytes.Buffer { return bodyPool.Get().(*bytes.Buffer) }

// PutBuffer returns b to the pool unless it outgrew maxPooledBuffer.
// Neither b nor any slice of its bytes may be used after.
func PutBuffer(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBuffer {
		b.Reset()
		bodyPool.Put(b)
	}
}

// WriteJSON encodes v as the response body under status through a
// pooled buffer, written once the encode succeeded: the bytes of
// json.Marshal(v) and a newline. A value that does not encode (a NaN
// score) is answered with the JSON error body and 500.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	buf := GetBuffer()
	defer PutBuffer(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf.Bytes())
}

// answer is ajaxserve's Searcher: the live snapshot through the result
// cache and the brownout ladder.
func (s *Server) answer(ctx context.Context, q string, k int, _ time.Time, tok *admission.Token, h http.Header) (Answer, error) {
	results, snap, cached, servedK, degraded := s.search(ctx, q, k, tok)
	if cached {
		h.Set(HeaderCache, "hit")
	} else {
		h.Set(HeaderCache, "miss")
	}
	if degraded != "" {
		h.Set(HeaderDegraded, degraded)
	}
	return Answer{Results: results, K: servedK, Gen: snap.Gen, Docs: snap.Docs, States: snap.States}, nil
}

// search runs one query through the brownout ladder. Under queue
// pressure (this request waited, or a queue has formed behind the
// limit) the server degrades before it sheds: first it prefers a
// full-quality cached answer (free, lossless), then drops snippet
// extraction — about three quarters of a cold evaluation, see
// query.SearchOptions — and at half-full queue also halves k. The degradation is advertised so
// callers can tell which answers are comparable; non-degraded bodies
// stay byte-identical to an unloaded server's.
func (s *Server) search(ctx context.Context, q string, k int, tok *admission.Token) (results []query.ResultWithSnippet, snap *query.ServeSnapshot, cached bool, servedK int, degraded string) {
	pressured := s.limiter != nil && !s.cfg.NoBrownout && s.limiter.QueueLimit() > 0 &&
		tok != nil && (tok.Waited || tok.QueueDepth > 0)
	if !pressured {
		results, snap, cached = s.qs.Search(ctx, q, k)
		return results, snap, cached, k, ""
	}
	if res, sn, ok := s.qs.Cached(q, k); ok {
		return res, sn, true, k, ""
	}
	degraded = "snippets"
	if tok.QueueDepth*2 >= s.limiter.QueueLimit() && k > 1 {
		k = (k + 1) / 2
		degraded = "snippets,k"
	}
	s.tel.Counter("query.serve.brownout").Inc()
	results, snap, cached = s.qs.SearchOpts(ctx, q, k, query.SearchOptions{NoSnippets: true})
	return results, snap, cached, k, degraded
}

// handleShardSearch answers the shard half of a distributed query
// (internal/router's fan-out protocol): pre-idf candidates plus the
// local df vector and state count, so a router can apply the global idf
// correction of eq. 6.1 across shard servers. A router that already
// knows the global statistics sends them as k, n and df, and gets back
// only the k candidates that can still reach the global top-k
// (query.Hint). The same load-shedding gate and per-query deadline as
// /search apply — a router hedging into a saturated replica should see
// 429 quickly, not queue behind it.
func (s *Server) handleShardSearch(w http.ResponseWriter, r *http.Request) {
	req, ok := s.begin(w, r, false)
	if !ok {
		return
	}
	defer req.cancel()
	hint, err := parseHint(req.vals, req.q)
	if err != nil {
		req.tok.Cancel()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	defer req.tok.Release()

	res := s.qs.ShardSearchTop(req.ctx, req.q, hint)
	w.Header().Set(HeaderGeneration, strconv.FormatInt(res.Gen, 10))
	w.Header().Set(HeaderDocs, strconv.Itoa(res.Docs))
	w.Header().Set(HeaderStates, strconv.Itoa(res.States))
	WriteJSON(w, http.StatusOK, res)
}

// parseHint reads the router's global statistics off a /shard/search
// query string: k (the cut bound — the router's k, deliberately not
// clamped to this server's MaxK, which would break the cut's
// exactness), n (global state count) and df (comma-separated global
// document frequencies, one per term of q). With neither n nor df there
// is no hint and k is ignored, as it always was. These are bytes from
// the network, so a malformed hint is an error (400) — but a well-formed
// one that merely disagrees with this shard's own statistics is not:
// that is a stale hint, and the 200 carrying the actual statistics is
// how the router finds out.
func parseHint(v url.Values, q string) (query.Hint, error) {
	if !v.Has("n") && !v.Has("df") {
		return query.Hint{}, nil
	}
	count := func(name, s string) (int, error) {
		n, err := strconv.ParseInt(s, 10, 32)
		if err != nil || n < 0 {
			return 0, fmt.Errorf("%s must be a non-negative 32-bit integer", name)
		}
		return int(n), nil
	}
	k, err := count("k", v.Get("k"))
	if err != nil || k == 0 {
		return query.Hint{}, errors.New("a hint needs a positive integer k")
	}
	n, err := count("n", v.Get("n"))
	if err != nil {
		return query.Hint{}, err
	}
	hint := query.Hint{K: k, N: n, DF: []int{}}
	if s := v.Get("df"); s != "" {
		for _, f := range strings.Split(s, ",") {
			df, err := count("df", f)
			if err != nil {
				return query.Hint{}, err
			}
			hint.DF = append(hint.DF, df)
		}
	}
	if terms := len(query.Parse(q)); len(hint.DF) != terms {
		return query.Hint{}, fmt.Errorf("df has %d entries, query has %d terms", len(hint.DF), terms)
	}
	if n == 0 && len(hint.DF) > 0 {
		return query.Hint{}, errors.New("n must be positive when df is given")
	}
	return hint, nil
}

// healthResponse is the /healthz JSON body.
type healthResponse struct {
	Status     string `json:"status"`
	ManifestID string `json:"manifest_id"`
	Generation int64  `json:"generation"`
	Docs       int    `json:"docs"`
	States     int    `json:"states"`
	Shards     int    `json:"shards"`
	CacheLen   int    `json:"cache_len"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	snap, man := s.qs.Live(), s.Manifest()
	WriteJSON(w, http.StatusOK, healthResponse{
		Status:     "ok",
		ManifestID: man.ID,
		Generation: snap.Gen,
		Docs:       snap.Docs,
		States:     snap.States,
		Shards:     len(man.Shards),
		CacheLen:   s.qs.Cache().Len(),
	})
}
