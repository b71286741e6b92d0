package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ajaxcrawl/internal/index"
	"ajaxcrawl/internal/model"
	"ajaxcrawl/internal/obs"
	"ajaxcrawl/internal/router"
	"ajaxcrawl/internal/serve"
)

// serveSpec is one serving workload's configuration.
type serveSpec struct {
	Site siteSpec
	// Shards and Replicas shape the fleet; Shards 0 is the single
	// snapshot server with no router in front.
	Shards, Replicas int
	// Queries is the round's length: that many queries of the seed's
	// stream (see roundQueries), replayed every round.
	Queries int
}

// streamQueries is the length of a seed's query stream. Both serving
// workloads are cut from this one stream.
const streamQueries = 4000

// roundQueries cuts a workload's round from the seed's stream: all of
// it, or n queries of it in stream order. A routed query costs twenty
// times a single-snapshot one, so a fan-out round of ≈ 1.5 s holds a
// twentieth of the queries — and query cost is heavy-tailed (a common
// word matches every state, most pairs a handful; shard responses carry
// every match), so a plain sample of 200 moved alloc_kb_per_op and
// wire_kb_per_op by 9 % between seeds (quartile distance ÷ median), which
// the driver's cross-seed gate does not pass. The n queries are
// therefore taken evenly spaced along the stream's order by match count,
// which matches reports from the program's own unbounded search. Equal
// queries sort together, so a query drawn m times is kept ≈ m·n/len
// times and the popularity structure survives.
func roundQueries(stream []string, n int, matches func(q string) int) []string {
	if n >= len(stream) {
		return stream
	}
	cost := make(map[string]int)
	for _, q := range stream {
		if _, ok := cost[q]; !ok {
			cost[q] = matches(q)
		}
	}
	order := make([]int, len(stream))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		qa, qb := stream[order[a]], stream[order[b]]
		if cost[qa] != cost[qb] {
			return cost[qa] < cost[qb]
		}
		if qa != qb {
			return qa < qb
		}
		return order[a] < order[b]
	})
	keep := make([]bool, len(stream))
	for j := 0; j < n; j++ {
		keep[order[(2*j+1)*len(stream)/(2*n)]] = true
	}
	out := make([]string, 0, n)
	for i, q := range stream {
		if keep[i] {
			out = append(out, q)
		}
	}
	return out
}

const searchK = 10

// Daemon flag defaults (cmd/ajaxserve, cmd/ajaxrouter): the fleet the
// benchmark starts is the fleet an operator gets from the binaries with
// no flags.
func defaultServeConfig(dir string) serve.Config {
	return serve.Config{
		SnapshotDir:   dir,
		DefaultK:      10,
		MaxK:          100,
		CacheShards:   8,
		CacheCapacity: 1024,
		MaxInflight:   64,
		AdmissionMin:  1,
		QueryTimeout:  2 * time.Second,
	}
}

func defaultRouterConfig(topo [][]router.Backend) router.Config {
	return router.Config{
		Shards:       topo,
		ShardTimeout: 1500 * time.Millisecond,
		Partial:      true,
	}
}

func defaultRouterServerConfig() router.ServerConfig {
	return router.ServerConfig{
		DefaultK:     10,
		MaxK:         100,
		MaxInflight:  64,
		AdmissionMin: 1,
		QueryTimeout: 2 * time.Second,
	}
}

// daemonTelemetry is what the daemons run with: a live registry and the
// ring sink behind /debug/trace/recent — so the serving path pays for
// its spans and counters exactly as in production.
func daemonTelemetry() *obs.Telemetry {
	return obs.New(obs.NewRegistry(), obs.NewRingSink(0))
}

// listener is one HTTP server on a loopback port.
type listener struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

// listen serves h on 127.0.0.1:0, counting every request and its
// response-body bytes into wire.
func listen(h http.Handler, wire *wireCounter) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{
		srv:  &http.Server{Handler: countRequests(h, wire)},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return l, nil
}

// close stops the server and waits for its accept loop to exit.
func (l *listener) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		_ = l.srv.Close()
	}
	<-l.done
}

func countRequests(h http.Handler, wire *wireCounter) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		wire.calls.Add(1)
		h.ServeHTTP(&countingWriter{ResponseWriter: w, wire: wire}, r)
	})
}

type countingWriter struct {
	http.ResponseWriter
	wire *wireCounter
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.wire.bytes.Add(int64(n))
	return n, err
}

// corpus is a crawled site published for serving: the whole corpus as
// one snapshot and, for fan-out, the same graphs split round-robin into
// per-shard snapshots.
type corpus struct {
	graphs    []*model.Graph
	pageRank  map[string]float64
	singleDir string
	shardDirs []string
}

// buildCorpus crawls the seed's site through the public pipeline and
// publishes it under dir.
func buildCorpus(ctx context.Context, spec serveSpec, seed int64, dir string) (*corpus, error) {
	site := newBenchSite(spec.Site, seed)
	cs := crawlSpec{Site: spec.Site, Lines: 2}
	var unused wireCounter
	c := &corpus{singleDir: filepath.Join(dir, "single")}
	out, err := runPipeline(ctx, cs, site, siteFetcher(cs, site, &unused), filepath.Join(dir, "work"), c.singleDir, nil)
	if err != nil {
		return nil, err
	}
	c.graphs = crawledGraphs(out.eng)
	c.pageRank = out.eng.PageRank
	parts := make([][]*model.Graph, spec.Shards)
	for i, g := range c.graphs {
		if spec.Shards > 0 {
			parts[i%spec.Shards] = append(parts[i%spec.Shards], g)
		}
	}
	for i, part := range parts {
		sd := filepath.Join(dir, fmt.Sprintf("shard-%d", i))
		if err := os.RemoveAll(sd); err != nil {
			return nil, err
		}
		ix := index.Build(part, c.pageRank, 0)
		if _, err := index.SaveSnapshot(sd, []*index.Index{ix}, part); err != nil {
			return nil, fmt.Errorf("publish shard %d: %w", i, err)
		}
		c.shardDirs = append(c.shardDirs, sd)
	}
	return c, nil
}

// stateTexts returns every indexed state's text, in crawl order.
func (c *corpus) stateTexts() []string {
	var texts []string
	for _, g := range c.graphs {
		for _, s := range g.States {
			texts = append(texts, s.Text)
		}
	}
	return texts
}

// fleet is a running serving topology on loopback listeners.
type fleet struct {
	front     *listener
	listeners []*listener
	servers   []*serve.Server // the ajaxserve instances, shard-major
	rt        *router.Router
	wire      wireCounter
}

// startFleet starts the workload's topology from a published corpus.
func startFleet(spec serveSpec, c *corpus) (*fleet, error) {
	f := &fleet{}
	fail := func(err error) (*fleet, error) {
		f.close()
		return nil, err
	}
	if spec.Shards == 0 {
		s, err := serve.New(defaultServeConfig(c.singleDir), daemonTelemetry())
		if err != nil {
			return fail(err)
		}
		l, err := listen(s.Handler(), &f.wire)
		if err != nil {
			return fail(err)
		}
		f.servers, f.listeners, f.front = []*serve.Server{s}, []*listener{l}, l
		return f, nil
	}
	topo := make([][]router.Backend, spec.Shards)
	for i, dir := range c.shardDirs {
		for r := 0; r < spec.Replicas; r++ {
			s, err := serve.New(defaultServeConfig(dir), daemonTelemetry())
			if err != nil {
				return fail(err)
			}
			l, err := listen(s.Handler(), &f.wire)
			if err != nil {
				return fail(err)
			}
			f.servers = append(f.servers, s)
			f.listeners = append(f.listeners, l)
			topo[i] = append(topo[i], &router.HTTPBackend{BaseURL: l.url})
		}
	}
	rt, err := router.New(defaultRouterConfig(topo))
	if err != nil {
		return fail(err)
	}
	f.rt = rt
	rs := router.NewServer(rt, defaultRouterServerConfig(), daemonTelemetry())
	front, err := listen(rs.Handler(), &f.wire)
	if err != nil {
		return fail(err)
	}
	f.listeners = append(f.listeners, front)
	f.front = front
	return f, nil
}

func (f *fleet) close() {
	for _, l := range f.listeners {
		l.close()
	}
	// HTTPBackend uses http.DefaultClient, as cmd/ajaxrouter does.
	http.DefaultClient.CloseIdleConnections()
}

// searchPath is the request every serve op sends.
func searchPath(q string) string {
	return fmt.Sprintf("/search?q=%s&k=%d", url.QueryEscape(q), searchK)
}

// referenceServer is a single-snapshot serve.Server over the whole
// corpus whose cache holds one entry, so it answers every query it is
// asked once by searching.
func referenceServer(c *corpus) (*serve.Server, error) {
	cfg := defaultServeConfig(c.singleDir)
	cfg.CacheShards, cfg.CacheCapacity = 1, 1
	return serve.New(cfg, nil)
}

// referenceBodies answers every distinct query of the round on the
// reference server, through its handler with no socket. These bytes are
// what every measured response must equal.
func referenceBodies(ref *serve.Server, stream []string) (map[string][]byte, error) {
	h := ref.Handler()
	want := make(map[string][]byte)
	for _, q := range stream {
		if _, ok := want[q]; ok {
			continue
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, searchPath(q), nil))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("reference %q: status %d: %s", q, rec.Code, rec.Body.Bytes())
		}
		want[q] = rec.Body.Bytes()
	}
	return want, nil
}

// serveWorkload is the closed-loop serving harness: exactly one client
// on one keep-alive connection; an op is one /search?k=10 answered 200
// with the reference body.
type serveWorkload struct {
	spec   serveSpec
	seed   int64
	outDir string

	corpus *corpus
	fleet  *fleet
	client *http.Client
	stream []string
	want   map[string][]byte
	buf    bytes.Buffer

	// tr is set only while a traced run measures its traced rounds; the
	// counters below are read off response headers during those rounds.
	tr                            *tracer
	hits, misses                  int
	shardsOK, shardsTotal, hedges int
}

func (w *serveWorkload) setup(ctx context.Context) error {
	var err error
	if w.corpus, err = buildCorpus(ctx, w.spec, w.seed, w.outDir); err != nil {
		return err
	}
	ref, err := referenceServer(w.corpus)
	if err != nil {
		return err
	}
	broker := ref.QueryServer().Live().Broker
	w.stream = roundQueries(queryStream(w.corpus.stateTexts(), streamQueries, w.seed), w.spec.Queries,
		func(q string) int { return len(broker.Search(q)) })
	if len(w.stream) == 0 {
		return errors.New("empty query stream: corpus has no text")
	}
	if w.want, err = referenceBodies(ref, w.stream); err != nil {
		return err
	}
	if w.fleet, err = startFleet(w.spec, w.corpus); err != nil {
		return err
	}
	w.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	if warm := w.round(ctx); warm.failed > 0 {
		return fmt.Errorf("warm-up round: %d of %d ops failed: %w", warm.failed, warm.ops, warm.err)
	}
	return nil
}

// get issues one search and returns status, body (valid until the next
// call) and the client-side request time.
func (w *serveWorkload) get(ctx context.Context, q string, op int) (int, []byte, time.Duration, error) {
	span := w.tr.start("client.request", 0, op)
	defer w.tr.end(span)
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.fleet.front.url+searchPath(q), nil)
	if err != nil {
		return 0, nil, 0, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	w.buf.Reset()
	_, err = io.Copy(&w.buf, resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	if w.tr != nil {
		w.observeHeaders(resp.Header)
	}
	return resp.StatusCode, w.buf.Bytes(), d, err
}

func (w *serveWorkload) round(ctx context.Context) roundResult {
	res := roundResult{lat: make([]time.Duration, 0, len(w.stream))}
	start := time.Now()
	for i, q := range w.stream {
		status, body, d, err := w.get(ctx, q, i+1)
		res.ops++
		res.lat = append(res.lat, d)
		switch {
		case err != nil:
		case status != http.StatusOK:
			err = fmt.Errorf("query %q: status %d", q, status)
		case !bytes.Equal(body, w.want[q]):
			err = fmt.Errorf("query %q: body differs from the reference", q)
		}
		if err != nil {
			res.failed++
			if res.err == nil {
				res.err = err
			}
		}
	}
	res.wall = time.Since(start)
	return res
}

func (w *serveWorkload) wireCounts() (calls, bytes int64) { return w.fleet.wire.snapshot() }

func (w *serveWorkload) teardown() {
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.fleet != nil {
		w.fleet.close()
	}
	w.fleet, w.corpus, w.want, w.stream = nil, nil, nil, nil
	os.RemoveAll(w.outDir)
}
