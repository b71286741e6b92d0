package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"ajaxcrawl"
	"ajaxcrawl/internal/core"
	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/model"
)

// wireCounter counts calls and response-body bytes at a boundary the
// benchmark owns: the Fetcher under the crawler, or the handlers behind
// the fleet's listeners.
type wireCounter struct {
	calls, bytes atomic.Int64
}

func (c *wireCounter) snapshot() (calls, bytes int64) {
	return c.calls.Load(), c.bytes.Load()
}

// countingFetcher is the crawl side of wireCounter: every fetch that
// reaches it — precrawl, page loads, XHRs the hot-node cache did not
// absorb — is one network call.
type countingFetcher struct {
	inner fetch.Fetcher
	wire  *wireCounter
}

func (f *countingFetcher) Fetch(ctx context.Context, rawurl string) (*fetch.Response, error) {
	resp, err := f.inner.Fetch(ctx, rawurl)
	f.wire.calls.Add(1)
	if resp != nil {
		f.wire.bytes.Add(int64(len(resp.Body)))
	}
	return resp, err
}

// crawlSpec is one crawl workload's configuration.
type crawlSpec struct {
	Site     siteSpec
	Lines    int
	NearDup  float64
	BaseLat  time.Duration // simulated round trip (real sleep)
	PerKBLat time.Duration // simulated transfer time per KiB
}

// crawlOutput is what one pipeline run produced.
type crawlOutput struct {
	eng      *ajaxcrawl.Engine
	manifest *ajaxcrawl.Manifest
	wall     time.Duration
}

// runPipeline is one crawl op batch: seed URL → precrawl → crawl →
// index → published snapshot in snapDir, through the public entry
// points only, with a fresh crawler and a fresh work directory.
func runPipeline(ctx context.Context, spec crawlSpec, site *benchSite, f fetch.Fetcher, workDir, snapDir string, tr *tracer) (*crawlOutput, error) {
	if err := os.RemoveAll(workDir); err != nil {
		return nil, err
	}
	if err := os.RemoveAll(snapDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	buildSpan := tr.start("pipeline.build_engine", 0, 0)
	eng, err := ajaxcrawl.BuildEngine(withSpan(ctx, buildSpan), ajaxcrawl.Config{
		Fetcher:      f,
		StartURL:     indexURL,
		MaxPages:     site.pages(),
		ProcLines:    spec.Lines,
		KeepURL:      func(u string) bool { return site.keep[u] },
		WorkDir:      workDir,
		FrontierSeed: 1,
		Crawl: core.Options{
			UseHotNode:       true,
			NearDupThreshold: spec.NearDup,
			OnError:          core.FailFast,
		},
	})
	tr.end(buildSpan)
	if err != nil {
		return nil, fmt.Errorf("build engine: %w", err)
	}
	saveSpan := tr.start("pipeline.save_snapshot", 0, 0)
	man, err := eng.SaveSnapshot(snapDir)
	tr.end(saveSpan)
	if err != nil {
		return nil, fmt.Errorf("save snapshot: %w", err)
	}
	return &crawlOutput{eng: eng, manifest: man, wall: time.Since(start)}, nil
}

// siteFetcher builds a workload's fetcher stack: the in-process site,
// the counting boundary, and (for the network-bound workload) real
// simulated latency on top, so the counter sees exactly what the
// network would.
func siteFetcher(spec crawlSpec, site *benchSite, wire *wireCounter) fetch.Fetcher {
	var f fetch.Fetcher = &countingFetcher{inner: site.fetcher(), wire: wire}
	if spec.BaseLat > 0 || spec.PerKBLat > 0 {
		f = ajaxcrawl.NewLatencyFetcher(f, spec.BaseLat, spec.PerKBLat)
	}
	return f
}

// crawledGraphs returns the engine's application models in crawl
// (PerPage) order.
func crawledGraphs(eng *ajaxcrawl.Engine) []*model.Graph {
	graphs := make([]*model.Graph, 0, len(eng.Metrics.PerPage))
	for _, pm := range eng.Metrics.PerPage {
		if g := eng.Graph(pm.URL); g != nil {
			graphs = append(graphs, g)
		}
	}
	return graphs
}

// modelHash fingerprints a crawl's state model: for every page, in URL
// order, the sorted canonical hashes of its states. Line count, steal
// order and simulated latency must not move it.
func modelHash(graphs []*model.Graph) string {
	sorted := append([]*model.Graph(nil), graphs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].URL < sorted[j].URL })
	h := sha256.New()
	for _, g := range sorted {
		fmt.Fprintf(h, "%s %d\n", g.URL, len(g.States))
		hashes := make([]string, len(g.States))
		for i, s := range g.States {
			hashes[i] = s.Hash.String()
		}
		sort.Strings(hashes)
		for _, s := range hashes {
			fmt.Fprintln(h, s)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// crawlWorkload is the closed-loop crawl harness: every round is one
// whole pipeline run over the same site, and an op is one page crawled,
// indexed and published.
type crawlWorkload struct {
	spec    crawlSpec
	seed    int64
	outDir  string
	site    *benchSite
	wire    wireCounter
	fetcher fetch.Fetcher
	// tr is set only while a traced run measures its traced rounds.
	tr *tracer
	// wantHash is the warm-up round's model hash; every measured round
	// must reproduce it.
	wantHash string
	// last keeps the most recent engine referenced, so live_heap_mb
	// measures the crawl's product, not an empty process.
	last *crawlOutput
}

func (w *crawlWorkload) workDir() string { return filepath.Join(w.outDir, "work") }
func (w *crawlWorkload) snapDir() string { return filepath.Join(w.outDir, "snapshot") }

func (w *crawlWorkload) setup(ctx context.Context) error {
	w.site = newBenchSite(w.spec.Site, w.seed)
	w.fetcher = siteFetcher(w.spec, w.site, &w.wire)
	// The warm-up round is a round like any other, minus the model check
	// it exists to provide the reference for.
	warm, err := runPipeline(ctx, w.spec, w.site, w.fetcher, w.workDir(), w.snapDir(), nil)
	if err != nil {
		return err
	}
	w.wantHash = modelHash(crawledGraphs(warm.eng))
	if w.spec.Lines > 1 || w.spec.BaseLat > 0 {
		// The paper's contract: the model is a function of the site, not
		// of how it was crawled. A 1-line zero-latency crawl is the
		// reference the parallel, wait-bound run must equal.
		ref := w.spec
		ref.Lines, ref.BaseLat, ref.PerKBLat = 1, 0, 0
		var unused wireCounter
		out, err := runPipeline(ctx, ref, w.site, siteFetcher(ref, w.site, &unused), w.workDir(), w.snapDir(), nil)
		if err != nil {
			return fmt.Errorf("reference crawl: %w", err)
		}
		if h := modelHash(crawledGraphs(out.eng)); h != w.wantHash {
			return fmt.Errorf("%d-line model %s differs from 1-line zero-latency model %s", w.spec.Lines, w.wantHash, h)
		}
	}
	w.last = warm
	return nil
}

func (w *crawlWorkload) round(ctx context.Context) roundResult {
	out, err := runPipeline(ctx, w.spec, w.site, w.fetcher, w.workDir(), w.snapDir(), w.tr)
	if err != nil {
		// The pipeline died: every page of the site is a failed op.
		return roundResult{ops: w.site.pages(), failed: w.site.pages(), err: err}
	}
	w.last = out
	m := out.eng.Metrics
	res := roundResult{
		ops:    m.Pages + m.PagesFailed,
		failed: m.PagesFailed,
		wall:   out.wall,
		lat:    make([]time.Duration, 0, len(m.PerPage)),
	}
	for _, pm := range m.PerPage {
		res.lat = append(res.lat, pm.CrawlTime)
	}
	// A model or a snapshot that moved is a wrong answer for every page.
	if h := modelHash(crawledGraphs(out.eng)); h != w.wantHash {
		res.failed, res.err = res.ops, fmt.Errorf("round model %s differs from warm-up model %s", h, w.wantHash)
	} else if out.manifest.TotalDocs != m.Pages {
		res.failed, res.err = res.ops, fmt.Errorf("published %d docs for %d crawled pages", out.manifest.TotalDocs, m.Pages)
	}
	return res
}

func (w *crawlWorkload) wireCounts() (calls, bytes int64) { return w.wire.snapshot() }

func (w *crawlWorkload) teardown() {
	w.last = nil
	os.RemoveAll(w.outDir)
}
