package main

import (
	"encoding/json"
	"io"
	"time"
)

// workloadDef names a workload, says why it exists, and builds it.
type workloadDef struct {
	Name string
	Why  string
	// New builds the workload for a seed, writing only under outDir.
	// toy shrinks it to smoke-test size through the same code path.
	New func(seed int64, outDir string, toy bool) workload
}

// runSeconds is the measuring window the driver passes as --seconds.
const runSeconds = 16

// Workload sizes. The whole suite must fit the driver's budget (92 runs
// and two builds in 3420 s on 2 cores), which buys ≈ 35 s per run. A run
// takes 20–28 s, the more the slower a neighbour makes the host: three
// set-ups of 1.5–4 s and a runSeconds window of 6–15 rounds of 1.0–2.6 s
// of fixed work. The issue's 300/200/400 videos and 30–40 s windows do
// not fit. Toy sizes are for smoke_test.go.
var (
	crawlCPU = crawlSpec{Site: siteSpec{Videos: 200, Noisy: true}, Lines: 1, NearDup: 0.9}
	crawlNet = crawlSpec{Site: siteSpec{Videos: 100}, Lines: 2, NearDup: 0,
		BaseLat: 5 * time.Millisecond, PerKBLat: 250 * time.Microsecond}
	serveSingle = serveSpec{Site: siteSpec{Videos: 200}, Queries: streamQueries}
	serveFanout = serveSpec{Site: siteSpec{Videos: 200}, Shards: 2, Replicas: 2, Queries: 200}
)

const toyVideos, toyQueries = 12, 120

func crawlDef(name, why string, spec crawlSpec) workloadDef {
	return workloadDef{Name: name, Why: why,
		New: func(seed int64, outDir string, toy bool) workload {
			s := spec
			if toy {
				s.Site.Videos = toyVideos
				s.BaseLat, s.PerKBLat = s.BaseLat/5, s.PerKBLat/5
			}
			return &crawlWorkload{spec: s, seed: seed, outDir: outDir}
		}}
}

func serveDef(name, why string, spec serveSpec) workloadDef {
	return workloadDef{Name: name, Why: why,
		New: func(seed int64, outDir string, toy bool) workload {
			s := spec
			if toy {
				s.Site.Videos, s.Queries = toyVideos, toyQueries
			}
			return &serveWorkload{spec: s, seed: seed, outDir: outDir}
		}}
}

// workloads is the catalogue; BENCHMARK.json lists the same names and
// reasons (TestBenchmarkJSONMatchesCatalogue keeps them in step).
var workloads = []workloadDef{
	crawlDef("crawl_cpu",
		"zero-latency 1-line crawl of a noisy site with LSH near-dup admission: html, js, browser rollback, dom hash, shingle+lsh, index and snapshot do all the work, the network none",
		crawlCPU),
	crawlDef("crawl_net",
		"the paper's regime: 2 lines, exact dedup, 5 ms + 0.25 ms/KiB real sleep per fetch; fetch, hot-node cache and line count set throughput, shingle/lsh bypassed, CPU savings show only in cpu_ms_per_op",
		crawlNet),
	serveDef("serve_single",
		"one ajaxserve on loopback, 1 closed-loop client, zipf stream larger than the result cache: the single-snapshot path (top-k broker, snippets, result cache, JSON) that fan-out never touches",
		serveSingle),
	serveDef("serve_fanout",
		"ajaxrouter over 2 shards x 2 replicas on loopback, same corpus: uncached ShardSearch per shard, shard-response encode/decode and the eq. 6.1 merge, bypassed by serve_single; answers byte-identical",
		serveFanout),
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef is one catalogued metric.
type metricDef struct {
	Name, Unit, Better string
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by; 0 for layer metrics, which are not gated.
	Bound float64
}

// endToEnd is the gated set: the same six metrics on every workload.
// The issue listed ten; its rule is that a wall metric that cannot hold
// 10 % between sets of runs of identical code is demoted to the layer
// list, and ops_per_s, p50_ms, p90_ms and cpu_ms_per_op could not on the
// shared 2-core host (README.md has the A/A table), so they head
// perLayer. setup_s stays because the driver requires it, at the
// driver's ceiling. The five counts repeat exactly for a fixed seed; the
// driver gates across seeds, so each bound is three times the widest
// cross-seed spread (quartile distance ÷ median over ten seeds) any
// workload showed in the A/A sets, rounded up.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"alloc_kb_per_op", "KiB", "lower", 0.17},
	{"mallocs_per_op", "count", "lower", 0.16},
	{"net_calls_per_op", "count", "lower", 0.02},
	{"wire_kb_per_op", "KiB", "lower", 0.15},
	{"live_heap_mb", "MiB", "lower", 0.07},
}

// perLayer is the ungated ledger a traced run reports: every name on
// every workload, 0 where the workload does not exercise the layer
// (README.md has the "should move / exercised on / flat on" table).
var perLayer = []metricDef{
	// the timed metrics of the untraced rounds, demoted from endToEnd.
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "p50_ms", Unit: "ms", Better: "lower"},
	{Name: "p90_ms", Unit: "ms", Better: "lower"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower"},
	// fetch and the crawler's own counters (public core.Metrics).
	{Name: "fetch.calls_per_page", Unit: "count", Better: "lower"},
	{Name: "fetch.kb_per_page", Unit: "KiB", Better: "lower"},
	{Name: "fetch.wait_us_per_call", Unit: "us", Better: "lower"},
	{Name: "core.hotnode_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.events_per_page", Unit: "count", Better: "lower"},
	{Name: "core.states_per_page", Unit: "count", Better: "higher"},
	{Name: "core.neardup_merges_per_page", Unit: "count", Better: "higher"},
	{Name: "core.neardup_candidates_per_page", Unit: "count", Better: "lower"},
	{Name: "core.line_busy_share", Unit: "share", Better: "higher"},
	{Name: "core.precrawl_ms", Unit: "ms", Better: "lower"},
	{Name: "pagerank.compute_ms", Unit: "ms", Better: "lower"},
	// parsing and script execution.
	{Name: "html.parse_us_per_page", Unit: "us", Better: "lower"},
	{Name: "html.fragment_us_per_call", Unit: "us", Better: "lower"},
	{Name: "js.parse_us_per_page", Unit: "us", Better: "lower"},
	{Name: "js.run_us_per_page", Unit: "us", Better: "lower"},
	{Name: "browser.load_us_per_page", Unit: "us", Better: "lower"},
	{Name: "browser.trigger_self_us_per_event", Unit: "us", Better: "lower"},
	// snapshot / rollback / state identity.
	{Name: "browser.snapshot_us_per_call", Unit: "us", Better: "lower"},
	{Name: "browser.restore_us_per_call", Unit: "us", Better: "lower"},
	{Name: "dom.clone_us_per_call", Unit: "us", Better: "lower"},
	{Name: "dom.hash_us_per_state", Unit: "us", Better: "lower"},
	{Name: "dom.text_us_per_state", Unit: "us", Better: "lower"},
	// near-duplicate admission.
	{Name: "shingle.sketch_us_per_state", Unit: "us", Better: "lower"},
	{Name: "lsh.add_us_per_state", Unit: "us", Better: "lower"},
	{Name: "lsh.probe_us_per_state", Unit: "us", Better: "lower"},
	{Name: "lsh.candidates_per_probe", Unit: "count", Better: "lower"},
	// index build and snapshot.
	{Name: "index.add_graph_us_per_page", Unit: "us", Better: "lower"},
	{Name: "index.postings_per_state", Unit: "count", Better: "lower"},
	{Name: "index.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "index.snapshot_save_ms", Unit: "ms", Better: "lower"},
	{Name: "index.bytes_per_state", Unit: "B", Better: "lower"},
	{Name: "model.encode_us_per_graph", Unit: "us", Better: "lower"},
	{Name: "index.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "index.snapshot_load_ms", Unit: "ms", Better: "lower"},
	// crawl ledger residual.
	{Name: "core.crawl_page_us", Unit: "us", Better: "lower"},
	{Name: "core.unattributed_share", Unit: "share", Better: "lower"},
	{Name: "core.page_p99_ms", Unit: "ms", Better: "lower"},
	// single-snapshot query path.
	{Name: "query.parse_us_per_query", Unit: "us", Better: "lower"},
	{Name: "query.topk_us_per_query", Unit: "us", Better: "lower"},
	{Name: "query.snippet_us_per_query", Unit: "us", Better: "lower"},
	{Name: "query.results_per_query", Unit: "count", Better: "higher"},
	{Name: "query.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "query.cache_get_ns", Unit: "ns", Better: "lower"},
	{Name: "query.cache_put_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.search_handler_us_per_request", Unit: "us", Better: "lower"},
	{Name: "serve.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "admission.acquire_release_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.http_p99_ms", Unit: "ms", Better: "lower"},
	// shard half and fan-out.
	{Name: "query.shard_search_us_per_query", Unit: "us", Better: "lower"},
	{Name: "query.shard_candidates_per_query", Unit: "count", Better: "lower"},
	{Name: "serve.shard_resp_kb_per_query", Unit: "KiB", Better: "lower"},
	{Name: "serve.shard_handler_us_per_request", Unit: "us", Better: "lower"},
	{Name: "router.decode_us_per_response", Unit: "us", Better: "lower"},
	{Name: "router.local_us_per_query", Unit: "us", Better: "lower"},
	{Name: "router.http_us_per_query", Unit: "us", Better: "lower"},
	{Name: "router.front_us_per_query", Unit: "us", Better: "lower"},
	{Name: "router.hedges_per_query", Unit: "count", Better: "lower"},
	{Name: "router.shards_ok_ratio", Unit: "ratio", Better: "higher"},
	{Name: "router.http_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "router.unattributed_share", Unit: "share", Better: "lower"},
	// diagnostics.
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
	{Name: "host.calibration_drift", Unit: "share", Better: "lower"},
}

// printContract writes BENCHMARK.json: the catalogue above in the
// driver's schema. The checked-in file is this output
// (TestBenchmarkJSONMatchesCatalogue).
func printContract(w io.Writer) error {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metricJSON struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []metricJSON   `json:"end_to_end"`
		PerLayer   []metricJSON   `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, def := range workloads {
		doc.Workloads = append(doc.Workloads, workloadJSON{def.Name, def.Why})
	}
	for _, m := range endToEnd {
		bound := m.Bound
		doc.EndToEnd = append(doc.EndToEnd, metricJSON{m.Name, m.Unit, m.Better, &bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, metricJSON{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(doc)
}
