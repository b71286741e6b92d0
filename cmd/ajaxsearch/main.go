// Command ajaxsearch builds, stores, loads and queries AJAX search
// indexes — the CLI replacement for the thesis's AJAXSearchSetupApp GUI
// (§8.3): build a new index from stored application models, save/load it,
// and process queries. An index is stored and loaded as a serving
// snapshot, the layout `ajaxcrawl -out` publishes and `ajaxserve
// -snapshot` serves.
//
// Examples:
//
//	# Rebuild a crawl's index from its models and save it as a snapshot.
//	ajaxsearch -models ./crawl-out -save ./idx
//
//	# Build with a state limit (the GUI's "Max. State ID" knob).
//	ajaxsearch -models ./crawl-out -max-states 1 -save ./trad
//
//	# Query a stored snapshot.
//	ajaxsearch -load ./idx -q "morcheeba singer" -k 10
//
//	# Build and query in one go.
//	ajaxsearch -models ./crawl-out -q "funny dance"
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"

	"ajaxcrawl/internal/core"
	"ajaxcrawl/internal/index"
	"ajaxcrawl/internal/model"
	"ajaxcrawl/internal/obs"
	"ajaxcrawl/internal/query"
)

func main() {
	var (
		models      = flag.String("models", "", "directory holding ajaxmodels.gob: an ajaxcrawl -out root or a published snapshot")
		load        = flag.String("load", "", "load the index of this snapshot directory instead of building one")
		save        = flag.String("save", "", "save the index (and, built from -models, its models) as a snapshot into this directory")
		maxStates   = flag.Int("max-states", 0, "index only the first N states per page (0 = all)")
		q           = flag.String("q", "", "query to process")
		k           = flag.Int("k", 10, "number of results to print")
		stats       = flag.Bool("stats", false, "print index statistics")
		verbose     = flag.Bool("v", false, "live span lines on stderr")
		metricsAddr = flag.String("metrics-addr", "", "serve /debug/metrics, /debug/trace/recent and pprof on this address")
		tracePath   = flag.String("trace", "", "write every span to this JSONL file")
	)
	flag.Parse()

	cli, err := obs.CLITelemetry(obs.CLIConfig{
		MetricsAddr:   *metricsAddr,
		TracePath:     *tracePath,
		Verbose:       *verbose,
		ProgressSpans: obs.CrawlProgressSpans,
	})
	if err != nil {
		fatal("telemetry: %v", err)
	}
	ctx := obs.With(context.Background(), cli.Tel)

	var ix *index.Index
	var graphs []*model.Graph
	switch {
	case *load != "":
		_, ixs, err := index.LoadSnapshot(*load)
		if err != nil {
			fatal("load index: %v", err)
		}
		ix = ixs[0]
		fmt.Printf("loaded index: %d docs, %d states, %d terms\n",
			ix.NumDocs(), ix.TotalStates, ix.NumTerms())
	case *models != "":
		ix, graphs = buildFromModels(ctx, *models, *maxStates)
	default:
		fmt.Fprintln(os.Stderr, "either -models or -load is required")
		flag.Usage()
		os.Exit(2)
	}

	if *save != "" {
		man, err := index.SaveSnapshot(*save, []*index.Index{ix}, graphs)
		if err != nil {
			fatal("save index: %v", err)
		}
		fmt.Printf("index snapshot %s saved to %s\n", man.ID, *save)
	}
	if *stats {
		printStats(ix)
	}
	if *q != "" {
		results := query.NewBroker(ix).SearchTopKCtx(ctx, *q, *k)
		if len(results) == 0 {
			fmt.Printf("no results for %q\n", *q)
		} else {
			fmt.Printf("%d results for %q:\n", len(results), *q)
			for i, r := range results {
				fmt.Printf("%2d. %-55s state=%-3d score=%.4f\n", i+1, r.URL, r.State, r.Score)
			}
		}
	}
	if err := cli.Close(); err != nil {
		fatal("close trace: %v", err)
	}
}

// buildFromModels loads the application models under root and builds
// one index, attaching PageRank values when a precrawl result is
// present — the "Build New Index" tab of the thesis GUI.
func buildFromModels(ctx context.Context, root string, maxStates int) (*index.Index, []*model.Graph) {
	_, sp := obs.StartSpan(ctx, obs.SpanIndexBuild, obs.A("root", root))
	graphs, err := model.LoadAll(root)
	if err != nil {
		fatal("load models: %v", err)
	}
	if len(graphs) == 0 {
		fatal("no application models under %s", root)
	}
	var pageRank map[string]float64
	if pre, err := core.LoadPrecrawl(root); err == nil {
		pageRank = pre.PageRank
		fmt.Printf("using PageRank values for %d pages\n", len(pageRank))
	}
	ix := index.Build(graphs, pageRank, maxStates)
	fmt.Printf("built index over %d pages: %d states, %d terms\n",
		len(graphs), ix.TotalStates, ix.NumTerms())
	sp.SetAttr("postings", strconv.Itoa(ix.NumPostings()))
	sp.End(nil)
	return ix, graphs
}

func printStats(ix *index.Index) {
	fmt.Printf("documents:     %d\n", ix.NumDocs())
	fmt.Printf("states:        %d\n", ix.TotalStates)
	fmt.Printf("terms:         %d\n", ix.NumTerms())
	fmt.Printf("mean states/doc: %.2f\n", float64(ix.TotalStates)/float64(ix.NumDocs()))
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
