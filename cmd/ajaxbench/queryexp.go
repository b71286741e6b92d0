package main

import (
	"fmt"
	"runtime"
	"time"

	"ajaxcrawl/internal/core"
	"ajaxcrawl/internal/index"
	"ajaxcrawl/internal/model"
	"ajaxcrawl/internal/query"
	"ajaxcrawl/internal/webapp"
)

// queryCorpus crawls the corpus once (AJAX + hot node) and returns the
// graphs; the query experiments build their indexes from it.
func queryCorpus(e *env) ([]*model.Graph, error) {
	// The thesis's query experiments use the first 2500 of 10000 videos;
	// scale: use all configured videos.
	_, graphs, err := e.crawl(e.videos, core.Options{UseHotNode: true})
	return graphs, err
}

// expT74 reproduces Table 7.4: for the most popular queries, occurrences
// on the first comment page and across all pages.
func expT74(e *env) error {
	queries := webapp.Queries()
	fmt.Fprintf(e.out, "%-5s %-16s %-22s %-20s\n", "ID", "Query", "Occurrences 1st page", "Occurrences all pages")
	for i, q := range queries[:11] {
		first, all := e.site.QueryOccurrences(q, e.videos)
		fmt.Fprintf(e.out, "Q%-4d %-16s %-22d %-20d\n", i+1, q, first, all)
	}
	fmt.Fprintln(e.out, "(shape: all-pages occurrences several times the first-page count)")
	return nil
}

// buildIndexes builds the traditional (1-state) and AJAX (all states)
// indexes over crawled graphs.
func buildIndexes(graphs []*model.Graph) (trad, ajax *index.Index) {
	trad = index.Build(graphs, nil, 1)
	ajax = index.Build(graphs, nil, 0)
	return trad, ajax
}

// timeQueries runs each query `reps` times on the engine and returns
// per-query mean times and result counts.
func timeQueries(eng *query.Broker, queries []string, reps int) (times []time.Duration, counts []int) {
	times = make([]time.Duration, len(queries))
	counts = make([]int, len(queries))
	for i, q := range queries {
		// Warm up once (also records the count).
		counts[i] = len(eng.Search(q))
		start := time.Now()
		for r := 0; r < reps; r++ {
			eng.Search(q)
		}
		times[i] = time.Since(start) / time.Duration(reps)
	}
	return times, counts
}

// expT75 reproduces Table 7.5: per-query processing times on the
// traditional and the AJAX index.
func expT75(e *env) error {
	graphs, err := queryCorpus(e)
	if err != nil {
		return err
	}
	tradIx, ajaxIx := buildIndexes(graphs)
	queries := webapp.Queries()[:11]
	const reps = 50
	tradT, tradC := timeQueries(query.NewBroker([]*index.Index{tradIx}), queries, reps)
	ajaxT, ajaxC := timeQueries(query.NewBroker([]*index.Index{ajaxIx}), queries, reps)

	fmt.Fprintf(e.out, "%-5s %-16s %14s %14s %8s %8s\n", "ID", "Query", "Trad (µs)", "AJAX (µs)", "Trad#", "AJAX#")
	for i, q := range queries {
		fmt.Fprintf(e.out, "Q%-4d %-16s %14.2f %14.2f %8d %8d\n", i+1, q,
			float64(tradT[i].Nanoseconds())/1e3, float64(ajaxT[i].Nanoseconds())/1e3,
			tradC[i], ajaxC[i])
	}
	fmt.Fprintln(e.out, "(shape: AJAX index slower in absolute query time, far more results)")
	return nil
}

// expF79 reproduces Figure 7.9: result throughput (results per second)
// for the popular queries on the traditional vs the AJAX index.
func expF79(e *env) error {
	graphs, err := queryCorpus(e)
	if err != nil {
		return err
	}
	tradIx, ajaxIx := buildIndexes(graphs)
	queries := webapp.Queries()[:11]
	const reps = 50
	tradT, tradC := timeQueries(query.NewBroker([]*index.Index{tradIx}), queries, reps)
	ajaxT, ajaxC := timeQueries(query.NewBroker([]*index.Index{ajaxIx}), queries, reps)

	fmt.Fprintf(e.out, "%-5s %-16s %16s %16s %8s %8s\n", "ID", "Query", "Trad (q/s)", "AJAX (q/s)", "Trad#", "AJAX#")
	for i, q := range queries {
		thr := func(t time.Duration) float64 {
			if t <= 0 {
				return 0
			}
			return 1 / t.Seconds()
		}
		fmt.Fprintf(e.out, "Q%-4d %-16s %16.0f %16.0f %8d %8d\n", i+1, q,
			thr(tradT[i]), thr(ajaxT[i]), tradC[i], ajaxC[i])
	}
	fmt.Fprintln(e.out, "(shape: traditional query throughput higher, although for far fewer results)")
	return nil
}

// statesSeries builds indexes limited to 1..11 states and evaluates the
// full 100-query workload on each, returning per-limit total results and
// total query time.
func statesSeries(e *env) (limits []int, results []int, times []time.Duration, err error) {
	graphs, err := queryCorpus(e)
	if err != nil {
		return nil, nil, nil, err
	}
	queries := webapp.Queries()
	const reps = 30
	for k := 1; k <= 11; k++ {
		ix := index.Build(graphs, nil, k)
		eng := query.NewBroker([]*index.Index{ix})
		total := 0
		for _, q := range queries {
			total += len(eng.Search(q))
		}
		// GC between limits and best-of-5 batches keep allocation noise
		// out of the timings.
		runtime.GC()
		best := time.Duration(1 << 62)
		for b := 0; b < 5; b++ {
			start := time.Now()
			for r := 0; r < reps; r++ {
				for _, q := range queries {
					eng.Search(q)
				}
			}
			if d := time.Since(start) / reps; d < best {
				best = d
			}
		}
		limits = append(limits, k)
		results = append(results, total)
		times = append(times, best)
	}
	return limits, results, times, nil
}

// expF710 reproduces Figure 7.10: the relative query throughput of the
// AJAX index vs the traditional one as the number of crawled (indexed)
// states grows — the crawl-threshold tuning curve. Throughput is queries
// per second (Figure 7.9's metric); indexing more states makes each query
// slower, so the relative throughput decays from 1.
func expF710(e *env) error {
	limits, results, times, err := statesSeries(e)
	if err != nil {
		return err
	}
	base := times[0]
	fmt.Fprintf(e.out, "%-8s %-10s %-16s %-18s\n", "states", "results", "time/100q (ms)", "rel. throughput")
	threshold := -1
	for i, k := range limits {
		rel := float64(base) / float64(times[i])
		fmt.Fprintf(e.out, "%-8d %-10d %-16.2f %-18.3f\n", k, results[i], ms(times[i]), rel)
		if threshold < 0 && rel < 0.4 {
			threshold = k
		}
	}
	if threshold > 0 {
		fmt.Fprintf(e.out, "relative throughput crosses 0.4 at %d states (paper: ~5)\n", threshold)
	}
	fmt.Fprintln(e.out, "(shape: relative throughput decreases with states)")
	return nil
}

// expF711 reproduces Figure 7.11: 1 − RelRecall between the traditional
// index and indexes with k states, averaged over the 100-query workload.
func expF711(e *env) error {
	graphs, err := queryCorpus(e)
	if err != nil {
		return err
	}
	queries := webapp.Queries()
	// Result counts per query per limit.
	counts := make([][]int, 12) // counts[k][qi], k in 1..11
	for k := 1; k <= 11; k++ {
		eng := query.NewBroker([]*index.Index{index.Build(graphs, nil, k)})
		counts[k] = make([]int, len(queries))
		for qi, q := range queries {
			counts[k][qi] = len(eng.Search(q))
		}
	}
	fmt.Fprintf(e.out, "%-8s %-14s\n", "states", "1-RelRecall")
	prev := 0.0
	for k := 1; k <= 11; k++ {
		sum, n := 0.0, 0
		for qi := range queries {
			if counts[k][qi] == 0 {
				continue
			}
			sum += float64(counts[1][qi]) / float64(counts[k][qi])
			n++
		}
		if n == 0 {
			continue
		}
		oneMinus := 1 - sum/float64(n)
		fmt.Fprintf(e.out, "%-8d %-14.3f\n", k, oneMinus)
		if k > 1 && oneMinus+1e-9 < prev {
			fmt.Fprintf(e.out, "  (warning: non-monotone at %d states)\n", k)
		}
		prev = oneMinus
	}
	fmt.Fprintln(e.out, "(shape: increases with states with diminishing gradient; paper ~0.7 near 4-5 states)")
	return nil
}
