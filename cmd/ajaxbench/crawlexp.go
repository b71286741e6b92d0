package main

import (
	"fmt"
	"time"

	"ajaxcrawl/internal/core"
	"ajaxcrawl/internal/fetch"
)

// expT71 reproduces Table 7.1: dataset statistics gathered by a full AJAX
// crawl with the hot-node policy (the configuration the thesis used to
// build YouTube10000).
func expT71(e *env) error {
	m, _, err := e.crawl(e.videos, core.Options{UseHotNode: true})
	if err != nil {
		return err
	}
	fmt.Fprintf(e.out, "%-55s %d\n", "Number of Pages", m.Pages)
	fmt.Fprintf(e.out, "%-55s %d\n", "Total Number of States", m.States)
	fmt.Fprintf(e.out, "%-55s %d\n", "Total Number of Events", m.EventsTriggered)
	fmt.Fprintf(e.out, "%-55s %.3f\n", "Avg. Number of Events per Page",
		float64(m.EventsTriggered)/float64(m.Pages))
	fmt.Fprintf(e.out, "%-55s %d\n", "Number of Events leading to Network Communication", m.NetworkEvents)
	fmt.Fprintf(e.out, "%-55s %.1f%%\n", "Reduction through hot-node policy",
		100*(1-float64(m.NetworkEvents)/float64(m.EventsTriggered)))
	return nil
}

// expF71 reproduces Figure 7.1: the distribution of videos over their
// number of comment pages (= AJAX states).
func expF71(e *env) error {
	st := e.site.DatasetStats(e.videos)
	fmt.Fprintf(e.out, "%-14s %s\n", "comment pages", "videos")
	for pages := 1; pages < len(st.PageHistogram); pages++ {
		fmt.Fprintf(e.out, "%-14d %d\n", pages, st.PageHistogram[pages])
	}
	fmt.Fprintf(e.out, "mean states/video: %.2f (paper: 4.16)\n",
		float64(st.TotalStates)/float64(st.Videos))
	return nil
}

// expF72 reproduces Figure 7.2: number of states and events against the
// number of crawled videos.
func expF72(e *env) error {
	prefixes := e.scaledPrefixes([]int{20, 40, 60, 80, 100, 250, 500}, 500)
	fmt.Fprintf(e.out, "%-8s %-8s %-8s\n", "videos", "states", "events")
	for _, n := range prefixes {
		m, _, err := e.crawl(n, core.Options{UseHotNode: true})
		if err != nil {
			return err
		}
		fmt.Fprintf(e.out, "%-8d %-8d %-8d\n", n, m.States, m.EventsTriggered)
	}
	return nil
}

// expT72 reproduces Table 7.2: total/mean crawl times for traditional and
// AJAX crawling and their ratios. Measured serially on the wall clock
// with scaled-down real latencies (latency/20 per request), so both
// network waits and processing costs (JS execution, model maintenance)
// enter the totals the way they did on the thesis's testbed.
func expT72(e *env) error {
	n := min(e.videos, 150)
	tradT, tradM, err := e.parallelCrawl(n, 1, core.Options{Traditional: true})
	if err != nil {
		return err
	}
	ajaxT, ajaxM, err := e.parallelCrawl(n, 1, core.Options{UseHotNode: true})
	if err != nil {
		return err
	}
	row := func(name string, t, a float64) {
		fmt.Fprintf(e.out, "%-16s %14.2f %14.2f %10.2fx\n", name, t, a, a/t)
	}
	fmt.Fprintf(e.out, "%-16s %14s %14s %10s\n", "", "Trad. (ms)", "AJAX (ms)", "AJAX/Trad")
	row("Total time", ms(tradT), ms(ajaxT))
	row("Mean per page", ms(tradT)/float64(n), ms(ajaxT)/float64(n))
	row("Mean per state", ms(tradT)/float64(tradM.States), ms(ajaxT)/float64(ajaxM.States))
	fmt.Fprintf(e.out, "(paper: x9.43 per page, x2.27 per state)\n")
	return nil
}

// expF73 reproduces Figure 7.3: how many pages fall into each crawl-time
// bucket.
func expF73(e *env) error {
	m, _, err := e.crawl(e.videos, core.Options{UseHotNode: true})
	if err != nil {
		return err
	}
	// Buckets scale with the latency model: bucket width = time of ~2
	// states at configured latency.
	width := e.latBase + 30*e.latPerK
	if width <= 0 {
		width = 100 * time.Millisecond
	}
	buckets := map[int]int{}
	maxB := 0
	for _, pm := range m.PerPage {
		b := int(pm.CrawlTime / width)
		buckets[b]++
		if b > maxB {
			maxB = b
		}
	}
	fmt.Fprintf(e.out, "%-24s %s\n", "crawl time range", "pages")
	for b := 0; b <= maxB; b++ {
		lo := time.Duration(b) * width
		hi := lo + width
		fmt.Fprintf(e.out, "%6.1fs - %-6.1fs %9d\n", lo.Seconds(), hi.Seconds(), buckets[b])
	}
	return nil
}

// expF74 reproduces Figure 7.4: per-video crawl time (and crawl time
// minus network time) against the number of crawled states.
func expF74(e *env) error {
	m, _, err := e.crawl(e.videos, core.Options{UseHotNode: true})
	if err != nil {
		return err
	}
	type acc struct {
		n         int
		total     time.Duration
		nonetwork time.Duration
	}
	byStates := map[int]*acc{}
	maxStates := 0
	for _, pm := range m.PerPage {
		a := byStates[pm.States]
		if a == nil {
			a = &acc{}
			byStates[pm.States] = a
		}
		a.n++
		a.total += pm.CrawlTime
		a.nonetwork += pm.CrawlTime - pm.NetworkTime
		if pm.States > maxStates {
			maxStates = pm.States
		}
	}
	fmt.Fprintf(e.out, "%-8s %-8s %-14s %-18s\n", "states", "videos", "avg time (ms)", "avg w/o net (ms)")
	for s := 1; s <= maxStates; s++ {
		a := byStates[s]
		if a == nil {
			continue
		}
		fmt.Fprintf(e.out, "%-8d %-8d %-14.2f %-18.2f\n", s, a.n,
			ms(a.total)/float64(a.n), ms(a.nonetwork)/float64(a.n))
	}
	fmt.Fprintln(e.out, "(shape: linear growth with states; network dominates)")
	return nil
}

// cacheSeries runs the F7.5–F7.7 prefix series with and without the
// hot-node policy.
func cacheSeries(e *env) (prefixes []int, off, on []*core.Metrics, err error) {
	prefixes = e.scaledPrefixes([]int{10, 20, 40, 60, 80, 100}, 100)
	for _, n := range prefixes {
		mOff, _, err := e.crawl(n, core.Options{UseHotNode: false})
		if err != nil {
			return nil, nil, nil, err
		}
		mOn, _, err := e.crawl(n, core.Options{UseHotNode: true})
		if err != nil {
			return nil, nil, nil, err
		}
		off = append(off, mOff)
		on = append(on, mOn)
	}
	return prefixes, off, on, nil
}

// expF75 reproduces Figure 7.5: AJAX events resulting in network calls,
// with and without the caching policy.
func expF75(e *env) error {
	prefixes, off, on, err := cacheSeries(e)
	if err != nil {
		return err
	}
	fmt.Fprintf(e.out, "%-8s %-14s %-14s %-8s\n", "videos", "no-cache", "cache", "factor")
	for i, n := range prefixes {
		fmt.Fprintf(e.out, "%-8d %-14d %-14d %-8.2f\n", n,
			off[i].NetworkEvents, on[i].NetworkEvents,
			float64(off[i].NetworkEvents)/float64(max(1, on[i].NetworkEvents)))
	}
	fmt.Fprintln(e.out, "(paper at 100 videos: 1790 vs 359, factor ~5)")
	return nil
}

// expF76 reproduces Figure 7.6: network time with and without the
// hot-node policy.
func expF76(e *env) error {
	prefixes, off, on, err := cacheSeries(e)
	if err != nil {
		return err
	}
	fmt.Fprintf(e.out, "%-8s %-16s %-16s %-8s\n", "videos", "no-cache (ms)", "cache (ms)", "ratio")
	for i, n := range prefixes {
		fmt.Fprintf(e.out, "%-8d %-16.1f %-16.1f %-8.2f\n", n,
			ms(off[i].NetworkTime), ms(on[i].NetworkTime),
			ms(on[i].NetworkTime)/ms(off[i].NetworkTime))
	}
	fmt.Fprintln(e.out, "(paper: caching cuts network time to ~0.37x)")
	return nil
}

// expF77 reproduces Figure 7.7: crawled-state throughput with and without
// the hot-node policy.
func expF77(e *env) error {
	prefixes, off, on, err := cacheSeries(e)
	if err != nil {
		return err
	}
	fmt.Fprintf(e.out, "%-8s %-18s %-18s %-8s\n", "videos", "no-cache (st/s)", "cache (st/s)", "factor")
	for i, n := range prefixes {
		offT := float64(off[i].States) / off[i].CrawlTime.Seconds()
		onT := float64(on[i].States) / on[i].CrawlTime.Seconds()
		fmt.Fprintf(e.out, "%-8d %-18.2f %-18.2f %-8.2f\n", n, offT, onT, onT/offT)
	}
	fmt.Fprintln(e.out, "(paper: caching improves throughput ~1.6x)")
	return nil
}

// parallelCrawl crawls n videos with the MP architecture under REAL
// (small) latencies: virtual clocks cannot express overlapping waits, so
// the parallel experiments measure wall-clock with scaled-down sleeps.
func (e *env) parallelCrawl(n, lines int, opts core.Options) (time.Duration, *core.Metrics, error) {
	base := e.latBase / 20 // scale the simulated RTT down for wall-clock runs
	if base <= 0 {
		base = time.Millisecond
	}
	mp := &core.MPCrawler{
		NewCrawler: func() *core.Crawler {
			f := fetch.NewInstrumented(&fetch.HandlerFetcher{Handler: e.site.Handler()}, fetch.RealClock{}, base, 0)
			return core.New(f, opts)
		},
		ProcLines:    lines,
		URLs:         e.urls(n),
		FrontierSeed: e.frontSeed,
	}
	start := time.Now()
	res := mp.Run(e.ctx)
	elapsed := time.Since(start)
	if res.Err != nil {
		return 0, nil, res.Err
	}
	return elapsed, res.Metrics, nil
}

// expT73 reproduces Table 7.3: parallel crawl times for traditional and
// AJAX crawling (4 process lines).
func expT73(e *env) error {
	n := min(e.videos, 100)
	tradT, tradM, err := e.parallelCrawl(n, 4, core.Options{Traditional: true})
	if err != nil {
		return err
	}
	ajaxT, ajaxM, err := e.parallelCrawl(n, 4, core.Options{UseHotNode: true})
	if err != nil {
		return err
	}
	fmt.Fprintf(e.out, "%-16s %16s %16s %10s\n", "", "Par. Trad (ms)", "Par. AJAX (ms)", "ratio")
	fmt.Fprintf(e.out, "%-16s %16.1f %16.1f %10.2fx\n", "Total time", ms(tradT), ms(ajaxT), ms(ajaxT)/ms(tradT))
	fmt.Fprintf(e.out, "%-16s %16.3f %16.3f %10.2fx\n", "Mean per page",
		ms(tradT)/float64(n), ms(ajaxT)/float64(n), ms(ajaxT)/ms(tradT))
	fmt.Fprintf(e.out, "%-16s %16.3f %16.3f %10.2fx\n", "Mean per state",
		ms(tradT)/float64(tradM.States), ms(ajaxT)/float64(ajaxM.States),
		(ms(ajaxT)/float64(ajaxM.States))/(ms(tradT)/float64(tradM.States)))
	fmt.Fprintln(e.out, "(paper: x8.80 per page, x2.11 per state)")
	return nil
}

// expF78 reproduces Figure 7.8: mean per-video crawl time, serial vs
// parallel, for both crawling flavors.
func expF78(e *env) error {
	n := min(e.videos, 100)
	rows := []struct {
		name  string
		opts  core.Options
		lines [2]int
	}{
		{"Traditional", core.Options{Traditional: true}, [2]int{1, 4}},
		{"AJAX", core.Options{UseHotNode: true}, [2]int{1, 4}},
	}
	fmt.Fprintf(e.out, "%-14s %-18s %-18s %-10s\n", "mode", "serial (ms/video)", "parallel (ms/video)", "gain")
	for _, r := range rows {
		serial, _, err := e.parallelCrawl(n, r.lines[0], r.opts)
		if err != nil {
			return err
		}
		parallel, _, err := e.parallelCrawl(n, r.lines[1], r.opts)
		if err != nil {
			return err
		}
		sm := ms(serial) / float64(n)
		pm := ms(parallel) / float64(n)
		fmt.Fprintf(e.out, "%-14s %-18.3f %-18.3f %-10.1f%%\n", r.name, sm, pm, 100*(1-pm/sm))
	}
	fmt.Fprintln(e.out, "(paper: parallel 27.5% lower for traditional, 25.6% for AJAX)")
	return nil
}
