package core

import "ajaxcrawl/internal/obs"

// publishPageMetrics folds the PageMetrics facts that have no live
// counter into the registry at page end. Events, hot-node hits, states
// and near-dup work are counted as they happen (crawl.events.triggered,
// crawl.hotnode.hits, crawl.states.discovered, crawl.states.neardup.*),
// so they are not repeated here. Every name is a literal, which keeps
// scripts/check-docs.sh able to see it.
func publishPageMetrics(tel *obs.Telemetry, pm PageMetrics) {
	if tel == nil {
		return
	}
	tel.Histogram("crawl.page.latency").Observe(pm.CrawlTime.Seconds())
	tel.Counter("crawl.page.xhr_sends").Add(int64(pm.XHRSends))
	tel.Counter("crawl.page.network_calls").Add(int64(pm.NetworkCalls))
	tel.Counter("crawl.page.handler_errors").Add(int64(pm.HandlerErrors))
	tel.Counter("crawl.page.retries").Add(int64(pm.Retries))
	tel.Counter("crawl.page.pages_recovered").Add(int64(pm.PagesRecovered))
}
