package core

import (
	"ajaxcrawl/internal/browser"
	"ajaxcrawl/internal/obs"
)

// HotNodeCache implements the heuristic crawling policy of chapter 4.
//
// A hot node is a JavaScript function that fetches content from the
// server; a hot call is one invocation of it. When an XMLHttpRequest is
// about to be sent, the cache asks the interpreter for the topmost
// currently-executing user function and its actual parameter values —
// what StackInfo.getHotnodeInfo() extracts from the Rhino call stack in
// the thesis (§4.4.1) — and uses "name(arg1,arg2,...)" as the cache key:
//
//   - miss: the request goes to the network; the response is stored
//     under the key, whose function is thereby a hot node (the hotNodes
//     set of Alg. 4.2.1 line 37 is the keys' function names);
//   - hit: the stored response is returned and no network call happens.
//
// Because different events (next from page 1, jump to page 2, prev from
// page 3) all funnel into the same hot node with the same arguments, the
// cache collapses them into a single server call (Table 4.3's example).
type HotNodeCache struct {
	entries map[string]string

	// Hits and Misses count cache outcomes across all sends.
	Hits   int
	Misses int
}

// NewHotNodeCache returns an empty cache.
func NewHotNodeCache() *HotNodeCache {
	return &HotNodeCache{entries: make(map[string]string)}
}

// Hook returns the browser.XHRHook wiring this cache into a page.
func (c *HotNodeCache) Hook() browser.XHRHook { return &hotNodeHook{cache: c} }

// Len returns the number of cached hot calls.
func (c *HotNodeCache) Len() int { return len(c.entries) }

// key computes the hot-call identity for the current interpreter state.
// It falls back to the request URL when no user frame is executing (e.g.
// an XHR issued from top-level script code).
func (c *HotNodeCache) key(p *browser.Page, req *browser.XHRRequest) string {
	if f := p.Interp.TopUserFrame(); f != nil {
		return f.Key()
	}
	return "<toplevel>(" + req.URL + ")"
}

type hotNodeHook struct {
	cache *HotNodeCache
}

// BeforeSend implements Alg. 4.2.1 lines 34-42: look the hot call up; on
// a match, reuse the existing content instead of invoking the AJAX call.
func (h *hotNodeHook) BeforeSend(p *browser.Page, req *browser.XHRRequest) (string, bool) {
	ctx := p.Context()
	tel := obs.From(ctx)
	key := h.cache.key(p, req)
	if body, ok := h.cache.entries[key]; ok {
		h.cache.Hits++
		tel.Counter("crawl.hotnode.hits").Inc()
		obs.Event(ctx, obs.SpanHotNodeHit, obs.A("key", key))
		return body, true
	}
	h.cache.Misses++
	tel.Counter("crawl.hotnode.misses").Inc()
	obs.Event(ctx, obs.SpanHotNodeMiss, obs.A("key", key))
	return "", false
}

// AfterSend records the fresh response under the hot-call key.
func (h *hotNodeHook) AfterSend(p *browser.Page, req *browser.XHRRequest, body string) {
	h.cache.entries[h.cache.key(p, req)] = body
}
