package fetch

import (
	"context"
	"sync"

	"ajaxcrawl/internal/obs"
)

// maxHandoffBytes bounds the response bodies one Handoff retains. A page
// past it is not kept: the crawl simply fetches it again.
const maxHandoffBytes = 64 << 20

// Handoff passes the precrawl's responses on to the crawl, so each page
// crosses the network once: a kept URL is served from memory on its first
// Fetch — the crawl's page load — and then forgotten; every other fetch
// (XHRs, a second load of the page) goes to Inner. Take-once keeps it a handoff,
// not a URL cache, which could not tell two AJAX states behind one URL
// apart (DESIGN.md §5b).
type Handoff struct {
	Inner Fetcher

	mu    sync.Mutex
	kept  map[string]*Response
	bytes int
}

// Keep retains resp for the next Fetch of rawurl. A body that would take
// the retained bytes past maxHandoffBytes is dropped and counted as
// fetch.handoff.overflow.
func (h *Handoff) Keep(ctx context.Context, rawurl string, resp *Response) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.bytes+len(resp.Body) > maxHandoffBytes {
		obs.From(ctx).Counter("fetch.handoff.overflow").Inc()
		return
	}
	if h.kept == nil {
		h.kept = make(map[string]*Response)
	}
	h.kept[rawurl] = resp
	h.bytes += len(resp.Body)
}

// Fetch implements Fetcher. A canceled fetch takes nothing: the kept
// response waits for the attempt that can use it.
func (h *Handoff) Fetch(ctx context.Context, rawurl string) (*Response, error) {
	if ctx.Err() == nil {
		h.mu.Lock()
		resp, ok := h.kept[rawurl]
		if ok {
			delete(h.kept, rawurl)
			h.bytes -= len(resp.Body)
		}
		h.mu.Unlock()
		if ok {
			return resp, nil
		}
	}
	return h.Inner.Fetch(ctx, rawurl)
}
