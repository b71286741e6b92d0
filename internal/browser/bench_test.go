package browser

import (
	"context"
	"testing"

	"ajaxcrawl/internal/dom"
	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/webapp"
)

// memoXHR answers a repeated XHR from memory, as the crawler's hot-node
// cache does, so the loop below prices the browser and not the site.
type memoXHR map[string]string

func (m memoXHR) BeforeSend(_ *Page, req *XHRRequest) (string, bool) {
	body, ok := m[req.URL]
	return body, ok
}

func (m memoXHR) AfterSend(_ *Page, req *XHRRequest, body string) { m[req.URL] = body }

var (
	sinkHash dom.Hash
	sinkText string
	sinkSnap *Snapshot
)

// BenchmarkEventLoop is the crawl's inner loop (Alg. 3.1.1 lines 8–17) on
// a webapp watch page: one iteration expands one state — for each of its
// events roll the DOM back, fire the handler, and where the DOM changed
// take the state hash, the visible text and a snapshot.
func BenchmarkEventLoop(b *testing.B) {
	expand := newEventLoop(b)
	b.ReportAllocs()
	b.ResetTimer()
	events := 0
	for i := 0; i < b.N; i++ {
		events = expand()
	}
	b.ReportMetric(float64(events), "events/op")
}

// newEventLoop loads a webapp watch page with at least three comment
// pages and returns one state expansion of it, which reports the number
// of events it fired.
func newEventLoop(tb testing.TB) func() int {
	cfg := webapp.DefaultConfig(20, 17)
	cfg.NoisyDecor = true
	site := webapp.New(cfg)
	var v *webapp.Video
	for i := 0; i < site.NumVideos() && (v == nil || len(v.Pages) < 3); i++ {
		v = site.Video(i)
	}
	ctx := context.Background()
	p := NewPage(&fetch.HandlerFetcher{Handler: site.Handler()})
	p.XHR = memoXHR{}
	if err := p.Load(ctx, webapp.WatchURL(v.ID)); err != nil {
		tb.Fatal(err)
	}
	if err := p.RunOnLoad(ctx); err != nil {
		tb.Fatal(err)
	}
	snap := p.Snapshot()
	events := p.Events(nil)
	if len(events) == 0 {
		tb.Fatal("watch page has no events")
	}
	return func() int {
		for _, ev := range events {
			p.Restore(snap)
			changed, err := p.Trigger(ctx, ev)
			if err != nil {
				tb.Fatal(err)
			}
			if changed {
				sinkHash = p.Hash()
				sinkText = p.Doc.VisibleText()
				sinkSnap = p.Snapshot()
			}
		}
		return len(events)
	}
}
