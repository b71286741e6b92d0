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
		b.Fatal(err)
	}
	if err := p.RunOnLoad(ctx); err != nil {
		b.Fatal(err)
	}
	snap := p.Snapshot()
	events := p.Events(nil)
	if len(events) == 0 {
		b.Fatal("watch page has no events")
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ev := range events {
			p.Restore(snap)
			changed, err := p.Trigger(ctx, ev)
			if err != nil {
				b.Fatal(err)
			}
			if changed {
				sinkHash = p.Hash()
				sinkText = p.Doc.VisibleText()
				sinkSnap = p.Snapshot()
			}
		}
	}
	b.ReportMetric(float64(len(events)), "events/op")
}
