package ajaxcrawl

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/obs"
)

// slowFetcher adds a fixed wall-clock delay per request, so a crawl of a
// small site stays observable long enough to poll mid-flight.
type slowFetcher struct {
	inner Fetcher
	delay time.Duration
}

func (f slowFetcher) Fetch(ctx context.Context, rawurl string) (*fetch.Response, error) {
	select {
	case <-time.After(f.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return f.inner.Fetch(ctx, rawurl)
}

// TestStatusEndpointDuringLiveCrawl runs the full pipeline against a
// slowed-down fetcher while polling /debug/status, and checks the
// endpoint reports genuine mid-crawl progress (0 < done < total, a
// frontier series from the sampler) and then completion.
func TestStatusEndpointDuringLiveCrawl(t *testing.T) {
	site := NewSimSite(16, 3)
	reg := obs.NewRegistry()
	tel := obs.New(reg, obs.NewRingSink(0))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ctx = obs.With(ctx, tel)

	sampler := obs.NewSampler(reg, obs.SamplerConfig{NoRuntime: true})
	go sampler.Run(ctx, 5*time.Millisecond)

	mux := http.NewServeMux()
	obs.RegisterStatus(mux, obs.StatusSource{Reg: reg, Sampler: sampler, StartedAt: time.Now()})
	poll := func() obs.Status {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/status", nil))
		var st obs.Status
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("status JSON: %v\n%s", err, rec.Body.String())
		}
		return st
	}

	done := make(chan error, 1)
	go func() {
		_, err := BuildEngine(ctx, Config{
			Fetcher:   slowFetcher{inner: NewHandlerFetcher(site.Handler()), delay: 10 * time.Millisecond},
			StartURL:  site.VideoURL(0),
			MaxPages:  10,
			ProcLines: 2,
			Crawl:     CrawlOptions{UseHotNode: true, MaxStates: 3},
			KeepURL:   IsWatchURL,
		})
		done <- err
	}()

	// Poll until we catch the crawl mid-flight: some pages retired, some
	// still to go. The slow fetcher stretches the crawl well past the
	// polling cadence, so missing the window means the endpoint lies.
	var mid obs.Status
	caught := false
	for !caught {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("crawl: %v", err)
			}
			t.Fatal("crawl finished before /debug/status ever showed partial progress")
		case <-time.After(time.Millisecond):
			mid = poll()
			caught = mid.PagesDone > 0 && mid.PagesDone < mid.PagesTotal
		}
	}
	if mid.PagesTotal != 10 {
		t.Errorf("mid-crawl pages_total = %d, want 10", mid.PagesTotal)
	}
	if mid.Done {
		t.Error("mid-crawl status claims done")
	}
	if mid.ElapsedSec <= 0 {
		t.Errorf("mid-crawl elapsed = %v, want > 0", mid.ElapsedSec)
	}
	if mid.PagesPerSec <= 0 || mid.ETASec < 0 {
		t.Errorf("mid-crawl rate/eta = %v/%v, want live estimates", mid.PagesPerSec, mid.ETASec)
	}

	if err := <-done; err != nil {
		t.Fatalf("crawl: %v", err)
	}
	sampler.Sample() // one final point, so the series reflects completion
	final := poll()
	if final.PagesDone != 10 || !final.Done {
		t.Fatalf("final status = %d/%d done=%v, want 10/10 done", final.PagesDone, final.PagesTotal, final.Done)
	}
	// The sampler charted the crawl: the default gauge series exist and
	// the pages.done series reached the final count.
	series := map[string][]obs.Point{}
	for _, s := range final.Series {
		series[s.Name] = s.Points
	}
	if len(series[obs.MetricFrontierDepth]) == 0 {
		t.Error("no frontier.depth series sampled")
	}
	pd := series[obs.MetricPagesDone]
	if len(pd) == 0 || pd[len(pd)-1].V != 10 {
		t.Errorf("crawl.pages.done series = %v, want to end at 10", pd)
	}

	// The HTML view renders the same numbers.
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/status?format=html", nil))
	if body := rec.Body.String(); !strings.Contains(body, "10 / 10") {
		t.Errorf("HTML status missing final progress:\n%s", body)
	}
}
