package fetch

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ajaxcrawl/internal/obs"
)

func echoHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/page", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprintf(w, "<html><body>%s</body></html>", r.URL.Query().Get("q"))
	})
	mux.HandleFunc("/big", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(strings.Repeat("x", 4096)))
	})
	return mux
}

func TestHandlerFetcher(t *testing.T) {
	f := &HandlerFetcher{Handler: echoHandler()}
	resp, err := f.Fetch(context.Background(), "http://sim.local/page?q=hello")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || !strings.Contains(string(resp.Body), "hello") {
		t.Fatalf("resp = %d %q", resp.Status, resp.Body)
	}
	if resp.ContentType != "text/html" {
		t.Fatalf("content type = %q", resp.ContentType)
	}
	// Relative URLs work too.
	if _, err := f.Fetch(context.Background(), "/page?q=x"); err != nil {
		t.Fatalf("relative fetch: %v", err)
	}
	// 404 is returned as a status, not an error.
	resp, err = f.Fetch(context.Background(), "/missing")
	if err != nil || resp.Status != 404 {
		t.Fatalf("missing = %v %v", resp, err)
	}
}

// withRegistry returns a context carrying telemetry into a fresh
// registry: the fetch layers' one count.
func withRegistry() (context.Context, *obs.Registry) {
	reg := obs.NewRegistry()
	return obs.With(context.Background(), obs.New(reg, nil)), reg
}

func TestInstrumentedCountsAndLatency(t *testing.T) {
	clock := &VirtualClock{}
	inner := &HandlerFetcher{Handler: echoHandler()}
	f := NewInstrumented(inner, clock, 10*time.Millisecond, 1*time.Millisecond)
	ctx, reg := withRegistry()
	var tally Tally
	ctx = WithTally(ctx, &tally)

	if _, err := f.Fetch(ctx, "/page?q=a"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Fetch(ctx, "/big"); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("fetch.requests").Value(); got != 2 {
		t.Fatalf("fetch.requests = %d", got)
	}
	if got := reg.Counter("fetch.bytes").Value(); got < 4096 {
		t.Fatalf("fetch.bytes = %d", got)
	}
	// /big is 4 KiB → 10ms base + 4ms transfer; /page → ~10ms.
	if tally.NetworkTime < 24*time.Millisecond {
		t.Fatalf("network time = %v, want >= 24ms", tally.NetworkTime)
	}
}

func TestInstrumentedErrorCounting(t *testing.T) {
	boom := errors.New("boom")
	f := NewInstrumented(Func(func(context.Context, string) (*Response, error) { return nil, boom }), &VirtualClock{}, 0, 0)
	ctx, reg := withRegistry()
	if _, err := f.Fetch(ctx, "/x"); !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
	if e, n := reg.Counter("fetch.errors").Value(), reg.Counter("fetch.requests").Value(); e != 1 || n != 1 {
		t.Fatalf("fetch.errors = %d, fetch.requests = %d, want 1 and 1", e, n)
	}
}

func TestInstrumentedConcurrentSafety(t *testing.T) {
	clock := &VirtualClock{}
	f := NewInstrumented(&HandlerFetcher{Handler: echoHandler()}, clock, time.Millisecond, 0)
	ctx, reg := withRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				f.Fetch(ctx, "/page?q=a") //nolint:errcheck
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("fetch.requests").Value(); got != 200 {
		t.Fatalf("fetch.requests = %d, want 200", got)
	}
}

func TestVirtualClockAdvances(t *testing.T) {
	c := &VirtualClock{}
	t0 := c.Now()
	c.Sleep(context.Background(), 5*time.Second) //nolint:errcheck
	if got := c.Now().Sub(t0); got != 5*time.Second {
		t.Fatalf("virtual clock advanced %v", got)
	}
}

func TestHTTPFetcherAgainstLocalServer(t *testing.T) {
	// Spin up a real HTTP server to exercise the live-network path.
	srv := &http.Server{Handler: echoHandler()}
	ln, err := newLocalListener()
	if err != nil {
		t.Skipf("cannot listen: %v", err)
	}
	go srv.Serve(ln) //nolint:errcheck
	defer srv.Close()

	f := &HTTPFetcher{}
	resp, err := f.Fetch(context.Background(), "http://"+ln.Addr().String()+"/page?q=live")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(resp.Body), "live") {
		t.Fatalf("body = %q", resp.Body)
	}
}

func newLocalListener() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}

// TestHTTPFetcherBodyCap: a body of exactly maxBodyBytes is read whole,
// one byte more fails the fetch, names the URL and the cap, and counts.
func TestHTTPFetcherBodyCap(t *testing.T) {
	body := strings.Repeat("x", maxBodyBytes+1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := maxBodyBytes
		if r.URL.Path == "/over" {
			n++
		}
		w.Write([]byte(body[:n])) //nolint:errcheck
	}))
	defer srv.Close()
	ctx, reg := withRegistry()
	f := &HTTPFetcher{Client: srv.Client()}

	resp, err := f.Fetch(ctx, srv.URL+"/at")
	if err != nil || len(resp.Body) != maxBodyBytes {
		t.Fatalf("body of exactly the cap: len=%d err=%v", len(resp.Body), err)
	}
	_, err = f.Fetch(ctx, srv.URL+"/over")
	if err == nil || !strings.Contains(err.Error(), "/over") || !strings.Contains(err.Error(), strconv.Itoa(maxBodyBytes)) {
		t.Fatalf("cap+1 body: err = %v, want one naming the URL and the cap", err)
	}
	if got := reg.Counter("fetch.body_too_large").Value(); got != 1 {
		t.Fatalf("fetch.body_too_large = %d, want 1", got)
	}
}

// countingInner answers every URL with its own name and counts calls.
type countingInner struct{ calls atomic.Int64 }

func (c *countingInner) Fetch(_ context.Context, rawurl string) (*Response, error) {
	c.calls.Add(1)
	return &Response{Status: 200, Body: []byte("net:" + rawurl)}, nil
}

func TestHandoffTakeOnce(t *testing.T) {
	inner := &countingInner{}
	h := &Handoff{Inner: inner}
	kept := &Response{Status: 200, Body: []byte("kept")}
	h.Keep(context.Background(), "/a", kept)

	resp, err := h.Fetch(context.Background(), "/a")
	if err != nil || resp != kept || inner.calls.Load() != 0 {
		t.Fatalf("first fetch of a kept URL: resp=%v err=%v inner calls=%d", resp, err, inner.calls.Load())
	}
	// Taken means forgotten: the second fetch, and any unkept URL, is
	// the network's.
	for _, u := range []string{"/a", "/b"} {
		resp, err := h.Fetch(context.Background(), u)
		if err != nil || string(resp.Body) != "net:"+u {
			t.Fatalf("fetch %s: resp=%v err=%v, want the inner fetcher's", u, resp, err)
		}
	}
	if inner.calls.Load() != 2 || len(h.kept) != 0 || h.bytes != 0 {
		t.Fatalf("inner calls=%d kept=%d bytes=%d, want 2/0/0", inner.calls.Load(), len(h.kept), h.bytes)
	}
}

func TestHandoffForwardsErrors(t *testing.T) {
	calls := 0
	boom := errors.New("down")
	h := &Handoff{Inner: Func(func(context.Context, string) (*Response, error) {
		calls++
		return nil, boom
	})}
	for i := 0; i < 2; i++ {
		if _, err := h.Fetch(context.Background(), "/broken"); !errors.Is(err, boom) {
			t.Fatalf("error not propagated: %v", err)
		}
	}
	if calls != 2 {
		t.Fatalf("a handoff remembers nothing it did not keep: %d inner calls, want 2", calls)
	}
}

// TestHandoffBound: 10⁴ bodies of cap/10⁴ bytes are all kept, the next
// one is turned away and counted, and taking one frees its room.
func TestHandoffBound(t *testing.T) {
	const n = 10_000
	body := make([]byte, maxHandoffBytes/n) // shared: the bound counts bytes, not allocations
	ctx, reg := withRegistry()
	h := &Handoff{Inner: &countingInner{}}
	for i := 0; i < n; i++ {
		h.Keep(ctx, "/p"+strconv.Itoa(i), &Response{Status: 200, Body: body})
	}
	if len(h.kept) != n || reg.Counter("fetch.handoff.overflow").Value() != 0 {
		t.Fatalf("kept %d of %d bodies under the cap", len(h.kept), n)
	}
	h.Keep(ctx, "/over", &Response{Status: 200, Body: make([]byte, maxHandoffBytes-h.bytes+1)})
	if _, ok := h.kept["/over"]; ok || reg.Counter("fetch.handoff.overflow").Value() != 1 {
		t.Fatalf("a body past the cap was kept (overflow=%d)", reg.Counter("fetch.handoff.overflow").Value())
	}
	if h.bytes > maxHandoffBytes {
		t.Fatalf("retained %d bytes, cap %d", h.bytes, maxHandoffBytes)
	}
	h.Fetch(ctx, "/p0") //nolint:errcheck
	h.Keep(ctx, "/late", &Response{Status: 200, Body: body})
	if _, ok := h.kept["/late"]; !ok {
		t.Fatalf("a taken body's room was not freed")
	}
}

// TestHandoffConcurrentTakes: lines racing for the same pages each take
// a kept response at most once between them.
func TestHandoffConcurrentTakes(t *testing.T) {
	const urls, lines = 50, 8
	inner := &countingInner{}
	h := &Handoff{Inner: inner}
	for i := 0; i < urls; i++ {
		h.Keep(context.Background(), "/p"+strconv.Itoa(i), &Response{Status: 200, Body: []byte("kept")})
	}
	var taken atomic.Int64
	var wg sync.WaitGroup
	for l := 0; l < lines; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < urls; i++ {
				resp, err := h.Fetch(context.Background(), "/p"+strconv.Itoa(i))
				if err == nil && string(resp.Body) == "kept" {
					taken.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if taken.Load() != urls || inner.calls.Load() != urls*(lines-1) {
		t.Fatalf("taken=%d inner=%d, want %d and %d", taken.Load(), inner.calls.Load(), urls, urls*(lines-1))
	}
}

func TestRealClockSleepInterruptible(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	err := RealClock{}.Sleep(ctx, 10*time.Second)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatalf("canceled sleep blocked")
	}
}

func TestVirtualClockSleepHonorsContext(t *testing.T) {
	c := &VirtualClock{}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	t0 := c.Now()
	if err := c.Sleep(ctx, 5*time.Second); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if c.Now() != t0 {
		t.Fatalf("canceled virtual sleep still advanced the clock")
	}
}

// A canceled page load takes nothing: the kept response waits for the
// next load of the page.
func TestHandoffCanceledFetchTakesNothing(t *testing.T) {
	calls := 0
	h := &Handoff{Inner: Func(func(ctx context.Context, url string) (*Response, error) {
		calls++
		return nil, ctx.Err()
	})}
	kept := &Response{Status: 200, Body: []byte("kept")}
	h.Keep(context.Background(), "/a", kept)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := h.Fetch(canceled, "/a"); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if resp, err := h.Fetch(context.Background(), "/a"); err != nil || resp != kept {
		t.Fatalf("the retry after a cancellation lost the kept response: %v %v", resp, err)
	}
	if calls != 1 {
		t.Fatalf("inner called %d times, want 1", calls)
	}
}
