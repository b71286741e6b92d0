package webapp

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"ajaxcrawl/internal/browser"
	"ajaxcrawl/internal/fetch"
)

func newTestSite(videos int) *Site {
	return New(DefaultConfig(videos, 42))
}

func TestDeterministicGeneration(t *testing.T) {
	a := newTestSite(50)
	b := newTestSite(50)
	for i := 0; i < 50; i++ {
		va, vb := a.Video(i), b.Video(i)
		if va.ID != vb.ID || va.Title != vb.Title || len(va.Pages) != len(vb.Pages) {
			t.Fatalf("video %d differs between equal-seed sites", i)
		}
		for p := range va.Pages {
			for c := range va.Pages[p] {
				if va.Pages[p][c] != vb.Pages[p][c] {
					t.Fatalf("comment %d/%d/%d differs", i, p, c)
				}
			}
		}
	}
	// Different seed differs (with overwhelming probability).
	c := New(DefaultConfig(50, 43))
	if c.Video(0).ID == a.Video(0).ID && c.Video(0).Title == a.Video(0).Title {
		t.Fatalf("different seeds produced identical content")
	}
}

func TestLazyGenerationOrderIndependence(t *testing.T) {
	a := newTestSite(30)
	b := newTestSite(30)
	// Access in different orders; content must match.
	for i := 29; i >= 0; i-- {
		a.Video(i)
	}
	for i := 0; i < 30; i++ {
		if a.Video(i).Title != b.Video(i).Title {
			t.Fatalf("access order changed generation at %d", i)
		}
	}
}

func TestUniqueIDs(t *testing.T) {
	s := newTestSite(500)
	seen := map[string]bool{}
	for _, id := range s.ids {
		if len(id) != 11 {
			t.Fatalf("id %q not 11 chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

func TestPageCountDistribution(t *testing.T) {
	s := newTestSite(2000)
	st := s.DatasetStats(2000)
	if st.Videos != 2000 {
		t.Fatalf("videos = %d", st.Videos)
	}
	one := st.PageHistogram[1]
	if one*100 < 2000*25 {
		t.Fatalf("too few single-page videos: %d/2000", one)
	}
	// Heavy tail exists: some videos reach the cap.
	if st.PageHistogram[11] == 0 {
		t.Fatalf("no videos at the page cap")
	}
	// Mean states per video should land near the paper's 4.16.
	mean := float64(st.TotalStates) / 2000
	if mean < 3.0 || mean > 5.5 {
		t.Fatalf("mean states per video = %.2f, want ~4.2", mean)
	}
	// Monotone-ish decreasing head: 1 page most common.
	if st.PageHistogram[1] <= st.PageHistogram[2] {
		t.Fatalf("histogram head not decreasing: %v", st.PageHistogram)
	}
}

func TestRelatedLinks(t *testing.T) {
	s := newTestSite(100)
	v := s.Video(0)
	if len(v.Related) != s.Config().RelatedPerVideo {
		t.Fatalf("related = %d", len(v.Related))
	}
	seen := map[string]bool{v.ID: true}
	for _, rid := range v.Related {
		if seen[rid] {
			t.Fatalf("duplicate/self related link %q", rid)
		}
		seen[rid] = true
		if s.LookupVideo(rid) == nil {
			t.Fatalf("related link to unknown video %q", rid)
		}
	}
}

func TestQueriesWorkload(t *testing.T) {
	qs := Queries()
	if len(qs) != 100 {
		t.Fatalf("want 100 queries, got %d", len(qs))
	}
	if qs[0] != "wow" || qs[3] != "our song" || qs[10] != "low" {
		t.Fatalf("paper queries not in order: %v", qs[:11])
	}
	seen := map[string]bool{}
	for _, q := range qs {
		if seen[q] {
			t.Fatalf("duplicate query %q", q)
		}
		seen[q] = true
	}
}

func TestQueryOccurrencesShape(t *testing.T) {
	s := newTestSite(300)
	first, all := s.QueryOccurrences("wow", 300)
	if all == 0 {
		t.Fatalf("planted query 'wow' never occurs")
	}
	if first >= all {
		t.Fatalf("first-page occurrences (%d) must be < all-pages (%d)", first, all)
	}
	// The all/first ratio should be well above 1 (Table 7.4 shape).
	if float64(all)/float64(first+1) < 2 {
		t.Fatalf("all/first ratio too low: %d/%d", all, first)
	}
}

func TestHandlerWatchAndComments(t *testing.T) {
	s := newTestSite(10)
	f := &fetch.HandlerFetcher{Handler: s.Handler()}
	v := s.Video(0)

	resp, err := f.Fetch(context.Background(), WatchURL(v.ID))
	if err != nil || resp.Status != 200 {
		t.Fatalf("watch fetch: %v %v", resp, err)
	}
	body := string(resp.Body)
	if !strings.Contains(body, "recent_comments") || !strings.Contains(body, "getUrlXMLResponseAndFillDiv") {
		t.Fatalf("watch page missing structure")
	}
	// Fragment endpoint.
	if len(v.Pages) > 1 {
		resp, err = f.Fetch(context.Background(), commentsURL(v.ID, 2))
		if err != nil || resp.Status != 200 {
			t.Fatalf("comments fetch: %v %v", resp, err)
		}
		if !strings.Contains(string(resp.Body), `data-page="2"`) {
			t.Fatalf("fragment missing page marker: %s", resp.Body)
		}
	}
	// Errors.
	if resp, _ := f.Fetch(context.Background(), "/watch?v=doesnotexist"); resp.Status != 404 {
		t.Fatalf("unknown video should 404")
	}
	if resp, _ := f.Fetch(context.Background(), commentsURL(v.ID, 999)); resp.Status != 400 {
		t.Fatalf("out-of-range page should 400")
	}
	if resp, _ := f.Fetch(context.Background(), "/nope"); resp.Status != 404 {
		t.Fatalf("unknown path should 404")
	}
	// Index page.
	resp, err = f.Fetch(context.Background(), "/")
	if err != nil || resp.Status != 200 || !strings.Contains(string(resp.Body), "/watch?v=") {
		t.Fatalf("index page broken: %v %v", resp, err)
	}
}

// TestBrowserDrivesPagination is the end-to-end check that the synthetic
// site behaves like the thesis's YouTube page under the emulated browser:
// clicking "next" swaps the comment box content via XHR, and navigating
// back to page 1 reproduces the initial state bit-for-bit (hash-equal).
func TestBrowserDrivesPagination(t *testing.T) {
	s := newTestSite(40)
	// Find a video with at least 3 pages.
	var v *Video
	for i := 0; i < s.NumVideos(); i++ {
		if len(s.Video(i).Pages) >= 3 {
			v = s.Video(i)
			break
		}
	}
	if v == nil {
		t.Skip("no multi-page video in sample")
	}
	p := browser.NewPage(&fetch.HandlerFetcher{Handler: s.Handler()})
	if err := p.Load(context.Background(), WatchURL(v.ID)); err != nil {
		t.Fatal(err)
	}
	if err := p.RunOnLoad(context.Background()); err != nil {
		t.Fatal(err)
	}
	h1 := p.Hash()

	evs := p.Events(nil)
	if len(evs) == 0 {
		t.Fatalf("no events on multi-page video")
	}
	var next browser.Event
	found := false
	for _, e := range evs {
		if e.ID == "nextPage" {
			next, found = e, true
			break
		}
	}
	if !found {
		t.Fatalf("no next event: %v", evs)
	}
	changed, err := p.Trigger(context.Background(), next)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatalf("next did not change state")
	}
	h2 := p.Hash()
	if h2 == h1 {
		t.Fatalf("state hash unchanged after next")
	}
	// Now click prev: must return exactly to the initial state.
	var prev browser.Event
	found = false
	for _, e := range p.Events(nil) {
		if e.ID == "prevPage" {
			prev, found = e, true
			break
		}
	}
	if !found {
		t.Fatalf("page 2 has no prev event")
	}
	if _, err := p.Trigger(context.Background(), prev); err != nil {
		t.Fatal(err)
	}
	if p.Hash() != h1 {
		t.Fatalf("prev did not reproduce the initial state")
	}
	if p.NetworkCalls != 2 {
		t.Fatalf("network calls = %d, want 2", p.NetworkCalls)
	}
}

// TestFragmentEqualsInlinedFirstPage pins the invariant duplicate
// detection relies on: the /comments p=1 fragment and the watch page's
// inlined comment box parse to identical content.
func TestFragmentEqualsInlinedFirstPage(t *testing.T) {
	s := newTestSite(5)
	v := s.Video(0)
	frag := s.RenderCommentFragment(v, 1)
	page := s.RenderWatchPage(v)
	if !strings.Contains(page, frag) {
		t.Fatalf("watch page does not inline the p=1 fragment verbatim")
	}
}

// Property: every comment page of every video renders to a fragment that
// differs from every other page of the same video (states are distinct).
func TestPropertyDistinctPageFragments(t *testing.T) {
	s := newTestSite(60)
	f := func(raw uint8) bool {
		v := s.Video(int(raw) % s.NumVideos())
		seen := map[string]bool{}
		for p := 1; p <= len(v.Pages); p++ {
			fr := s.RenderCommentFragment(v, p)
			if seen[fr] {
				return false
			}
			seen[fr] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDatasetStatsBounds(t *testing.T) {
	s := newTestSite(10)
	st := s.DatasetStats(0) // 0 means all
	if st.Videos != 10 {
		t.Fatalf("DatasetStats(0) videos = %d", st.Videos)
	}
	st = s.DatasetStats(3)
	if st.Videos != 3 {
		t.Fatalf("DatasetStats(3) videos = %d", st.Videos)
	}
}

func TestSuggestEndpoint(t *testing.T) {
	cfg := DefaultConfig(5, 3)
	cfg.WithSearchBox = true
	s := New(cfg)
	f := &fetch.HandlerFetcher{Handler: s.Handler()}

	resp, err := f.Fetch(context.Background(), "/suggest?q=wo")
	if err != nil || resp.Status != 200 {
		t.Fatalf("suggest fetch: %v %v", resp, err)
	}
	if !strings.Contains(string(resp.Body), "wow") {
		t.Fatalf("suggestions for 'wo' missing wow: %s", resp.Body)
	}
	resp, _ = f.Fetch(context.Background(), "/suggest?q=zzz")
	if !strings.Contains(string(resp.Body), "no suggestions") {
		t.Fatalf("unmatched prefix should say so: %s", resp.Body)
	}
	resp, _ = f.Fetch(context.Background(), "/suggest?q=")
	if !strings.Contains(string(resp.Body), "no suggestions") {
		t.Fatalf("empty prefix should yield none: %s", resp.Body)
	}
	// Without the search box the endpoint does not exist.
	plain := New(DefaultConfig(5, 3))
	pf := &fetch.HandlerFetcher{Handler: plain.Handler()}
	if resp, _ := pf.Fetch(context.Background(), "/suggest?q=wo"); resp.Status != 404 {
		t.Fatalf("suggest should 404 without search box, got %d", resp.Status)
	}
	// Watch pages carry the box only when configured.
	withBox := s.RenderWatchPage(s.Video(0))
	if !strings.Contains(withBox, `id="search"`) {
		t.Fatalf("search box missing from watch page")
	}
	without := plain.RenderWatchPage(plain.Video(0))
	if strings.Contains(without, `id="search"`) {
		t.Fatalf("search box present without config")
	}
}

// TestNoisyDecorMutatesOnEvents pins the noisy-app workload: with
// NoisyDecor on, every tracked event rewrites the decor strip
// (timestamp/view-counter/ad-slot), so returning to a previously seen
// comment page no longer reproduces its exact DOM — the state explosion
// near-duplicate merging exists to collapse. Without the flag the page
// carries no decor and stays byte-stable.
func TestNoisyDecorMutatesOnEvents(t *testing.T) {
	cfg := DefaultConfig(30, 7)
	cfg.NoisyDecor = true
	s := New(cfg)
	var v *Video
	for i := 0; i < s.NumVideos(); i++ {
		if len(s.Video(i).Pages) >= 2 {
			v = s.Video(i)
			break
		}
	}
	if v == nil {
		t.Skip("no multi-page video in sample")
	}
	p := browser.NewPage(&fetch.HandlerFetcher{Handler: s.Handler()})
	if err := p.Load(context.Background(), WatchURL(v.ID)); err != nil {
		t.Fatal(err)
	}
	if err := p.RunOnLoad(context.Background()); err != nil {
		t.Fatal(err)
	}
	// onload runs urchinTracker once: trackCount=1 → tick-13, 4918
	// views, ad slot 9. The three spans concatenate into one token.
	if text := p.Doc.VisibleText(); !strings.Contains(text, "tick-13.views-4918.ad-9") {
		t.Fatalf("initial decor missing from %q", text)
	}
	h1 := p.Hash()

	trigger := func(id string) {
		t.Helper()
		for _, e := range p.Events(nil) {
			if e.ID == id {
				if _, err := p.Trigger(context.Background(), e); err != nil {
					t.Fatal(err)
				}
				return
			}
		}
		t.Fatalf("no %s event", id)
	}
	trigger("nextPage")
	if text := p.Doc.VisibleText(); !strings.Contains(text, "tick-26") {
		t.Fatalf("decor did not advance on next: %q", text)
	}
	trigger("prevPage")
	// Same comment page as the initial state, different decor tick —
	// the exact hash must differ even though the content matches.
	if p.Hash() == h1 {
		t.Fatalf("noisy revisit reproduced the initial hash")
	}
	if text := p.Doc.VisibleText(); !strings.Contains(text, "Comments (page 1 of") {
		t.Fatalf("prev did not return to page 1: %q", text)
	}

	// Without the flag: no decor markup (the shared script's decorate()
	// no-ops when the spans are absent).
	plain := New(DefaultConfig(5, 7))
	if html := plain.RenderWatchPage(plain.Video(0)); strings.Contains(html, `id="decor"`) {
		t.Fatalf("decor rendered without NoisyDecor")
	}
}

// commentsURL returns the AJAX endpoint for page p (1-based) of a video,
// in the query-string shape the thesis shows in Table 4.3.
func commentsURL(id string, p int) string {
	return fmt.Sprintf("/comments?v=%s&action_get_comments=1&p=%d", id, p)
}
