package core

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ajaxcrawl/internal/browser"
	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/webapp"
)

func TestRecrawlProfileRecordsOutcomes(t *testing.T) {
	site, f := newSiteFetcher(30, 2)
	v := multiPageVideo(t, site, 3)
	url := webapp.WatchURL(v.ID)

	profile := NewCrawlProfile()
	c := New(f, Options{UseHotNode: true, RecordProfile: profile})
	_, pm, err := c.CrawlPage(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	if profile.NumEvents() == 0 {
		t.Fatalf("profile recorded nothing")
	}
	// Every triggered event is profiled (some keys collapse when the
	// same handler fires from several states).
	if profile.NumEvents() > pm.EventsTriggered {
		t.Fatalf("profile has more events (%d) than were triggered (%d)",
			profile.NumEvents(), pm.EventsTriggered)
	}
	// All pagination events on this app are productive; none should be
	// marked no-change.
	for key, outcome := range profile.Pages[url].Events {
		if outcome == OutcomeNoChange {
			t.Fatalf("pagination event %q recorded as no-change", key)
		}
	}
}

func TestRecrawlSkipsUnproductiveEvents(t *testing.T) {
	site, f := newSiteFetcher(30, 2)
	v := multiPageVideo(t, site, 3)
	url := webapp.WatchURL(v.ID)

	// Session 1: record. Inject a synthetic no-change event into the
	// profile to prove skipping (the synthetic site has only productive
	// events).
	profile := NewCrawlProfile()
	c1 := New(f, Options{UseHotNode: true, RecordProfile: profile})
	g1, pm1, err := c1.CrawlPage(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	// Session 2 with the profile: nothing should be skipped (all events
	// were productive), and the model must be identical.
	c2 := New(f, Options{UseHotNode: true, PriorProfile: profile})
	g2, pm2, err := c2.CrawlPage(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	if pm2.EventsSkipped != 0 {
		t.Fatalf("productive events were skipped: %d", pm2.EventsSkipped)
	}
	if g2.NumStates() != g1.NumStates() {
		t.Fatalf("recrawl changed the model: %d vs %d states", g2.NumStates(), g1.NumStates())
	}
	// Now poison one event as no-change and verify it is skipped.
	var anyKey string
	for key := range profile.Pages[url].Events {
		anyKey = key
		break
	}
	profile.Pages[url].Events[anyKey] = OutcomeNoChange
	c3 := New(f, Options{UseHotNode: true, PriorProfile: profile})
	_, pm3, err := c3.CrawlPage(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	if pm3.EventsSkipped == 0 {
		t.Fatalf("no-change event not skipped")
	}
	if pm3.EventsTriggered >= pm1.EventsTriggered {
		t.Fatalf("skipping did not reduce triggered events: %d vs %d",
			pm3.EventsTriggered, pm1.EventsTriggered)
	}
}

func TestRecrawlProfileOutcomeUpgrade(t *testing.T) {
	cp := NewCrawlProfile()
	ev := browser.Event{Type: "onclick", ID: "x", Code: "f()"}
	cp.record("/u", ev, OutcomeNoChange)
	if !cp.ShouldSkip("/u", ev) {
		t.Fatalf("no-change event should skip")
	}
	// A later productive observation upgrades the record.
	cp.record("/u", ev, OutcomeNewState)
	if cp.ShouldSkip("/u", ev) {
		t.Fatalf("upgraded event must not skip")
	}
	// Downgrade attempts are ignored.
	cp.record("/u", ev, OutcomeNoChange)
	if cp.ShouldSkip("/u", ev) {
		t.Fatalf("downgrade must not stick")
	}
	// Unknown pages/events never skip; nil profile never skips.
	if cp.ShouldSkip("/other", ev) {
		t.Fatalf("unknown page should not skip")
	}
	var nilProfile *CrawlProfile
	if nilProfile.ShouldSkip("/u", ev) {
		t.Fatalf("nil profile must not skip")
	}
}

func TestRecrawlProfilePersistence(t *testing.T) {
	cp := NewCrawlProfile()
	cp.record("/a", browser.Event{Type: "onclick", ID: "n", Code: "f(1)"}, OutcomeNewState)
	cp.record("/a", browser.Event{Type: "onclick", ID: "m", Code: "g()"}, OutcomeNoChange)
	path := filepath.Join(t.TempDir(), "profile.gob")
	if err := cp.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCrawlProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumEvents() != 2 {
		t.Fatalf("round trip lost events: %d", loaded.NumEvents())
	}
	if !loaded.ShouldSkip("/a", browser.Event{Type: "onclick", ID: "m", Code: "g()"}) {
		t.Fatalf("skip decision lost in round trip")
	}
	if _, err := LoadCrawlProfile(filepath.Join(t.TempDir(), "nope.gob")); err == nil {
		t.Fatalf("loading missing profile should fail")
	}
}

// TestLoadCrawlProfileRefusesInvalid: a profile that decodes but files a
// page under another URL or records an outcome that is none of the four
// is refused, not used.
func TestLoadCrawlProfileRefusesInvalid(t *testing.T) {
	ev := browser.Event{Type: "onclick", ID: "n", Code: "f(1)"}
	for name, spoil := range map[string]func(*CrawlProfile){
		"URL differs from its key": func(cp *CrawlProfile) { cp.Pages["/a"].URL = "/b" },
		"outcome past the last":    func(cp *CrawlProfile) { cp.Pages["/a"].Events[eventKey(ev)] = OutcomeError + 1 },
		"negative outcome":         func(cp *CrawlProfile) { cp.Pages["/a"].Events[eventKey(ev)] = -1 },
	} {
		cp := NewCrawlProfile()
		cp.record("/a", ev, OutcomeNoChange)
		spoil(cp)
		path := filepath.Join(t.TempDir(), "profile.gob")
		if err := cp.Save(path); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCrawlProfile(path); err == nil {
			t.Errorf("%s: profile accepted", name)
		}
	}
}

// FuzzLoadCrawlProfile feeds the profile reader arbitrary bytes, seeded
// with a saved profile, its truncations and the gob-era profile it must
// refuse: it errors or returns a profile whose every page is filed under
// its own URL with known outcomes.
func FuzzLoadCrawlProfile(f *testing.F) {
	cp := NewCrawlProfile()
	for i, o := range []EventOutcome{OutcomeNoChange, OutcomeDuplicate, OutcomeNewState, OutcomeError} {
		cp.record(fmt.Sprintf("/watch?v=%d", i%2), browser.Event{Type: "onclick", ID: fmt.Sprint("e", i), Code: "f()"}, o)
	}
	path := filepath.Join(f.TempDir(), "profile.gob")
	if err := cp.Save(path); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	for _, n := range []int{len(seed), len(seed) - 1, len(seed) / 2, 16, 0} {
		f.Add(seed[:n])
	}
	f.Add(gobEraSeed(f, "gob-era.profile", func(data []byte) error {
		_, err := decodeCrawlProfile(bytes.NewReader(data))
		return err
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := decodeCrawlProfile(bytes.NewReader(data))
		if err != nil {
			return
		}
		for url, pp := range cp.Pages {
			if pp == nil || pp.URL != url {
				t.Fatalf("accepted page %q filed as %v", url, pp)
			}
			for key, o := range pp.Events {
				if o < OutcomeNoChange || o > OutcomeError {
					t.Fatalf("accepted outcome %d for %q", int(o), key)
				}
			}
		}
		cp.ShouldSkip("/watch?v=0", browser.Event{})
	})
}

func TestFocusedCrawlPrunesIrrelevantStates(t *testing.T) {
	site, f := newSiteFetcher(40, 2)
	v := multiPageVideo(t, site, 5)
	url := webapp.WatchURL(v.ID)

	full := New(f, Options{UseHotNode: true})
	gFull, _, err := full.CrawlPage(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	// Focus on nothing: every non-initial state is irrelevant, so only
	// states reachable from the initial state are found.
	focused := New(f, Options{UseHotNode: true, StateFilter: func(string) bool { return false }})
	gFoc, pmFoc, err := focused.CrawlPage(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	if gFoc.NumStates() >= gFull.NumStates() {
		t.Fatalf("focus did not reduce states: %d vs %d", gFoc.NumStates(), gFull.NumStates())
	}
	if pmFoc.StatesPruned == 0 {
		t.Fatalf("no states pruned")
	}
	// Accept-all filter behaves like no filter.
	all := New(f, Options{UseHotNode: true, StateFilter: func(string) bool { return true }})
	gAll, pmAll, err := all.CrawlPage(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	if gAll.NumStates() != gFull.NumStates() || pmAll.StatesPruned != 0 {
		t.Fatalf("accept-all filter changed the crawl")
	}
}

func TestAjaxRobotsParsing(t *testing.T) {
	r := ParseAjaxRobots(`
# comment
ajax-states /watch 5
ajax-states / 11
ajax-states /deep/path 2
not-a-directive /x 3
ajax-states /bad notanumber
ajax-states /zero 0
`)
	if len(r.rules) != 3 {
		t.Fatalf("rules = %d, want 3", len(r.rules))
	}
	cases := []struct {
		url  string
		want int
	}{
		{"/watch?v=abc", 5},
		{"/deep/path/sub", 2},
		{"/index", 11},
		{"http://host/watch?v=x", 5},
		{"http://host", 11},
	}
	for _, c := range cases {
		if got := r.MaxStates(c.url); got != c.want {
			t.Errorf("MaxStates(%q) = %d, want %d", c.url, got, c.want)
		}
	}
	// nil robots: no limits.
	var nilR *AjaxRobots
	if nilR.MaxStates("/watch") != 0 {
		t.Fatalf("nil robots should impose no limits")
	}
}

func TestAjaxRobotsApplyTo(t *testing.T) {
	r := ParseAjaxRobots("ajax-states /watch 3\n")
	opts := r.ApplyTo(Options{MaxStates: 11}, "/watch?v=x")
	if opts.MaxStates != 3 {
		t.Fatalf("robots should cap MaxStates: %d", opts.MaxStates)
	}
	// The crawler's own tighter budget wins.
	opts = r.ApplyTo(Options{MaxStates: 2}, "/watch?v=x")
	if opts.MaxStates != 2 {
		t.Fatalf("tighter crawler budget must win: %d", opts.MaxStates)
	}
	// No rule: unchanged.
	opts = r.ApplyTo(Options{MaxStates: 11}, "/other")
	if opts.MaxStates != 11 {
		t.Fatalf("no-rule URL must keep its budget: %d", opts.MaxStates)
	}
}

func TestAjaxRobotsEndToEnd(t *testing.T) {
	cfg := webapp.DefaultConfig(30, 2)
	cfg.AdvertiseStates = 3
	site := webapp.New(cfg)
	f := &fetch.HandlerFetcher{Handler: site.Handler()}

	robots, err := FetchAjaxRobots(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	if robots == nil || robots.MaxStates("/watch?v=x") != 3 {
		t.Fatalf("robots not served/parsed: %v", robots)
	}
	// A cooperating crawl respects the advertised granularity.
	var v *webapp.Video
	for i := 0; i < site.NumVideos(); i++ {
		if len(site.Video(i).Pages) >= 5 {
			v = site.Video(i)
			break
		}
	}
	if v == nil {
		t.Skip("no deep video")
	}
	url := webapp.WatchURL(v.ID)
	c := New(f, robots.ApplyTo(Options{UseHotNode: true}, url))
	g, _, err := c.CrawlPage(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumStates() != 3 {
		t.Fatalf("crawl ignored advertised granularity: %d states", g.NumStates())
	}
	// A site without the file yields nil robots.
	plain := webapp.New(webapp.DefaultConfig(5, 1))
	robots, err = FetchAjaxRobots(context.Background(), &fetch.HandlerFetcher{Handler: plain.Handler()})
	if err != nil || robots != nil {
		t.Fatalf("absent robots file should yield nil: %v %v", robots, err)
	}
}

// gobEraSeed returns testdata/name, a file the gob-era build wrote, after
// checking that decode refuses it.
func gobEraSeed(f *testing.F, name string, decode func([]byte) error) []byte {
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		f.Fatal(err)
	}
	if decode(data) == nil {
		f.Fatalf("%s: a gob-era file was accepted", name)
	}
	return data
}
