package core

import (
	"fmt"
	"io"
	"maps"
	"os"
	"slices"

	"ajaxcrawl/internal/browser"
	"ajaxcrawl/internal/codec"
)

// This file implements the "repetitive crawling" future-work direction of
// thesis chapter 10: "crawling AJAX can also be seen as a repetitive
// process, which can reduce the number of crawled events, by ignoring
// events which did not cause large changes in previous crawling
// sessions."
//
// A crawl session records, per page and per event identity, what the
// event did (nothing / led to an already-known state / produced a new
// state). A later session consults the profile and skips events that were
// unproductive last time, while still firing events it has never seen.

// EventOutcome classifies what one event invocation did.
type EventOutcome int

// Outcomes, ordered by usefulness.
const (
	// OutcomeNoChange: the handler ran but the DOM did not change.
	OutcomeNoChange EventOutcome = iota
	// OutcomeDuplicate: the DOM changed into an already-known state.
	OutcomeDuplicate
	// OutcomeNewState: the event produced a previously unseen state.
	OutcomeNewState
	// OutcomeError: the handler raised an error.
	OutcomeError
)

// String names the outcome.
func (o EventOutcome) String() string {
	switch o {
	case OutcomeNoChange:
		return "no-change"
	case OutcomeDuplicate:
		return "duplicate"
	case OutcomeNewState:
		return "new-state"
	case OutcomeError:
		return "error"
	}
	return fmt.Sprintf("EventOutcome(%d)", int(o))
}

// eventKey identifies an event across sessions: its type, source element
// and handler code. Positions may shift between sessions; the handler
// code is the stable part.
func eventKey(ev browser.Event) string {
	return ev.Type + "|" + ev.Source() + "|" + ev.Code
}

// PageProfile records the best outcome observed per event of one page.
type PageProfile struct {
	URL    string
	Events map[string]EventOutcome
}

// CrawlProfile aggregates page profiles of one crawl session.
type CrawlProfile struct {
	Pages map[string]*PageProfile
}

// NewCrawlProfile returns an empty profile.
func NewCrawlProfile() *CrawlProfile {
	return &CrawlProfile{Pages: make(map[string]*PageProfile)}
}

// record notes an event outcome, keeping the most useful one (a handler
// may fire from several states; if it ever produced a new state it stays
// worth firing).
func (cp *CrawlProfile) record(url string, ev browser.Event, outcome EventOutcome) {
	pp := cp.Pages[url]
	if pp == nil {
		pp = &PageProfile{URL: url, Events: make(map[string]EventOutcome)}
		cp.Pages[url] = pp
	}
	key := eventKey(ev)
	if old, seen := pp.Events[key]; !seen || outcome > old {
		pp.Events[key] = outcome
	}
}

// ShouldSkip reports whether an event was unproductive for this page in
// the recorded session: it ran without changing the DOM (or only
// erroring). Events that led anywhere — even to duplicates — still fire,
// because duplicates are what keeps the transition graph complete.
// Unknown events never skip.
func (cp *CrawlProfile) ShouldSkip(url string, ev browser.Event) bool {
	if cp == nil {
		return false
	}
	pp := cp.Pages[url]
	if pp == nil {
		return false
	}
	outcome, seen := pp.Events[eventKey(ev)]
	return seen && (outcome == OutcomeNoChange || outcome == OutcomeError)
}

// NumEvents returns the number of profiled events across all pages.
func (cp *CrawlProfile) NumEvents() int {
	n := 0
	for _, pp := range cp.Pages {
		n += len(pp.Events)
	}
	return n
}

// The profile file, in internal/codec's primitives:
//
//	magic "AJRP" | version u8
//	pageCount uvarint, per page (sorted by key): key string, url string,
//	  eventCount uvarint, per event (sorted): key string, outcome uvarint
const (
	profileMagic   = "AJRP"
	profileVersion = 1
)

// Save serializes the profile.
func (cp *CrawlProfile) Save(path string) error {
	err := codec.WriteFile(path, profileMagic, profileVersion, func(e codec.Encoder) {
		e.Uvarint(uint64(len(cp.Pages)))
		for _, url := range slices.Sorted(maps.Keys(cp.Pages)) {
			pp := cp.Pages[url]
			e.String(url)
			e.String(pp.URL)
			e.Uvarint(uint64(len(pp.Events)))
			for _, key := range slices.Sorted(maps.Keys(pp.Events)) {
				e.String(key)
				e.Uvarint(uint64(pp.Events[key]))
			}
		}
	})
	if err != nil {
		return fmt.Errorf("core: profile save: %w", err)
	}
	return nil
}

// LoadCrawlProfile reads a profile from disk.
func LoadCrawlProfile(path string) (*CrawlProfile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: profile load: %w", err)
	}
	defer f.Close()
	cp, err := decodeCrawlProfile(f)
	if err != nil {
		return nil, fmt.Errorf("core: profile decode %s: %w", path, err)
	}
	return cp, nil
}

// decodeCrawlProfile reads a saved CrawlProfile from untrusted bytes,
// bounding every count and string before it allocates. The result is
// then refused if a page is filed under a URL other than its own, or an
// outcome is none of the four.
func decodeCrawlProfile(r io.Reader) (cp *CrawlProfile, err error) {
	defer codec.Contain(&err, "decode")
	d := codec.NewDecoder(r)
	d.Header(profileMagic, profileVersion, "written by another build; record it again with ajaxcrawl -save-profile")
	n := d.Count("page")
	cp = &CrawlProfile{Pages: make(map[string]*PageProfile, codec.Prealloc(n))}
	for i := 0; i < n && d.Err() == nil; i++ {
		url, pp := d.String(), &PageProfile{URL: d.String()}
		k := d.Count("event")
		pp.Events = make(map[string]EventOutcome, codec.Prealloc(k))
		for j := 0; j < k && d.Err() == nil; j++ {
			key := d.String()
			pp.Events[key] = EventOutcome(d.Uvarint())
		}
		cp.Pages[url] = pp
	}
	d.End()
	if d.Err() != nil {
		return nil, d.Err()
	}
	for url, pp := range cp.Pages {
		if pp.URL != url {
			return nil, fmt.Errorf("page %q filed under another URL", url)
		}
		for key, o := range pp.Events {
			if o < OutcomeNoChange || o > OutcomeError {
				return nil, fmt.Errorf("page %q, event %q: outcome %d", url, key, int(o))
			}
		}
	}
	return cp, nil
}
