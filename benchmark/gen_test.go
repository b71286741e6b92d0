package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"strings"
	"testing"

	"ajaxcrawl/internal/webapp"
)

func TestBenchSiteIsSeededAndStratified(t *testing.T) {
	spec := siteSpec{Videos: 150, Noisy: true}
	a, b := newBenchSite(spec, 42), newBenchSite(spec, 42)
	if strings.Join(a.urls, " ") != strings.Join(b.urls, " ") || string(a.index) != string(b.index) {
		t.Fatal("same seed picked different sites")
	}
	if !a.site.Config().NoisyDecor {
		t.Error("Noisy spec produced a site without NoisyDecor")
	}
	if c := newBenchSite(spec, 43); strings.Join(c.urls, " ") == strings.Join(a.urls, " ") {
		t.Error("different seeds picked the same videos")
	}
	// Every seed's subset has the reference site's page-count profile.
	want := pageProfile(spec)
	for seed := int64(1); seed <= 5; seed++ {
		s := newBenchSite(spec, seed)
		if len(s.urls) != spec.Videos || s.pages() != spec.Videos+1 {
			t.Fatalf("seed %d: %d videos selected, want %d", seed, len(s.urls), spec.Videos)
		}
		got := make(map[int]int)
		for _, u := range s.urls {
			if !s.keep[u] {
				t.Fatalf("seed %d: %s selected but not kept", seed, u)
			}
			v := s.site.LookupVideo(strings.TrimPrefix(u, webapp.WatchURL("")))
			if v == nil {
				t.Fatalf("seed %d: %s is not a video of the site", seed, u)
			}
			got[len(v.Pages)]++
			if !strings.Contains(string(s.index), `href="`+u+`"`) {
				t.Fatalf("seed %d: entry page does not link %s", seed, u)
			}
		}
		for k, n := range want {
			if got[k] != n {
				t.Errorf("seed %d: %d videos with %d pages, the profile has %d", seed, got[k], k, n)
			}
		}
	}
}

// fakeTexts stands in for crawled state texts: enough distinct terms
// that pair queries dominate, as on a crawled corpus.
func fakeTexts(n int) []string {
	rng := rand.New(rand.NewSource(9))
	texts := make([]string, n)
	for i := range texts {
		var b []byte
		for w := 0; w < 120; w++ {
			b = append(b, "w"...)
			b = append(b, byte('a'+rng.Intn(20)), byte('a'+rng.Intn(20)), ' ')
		}
		texts[i] = string(b)
	}
	return texts
}

func TestOneSeedGivesOneStream(t *testing.T) {
	texts := fakeTexts(400)
	a, b := queryStream(texts, streamQueries, 2008), queryStream(texts, streamQueries, 2008)
	if len(a) != streamQueries {
		t.Fatalf("stream has %d queries, want %d", len(a), streamQueries)
	}
	if streamHash(a) != streamHash(b) {
		t.Fatalf("seed 2008 gave two streams: %s vs %s", streamHash(a), streamHash(b))
	}
	if streamHash(a) == streamHash(queryStream(texts, streamQueries, 2009)) {
		t.Error("seeds 2008 and 2009 gave the same stream")
	}
	for i := 1; i < len(a); i++ {
		if a[i] != a[0] {
			swapped := append([]string(nil), a...)
			swapped[0], swapped[i] = swapped[i], swapped[0]
			if streamHash(swapped) == streamHash(a) {
				t.Error("stream hash ignores order")
			}
			break
		}
	}
}

// The round's working set must dwarf the 1024-entry result cache, or
// the workload measures loopback HTTP and cache hits only. The issue
// asked for 5×; the driver's time budget buys a 4000-query round, whose
// working set is a bit over 2× — still far from fitting (see README).
func TestStreamWorkingSetExceedsCache(t *testing.T) {
	stream := queryStream(fakeTexts(400), streamQueries, 2008)
	cache := defaultServeConfig("").CacheCapacity
	if got := distinct(stream); got < 2*cache {
		t.Errorf("stream has %d distinct queries, want at least %d (2× the cache)", got, 2*cache)
	}
	var one int
	for _, q := range stream {
		if !strings.Contains(q, " ") {
			one++
		}
	}
	share := float64(one) / float64(len(stream))
	if math.Abs(share-oneTermShare) > 0.05 {
		t.Errorf("1-term share of the stream = %.3f, want ≈ %.2f", share, oneTermShare)
	}
}

func TestPoolQueriesComeFromOneState(t *testing.T) {
	texts := []string{"alpha beta gamma delta", "one two three four five"}
	pool := buildQueryPool(tokenizeStates(texts), 200, rand.New(rand.NewSource(1)))
	in := map[string]int{"alpha": 0, "beta": 0, "gamma": 0, "delta": 0, "one": 1, "two": 1, "three": 1, "four": 1, "five": 1}
	for _, q := range pool {
		state := -1
		for _, term := range strings.Fields(q) {
			s, ok := in[term]
			if !ok {
				t.Fatalf("query %q has a term no state contains", q)
			}
			if state >= 0 && s != state {
				t.Fatalf("query %q mixes terms of two states", q)
			}
			state = s
		}
	}
	if len(buildQueryPool(nil, 10, rand.New(rand.NewSource(1)))) != 0 {
		t.Error("pool from no texts should be empty")
	}
}

// A thinned round must keep the cost profile (evenly spaced along the
// match-count order), the stream's order, and each query's share.
func TestRoundQueries(t *testing.T) {
	var stream []string
	cost := map[string]int{}
	for i := 0; i < 90; i++ {
		q := string(rune('a' + i%9))
		stream = append(stream, q)
		cost[q] = 1 + i%9 // nine queries, ten draws each, costs 1..9
	}
	asked := map[string]int{}
	matches := func(q string) int { asked[q]++; return cost[q] }
	got := roundQueries(stream, 30, matches)
	if len(got) != 30 {
		t.Fatalf("kept %d queries, want 30", len(got))
	}
	for q, n := range asked {
		if n != 1 {
			t.Errorf("query %q priced %d times, want once", q, n)
		}
	}
	seen := map[string]int{}
	last := -1
	pos := 0
	for _, q := range got {
		seen[q]++
		for pos < len(stream) && stream[pos] != q {
			pos++
		}
		if pos == len(stream) || pos <= last {
			t.Fatal("thinned round is not a subsequence of the stream")
		}
		last, pos = pos, pos+1
	}
	for q, n := range seen {
		if n < 3 || n > 4 {
			t.Errorf("query %q kept %d times of 10, want a third", q, n)
		}
	}
	if len(seen) != 9 {
		t.Errorf("%d of 9 cost classes survive", len(seen))
	}
	if same := roundQueries(stream, 200, matches); len(same) != len(stream) {
		t.Error("asking for more than there is should return the stream")
	}
}

// streamHash fingerprints a query stream (order-sensitive).
func streamHash(stream []string) string {
	sum := sha256.Sum256([]byte(strings.Join(stream, "\n")))
	return hex.EncodeToString(sum[:8])
}

// distinct counts the different queries of a stream.
func distinct(stream []string) int {
	seen := make(map[string]struct{}, len(stream))
	for _, q := range stream {
		seen[q] = struct{}{}
	}
	return len(seen)
}
