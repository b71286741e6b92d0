// Package webapp implements the synthetic YouTube-like AJAX web site the
// experiments crawl — the stand-in for the live YouTube subset the thesis
// evaluates on (DESIGN.md, Substitutions).
//
// The site is generated deterministically from a seed. Every video has a
// watch page with the structure the thesis describes (Fig. 1.1): title,
// player placeholder, related-video hyperlinks, and a comment box whose
// additional pages load via XMLHttpRequest from /comments without
// changing the URL. Pagination offers prev/next plus direct jumps to the
// neighbouring pages, so distinct events map to the same server call —
// the redundancy the hot-node policy exploits (ch. 4). All comment
// fetches funnel through one JavaScript function,
// getUrlXMLResponseAndFillDiv, the page's single hot node (Table 4.2).
package webapp

import (
	"math/rand"
	"strings"
	"sync"
)

// Config parameterizes site generation.
type Config struct {
	// Videos is the number of videos in the site.
	Videos int
	// Seed drives all content generation; equal seeds give identical sites.
	Seed int64
	// MaxCommentPages caps comment pages per video (including the first).
	// The thesis restricts crawling to 10 additional pages, i.e. 11 total.
	MaxCommentPages int
	// CommentsPerPage is the comment-box page size (YouTube: 10).
	CommentsPerPage int
	// RelatedPerVideo is the number of related-video hyperlinks per page.
	RelatedPerVideo int
	// PlantRate is the probability that a comment embeds a query phrase.
	PlantRate float64
	// WithSearchBox adds a Google-Suggest-style search input to every
	// watch page (an AJAX form, the forms future-work of thesis ch. 10).
	// Off by default so the chapter-7 experiments keep the thesis's
	// no-forms assumption (§4.3).
	WithSearchBox bool
	// WithLikeButton adds an AJAX "like" counter to every watch page.
	// Every click produces a state differing in a single number — the
	// "very granular events" state explosion of thesis challenge #3,
	// used by the near-duplicate-merging experiments. Off by default.
	WithLikeButton bool
	// NoisyDecor adds a decoration strip (render timestamp, view
	// counter, rotating ad slot) to every watch page, mutated
	// client-side on every tracked event. The decor makes revisited
	// states differ in a few tokens of chrome — the timestamps /
	// counters / ad slots of ROADMAP item 1 — so the exact-hash model
	// explodes while near-duplicate merging collapses it. Off by
	// default.
	NoisyDecor bool
}

// DefaultConfig returns the configuration used by the experiments, sized
// down by the caller as needed.
func DefaultConfig(videos int, seed int64) Config {
	return Config{
		Videos:          videos,
		Seed:            seed,
		MaxCommentPages: 11,
		CommentsPerPage: 10,
		RelatedPerVideo: 8,
		PlantRate:       0.18,
	}
}

// Comment is one user comment.
type Comment struct {
	Author string
	Text   string
}

// Video is one generated video with all its comment pages.
type Video struct {
	ID      string
	Index   int
	Title   string
	Related []string    // related video IDs (hyperlinks)
	Pages   [][]Comment // comment pages, Pages[0] shown by default
}

// Site is a deterministic synthetic video site.
type Site struct {
	cfg Config
	ids []string
	idx map[string]int

	mu    sync.Mutex
	cache map[int]*Video
}

// New generates a Site. Only the ID table is materialized eagerly; video
// content is derived lazily (and deterministically) per video.
func New(cfg Config) *Site {
	if cfg.Videos <= 0 {
		cfg.Videos = 1
	}
	if cfg.MaxCommentPages <= 0 {
		cfg.MaxCommentPages = 11
	}
	if cfg.CommentsPerPage <= 0 {
		cfg.CommentsPerPage = 10
	}
	cfg.RelatedPerVideo = max(cfg.RelatedPerVideo, 0)
	s := &Site{
		cfg:   cfg,
		ids:   make([]string, cfg.Videos),
		idx:   make(map[string]int, cfg.Videos),
		cache: make(map[int]*Video),
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	for i := range s.ids {
		for {
			b := make([]byte, 11)
			for j := range b {
				b[j] = alphabet[r.Intn(len(alphabet))]
			}
			id := string(b)
			if _, dup := s.idx[id]; !dup {
				s.ids[i] = id
				s.idx[id] = i
				break
			}
		}
	}
	return s
}

// Config returns the generation parameters.
func (s *Site) Config() Config { return s.cfg }

// NumVideos returns the number of videos.
func (s *Site) NumVideos() int { return len(s.ids) }

// VideoID returns the ID of the i-th video.
func (s *Site) VideoID(i int) string { return s.ids[i] }

// LookupVideo returns the video with the given ID, or nil.
func (s *Site) LookupVideo(id string) *Video {
	i, ok := s.idx[id]
	if !ok {
		return nil
	}
	return s.Video(i)
}

// Video returns the i-th video, generating it on first access.
func (s *Site) Video(i int) *Video {
	s.mu.Lock()
	if v, ok := s.cache[i]; ok {
		s.mu.Unlock()
		return v
	}
	s.mu.Unlock()
	v := s.generate(i)
	s.mu.Lock()
	s.cache[i] = v
	s.mu.Unlock()
	return v
}

// generate builds video i from a per-video RNG so that access order does
// not affect content.
func (s *Site) generate(i int) *Video {
	r := rand.New(rand.NewSource(s.cfg.Seed*1_000_003 + int64(i)*7_919 + 17))
	v := &Video{ID: s.ids[i], Index: i}

	// Title: 2-5 title words; capitalized first word.
	nTitle := 2 + r.Intn(4)
	words := make([]string, nTitle)
	for j := range words {
		words[j] = titleWords[r.Intn(len(titleWords))]
	}
	words[0] = strings.Title(words[0]) //nolint:staticcheck // ASCII corpus
	v.Title = strings.Join(words, " ")

	// Related links: a window around i plus random jumps, like the
	// breadth-first "related videos" discovery the thesis uses to build
	// YouTube10000.
	n := s.cfg.RelatedPerVideo
	seen := map[int]bool{i: true}
	for len(v.Related) < n && len(seen) < s.NumVideos() {
		var j int
		if r.Intn(2) == 0 {
			j = (i + 1 + r.Intn(5)) % s.NumVideos()
		} else {
			j = r.Intn(s.NumVideos())
		}
		if seen[j] {
			continue
		}
		seen[j] = true
		v.Related = append(v.Related, s.ids[j])
	}

	// Comment pages: heavy-tailed count matching Figure 7.1 — most
	// videos have a single page, a long tail reaches the cap.
	pages := s.samplePageCount(r)
	v.Pages = make([][]Comment, pages)
	for p := range v.Pages {
		v.Pages[p] = s.generatePage(r, p)
	}
	return v
}

// pageCountWeights is the distribution of comment-page counts (index 0 =
// one page). Chosen to reproduce the shape of Figure 7.1 and a mean of
// ~4.2 states per video (Table 7.1: 41572 states / 10000 pages).
var pageCountWeights = []float64{0.32, 0.13, 0.09, 0.08, 0.07, 0.06, 0.055, 0.05, 0.05, 0.048, 0.047}

func (s *Site) samplePageCount(r *rand.Rand) int {
	max := min(s.cfg.MaxCommentPages, len(pageCountWeights))
	total := 0.0
	for _, w := range pageCountWeights[:max] {
		total += w
	}
	x := r.Float64() * total
	for k, w := range pageCountWeights[:max] {
		x -= w
		if x <= 0 {
			return k + 1
		}
	}
	return max
}

func (s *Site) generatePage(r *rand.Rand, page int) []Comment {
	out := make([]Comment, s.cfg.CommentsPerPage)
	for c := range out {
		out[c] = Comment{
			Author: authorNames[r.Intn(len(authorNames))],
			Text:   s.generateText(r, page),
		}
	}
	return out
}

// generateText produces one comment: Zipf-ish filler words, sometimes
// with a planted query phrase so search experiments have controlled hits.
// Later pages get a slightly higher plant rate, pushing the first-page /
// all-pages occurrence ratio toward the shape of Table 7.4.
func (s *Site) generateText(r *rand.Rand, page int) string {
	n := 5 + r.Intn(14)
	words := make([]string, 0, n+4)
	for j := 0; j < n; j++ {
		words = append(words, zipfWord(r))
	}
	rate := s.cfg.PlantRate
	if page > 0 {
		rate *= 1.5
	}
	if r.Float64() < rate {
		phrases := plantable()
		// Rank-weighted pick: paper queries (low index) dominate.
		k := int(float64(len(phrases)) * r.Float64() * r.Float64())
		if k >= len(phrases) {
			k = len(phrases) - 1
		}
		pos := r.Intn(len(words) + 1)
		words = append(words[:pos], append([]string{phrases[k]}, words[pos:]...)...)
	}
	return strings.Join(words, " ")
}

// zipfWord samples the vocabulary with probability ∝ 1/(rank+4).
func zipfWord(r *rand.Rand) string {
	// Inverse-CDF-free trick: r.Float64()^2 biases toward low ranks.
	x := r.Float64()
	idx := int(x * x * float64(len(vocabulary)))
	if idx >= len(vocabulary) {
		idx = len(vocabulary) - 1
	}
	return vocabulary[idx]
}

// Stats describe the generated dataset (Table 7.1 inputs).
type Stats struct {
	Videos        int
	TotalStates   int // total comment pages across all videos
	PageHistogram []int
}

// DatasetStats walks the first n videos (n ≤ NumVideos) and aggregates
// the distribution Figure 7.1 plots.
func (s *Site) DatasetStats(n int) Stats {
	if n <= 0 || n > s.NumVideos() {
		n = s.NumVideos()
	}
	st := Stats{Videos: n, PageHistogram: make([]int, s.cfg.MaxCommentPages+1)}
	for i := 0; i < n; i++ {
		pages := len(s.Video(i).Pages)
		st.TotalStates += pages
		if pages < len(st.PageHistogram) {
			st.PageHistogram[pages]++
		}
	}
	return st
}

// QueryOccurrences counts, over the first n videos, in how many comments
// a query phrase appears on the first page and on all pages — the two
// columns of Table 7.4. Matching is token-based (whole words, in
// sequence), the same view the indexer has.
func (s *Site) QueryOccurrences(query string, n int) (firstPage, allPages int) {
	if n <= 0 || n > s.NumVideos() {
		n = s.NumVideos()
	}
	qTokens := strings.Fields(strings.ToLower(query))
	if len(qTokens) == 0 {
		return 0, 0
	}
	for i := 0; i < n; i++ {
		v := s.Video(i)
		for p, page := range v.Pages {
			for _, c := range page {
				if containsPhrase(strings.Fields(strings.ToLower(c.Text)), qTokens) {
					allPages++
					if p == 0 {
						firstPage++
					}
				}
			}
		}
	}
	return firstPage, allPages
}

// containsPhrase reports whether tokens contains the phrase as a
// contiguous subsequence.
func containsPhrase(tokens, phrase []string) bool {
	for i := 0; i+len(phrase) <= len(tokens); i++ {
		match := true
		for j, w := range phrase {
			if tokens[i+j] != w {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// WatchURL returns the path of a video's watch page.
func WatchURL(id string) string { return "/watch?v=" + id }
