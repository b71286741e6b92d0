package core

import (
	"context"
	"sort"
	"strconv"
	"strings"

	"ajaxcrawl/internal/fetch"
)

// This file implements the thesis's §4.3 prediction: "we predict that in
// the future, AJAX Web Sites will provide a robots.txt file with
// information on the possible granularity of search on their pages."
//
// The convention implemented here is a /robots-ajax.txt file of lines
//
//	ajax-states <path-prefix> <max-states>
//
// e.g.
//
//	# how deep AJAX crawlers should expand application states
//	ajax-states /watch 5
//	ajax-states / 11
//
// The longest matching prefix wins. A cooperating crawler caps its
// per-page state budget at the advertised granularity.

// AjaxRobots holds the parsed granularity rules of one site.
type AjaxRobots struct {
	rules []ajaxRule // sorted by decreasing prefix length
}

type ajaxRule struct {
	prefix    string
	maxStates int
}

// ParseAjaxRobots parses robots-ajax.txt content. Unknown directives and
// malformed lines are ignored, as robots parsers do.
func ParseAjaxRobots(content string) *AjaxRobots {
	r := &AjaxRobots{}
	for _, line := range strings.Split(content, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 || fields[0] != "ajax-states" {
			continue
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil || n < 1 {
			continue
		}
		r.rules = append(r.rules, ajaxRule{prefix: fields[1], maxStates: n})
	}
	sort.SliceStable(r.rules, func(i, j int) bool {
		return len(r.rules[i].prefix) > len(r.rules[j].prefix)
	})
	return r
}

// FetchAjaxRobots retrieves and parses /robots-ajax.txt. A missing file
// yields a nil AjaxRobots (no limits), not an error.
func FetchAjaxRobots(ctx context.Context, f fetch.Fetcher) (*AjaxRobots, error) {
	resp, err := f.Fetch(ctx, "/robots-ajax.txt")
	if err != nil || resp.Status != 200 {
		return nil, nil //nolint:nilerr // absent file means no policy
	}
	return ParseAjaxRobots(string(resp.Body)), nil
}

// MaxStates returns the advertised state granularity for a URL path, or 0
// when no rule matches (no limit advertised).
func (r *AjaxRobots) MaxStates(url string) int {
	if r == nil {
		return 0
	}
	path := url
	if i := strings.Index(path, "://"); i >= 0 {
		path = path[i+3:]
		if j := strings.IndexByte(path, '/'); j >= 0 {
			path = path[j:]
		} else {
			path = "/"
		}
	}
	if i := strings.IndexByte(path, '?'); i >= 0 {
		path = path[:i]
	}
	for _, rule := range r.rules {
		if strings.HasPrefix(path, rule.prefix) {
			return rule.maxStates
		}
	}
	return 0
}

// ApplyTo caps crawl options at the granularity advertised for a URL:
// the effective MaxStates is the smaller of the crawler's own budget and
// the site's advertised one.
func (r *AjaxRobots) ApplyTo(opts Options, url string) Options {
	limit := r.MaxStates(url)
	if limit == 0 {
		return opts
	}
	effective := opts.withDefaults()
	if limit < effective.MaxStates {
		effective.MaxStates = limit
	}
	return effective
}
