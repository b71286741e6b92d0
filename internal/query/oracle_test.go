package query

import (
	"strings"

	"ajaxcrawl/internal/index"
)

// snippetOracle is Snippet as it was before the scan-based rewrite: it
// tokenizes the whole text into a slice, indexes term positions in maps,
// and finds the window with the classic pointer-advance algorithm over
// position lists. The differential and fuzz tests hold the scan-based
// Snippet, and the streaming minimalWindow under both of its callers,
// to these bytes.
func snippetOracle(text, queryStr string, opts SnippetOptions) string {
	opts = opts.withDefaults()
	terms := Parse(queryStr)
	if len(terms) == 0 {
		return ""
	}
	want := make(map[string]bool, len(terms))
	for _, t := range terms {
		want[t] = true
	}
	tokens := index.Tokenize(text)
	positions := make(map[string][]int)
	for pos, tok := range tokens {
		if want[tok] {
			positions[tok] = append(positions[tok], pos)
		}
	}
	if len(positions) == 0 {
		return ""
	}
	var lists [][]int
	for _, t := range terms {
		if ps := positions[t]; len(ps) > 0 {
			lists = append(lists, ps)
		}
	}
	lo, hi := windowOracle(lists)

	span := hi - lo + 1
	pad := (opts.MaxTokens - span) / 2
	if pad < 0 {
		pad = 0
	}
	start := lo - pad
	if start < 0 {
		start = 0
	}
	end := start + opts.MaxTokens
	if end > len(tokens) {
		end = len(tokens)
		if start = end - opts.MaxTokens; start < 0 {
			start = 0
		}
	}

	var b strings.Builder
	if start > 0 {
		b.WriteString("... ")
	}
	for i := start; i < end; i++ {
		if i > start {
			b.WriteByte(' ')
		}
		if want[tokens[i]] {
			b.WriteString(opts.HighlightPre)
			b.WriteString(tokens[i])
			b.WriteString(opts.HighlightPost)
		} else {
			b.WriteString(tokens[i])
		}
	}
	if end < len(tokens) {
		b.WriteString(" ...")
	}
	return b.String()
}

// windowOracle returns the bounds of the smallest window containing one
// entry from every list (non-empty, sorted), the earliest on ties.
func windowOracle(lists [][]int) (lo, hi int) {
	ptr := make([]int, len(lists))
	bestLo, bestHi := lists[0][0], lists[0][0]
	bestSpan := int(^uint(0) >> 1)
	for {
		curLo, curHi := int(^uint(0)>>1), -1
		loIdx := -1
		for i, ps := range lists {
			p := ps[ptr[i]]
			if p < curLo {
				curLo, loIdx = p, i
			}
			if p > curHi {
				curHi = p
			}
		}
		if span := curHi - curLo; span < bestSpan {
			bestSpan, bestLo, bestHi = span, curLo, curHi
		}
		ptr[loIdx]++
		if ptr[loIdx] >= len(lists[loIdx]) {
			return bestLo, bestHi
		}
	}
}
