package query

import (
	"bytes"
	"strings"
	"testing"

	"ajaxcrawl/internal/index"
	"ajaxcrawl/internal/model"
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

// textSource is the snippet source the serving tier built before state
// text moved into the shard file: a (url, state) lookup over the decoded
// application models, "" for unknown pairs. Broker.StateText is held to
// it.
func textSource(graphs []*model.Graph) func(url string, state int) string {
	byURL := make(map[string]*model.Graph, len(graphs))
	for _, g := range graphs {
		byURL[g.URL] = g
	}
	return func(url string, state int) string {
		if g := byURL[url]; g != nil {
			if st := g.State(model.StateID(state)); st != nil {
				return st.Text
			}
		}
		return ""
	}
}

// TestStateTextMatchesModels: over the crawled corpus, indexed whole and
// with a state limit, Broker.StateText returns the models' text for every
// indexed (url, state), in process and after an Encode/Decode, and "" for
// a state or URL the index does not hold.
func TestStateTextMatchesModels(t *testing.T) {
	graphs, err := corpusGraphs()
	if err != nil {
		t.Fatal(err)
	}
	oracle := textSource(graphs)
	for _, maxStates := range []int{0, 3} {
		ix := index.Build(graphs, nil, maxStates)
		var buf bytes.Buffer
		if err := ix.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		decoded, err := index.Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for name, b := range map[string]*Broker{"in process": NewBroker(ix), "decoded": NewBroker(decoded)} {
			indexed, skipped := 0, 0
			for _, g := range graphs {
				for _, s := range g.States {
					url, state := g.URL, int(s.ID)
					got := b.StateText(url, state)
					if maxStates > 0 && state >= maxStates {
						if got != "" {
							t.Fatalf("maxStates=%d %s: unindexed %s state %d has text %q", maxStates, name, url, state, got)
						}
						skipped++
						continue
					}
					indexed++
					if want := oracle(url, state); got != want {
						t.Fatalf("maxStates=%d %s: %s state %d: got %q, want %q", maxStates, name, url, state, got, want)
					}
				}
			}
			if indexed != b.Index.TotalStates {
				t.Fatalf("maxStates=%d %s: checked %d states, the index holds %d", maxStates, name, indexed, b.Index.TotalStates)
			}
			if maxStates > 0 && skipped == 0 {
				t.Fatalf("maxStates=%d: no graph has a state past the limit", maxStates)
			}
			if got := b.StateText("site/watch?v=absent", 0); got != "" {
				t.Fatalf("%s: unknown URL has text %q", name, got)
			}
		}
	}
}
