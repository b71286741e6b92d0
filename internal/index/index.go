// Package index implements the state-granular inverted file of thesis
// chapter 5: every posting points at a (URL, state) pair rather than just
// a document, so query results can name the exact application state a
// keyword occurs in (Table 5.1). Positions are kept for term-proximity
// ranking, per-state token counts for tf, and per-state AJAXRank plus
// per-URL PageRank for the composite ranking formula 5.3.
//
// Indexes are built incrementally, one application model at a time
// (AddGraph), and serialize to disk in a delta+varint format (Encode) —
// one index shard per ShardPages consecutive URLs of the crawl in the
// parallel architecture (ch. 6; see Sharder).
package index

import (
	"context"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"ajaxcrawl/internal/model"
	"ajaxcrawl/internal/obs"
)

// DocID identifies a document (URL) within one index.
type DocID int32

// Posting records one state containing a term.
type Posting struct {
	Doc   DocID
	State model.StateID
	// Positions are the token offsets of the term within the state text.
	Positions []int32
}

// TF returns the raw term frequency in the state.
func (p Posting) TF() int { return len(p.Positions) }

// DocInfo is the per-URL metadata of the index.
type DocInfo struct {
	URL      string
	PageRank float64
	// States is the number of indexed states of this document.
	States int
	// StateLens holds the token count of each indexed state.
	StateLens []int32
	// AJAXRanks holds the AJAXRank of each indexed state.
	AJAXRanks []float64
	// Texts holds the visible text of each indexed state, which snippets
	// are cut from.
	Texts []string
}

// Index is one inverted-file shard.
type Index struct {
	Docs  []DocInfo
	Terms map[string][]Posting
	// TotalStates is the number of indexed states across all docs — the
	// denominator universe of idf (states play the role of documents,
	// eq. 5.2).
	TotalStates int

	docByURL map[string]DocID
}

// New returns an empty index.
func New() *Index {
	return &Index{
		Terms:    make(map[string][]Posting),
		docByURL: make(map[string]DocID),
	}
}

// ajaxRankDamping controls how AJAXRank decays with the BFS depth of a
// state: deeper states (more clicks away) rank lower, following [20].
const ajaxRankDamping = 0.7

// AJAXRank returns the rank of a state at the given depth.
func AJAXRank(depth int) float64 {
	return math.Pow(ajaxRankDamping, float64(depth))
}

// AddGraph incrementally indexes one application model. Only states with
// ID < maxStates are indexed (maxStates <= 0 means all): state IDs are
// assigned in BFS discovery order, so this reproduces the thesis's
// "Max. State ID" index-building knob used by the threshold and recall
// experiments (§8.3.1, §7.7).
//
// A state's postings share one positions slab, carved by term in order of
// first occurrence; each Posting.Positions is a window capped at its own
// length, so an append to one copies instead of overwriting its neighbour.
// State IDs are positions (AddState and GobDecode guarantee it), so the
// postings, appended state by state, stay in (doc, state) order, and a
// state's ID indexes its StateLens, AJAXRanks and Texts entries.
func (ix *Index) AddGraph(g *model.Graph, pageRank float64, maxStates int) {
	if _, dup := ix.docByURL[g.URL]; dup {
		// Re-adding a URL would corrupt posting order; refuse silently
		// is worse than loud: panic signals a caller bug early.
		panic("index: AddGraph: duplicate URL " + g.URL)
	}
	doc := DocID(len(ix.Docs))
	// State IDs run 0, 1, ...: this many states will be indexed. Grow
	// leaves a graph without states its nil slices.
	states := len(g.States)
	if maxStates > 0 {
		states = min(states, maxStates)
	}
	info := DocInfo{
		URL:       g.URL,
		PageRank:  pageRank,
		StateLens: slices.Grow([]int32(nil), states),
		AJAXRanks: slices.Grow([]float64(nil), states),
		Texts:     slices.Grow([]string(nil), states),
	}
	ix.docByURL[g.URL] = doc

	// Scratch reused across the graph's states: the tokens, each token's
	// term ID within the state, and per term ID its span of the slab.
	var (
		tokens []string
		ids    []int32
		spans  []termSpan
		termID = make(map[string]int32)
	)
	for _, s := range g.States {
		if maxStates > 0 && int(s.ID) >= maxStates {
			continue
		}
		tokens = appendTokens(tokens[:0], s.Text)
		info.States++
		info.StateLens = append(info.StateLens, int32(len(tokens)))
		info.AJAXRanks = append(info.AJAXRanks, AJAXRank(s.Depth))
		info.Texts = append(info.Texts, s.Text)
		ix.TotalStates++
		clear(termID)
		ids, spans = ids[:0], spans[:0]
		for _, tok := range tokens {
			id, seen := termID[tok]
			if !seen {
				id = int32(len(spans))
				termID[tok] = id
				spans = append(spans, termSpan{term: tok})
			}
			spans[id].end++ // a count until the spans are laid out
			ids = append(ids, id)
		}
		var off int32
		for i := range spans {
			n := spans[i].end
			spans[i].start, spans[i].end = off, off
			off += n
		}
		slab := make([]int32, len(tokens))
		for pos, id := range ids {
			slab[spans[id].end] = int32(pos)
			spans[id].end++
		}
		for _, sp := range spans {
			term := sp.term
			ps, known := ix.Terms[term]
			if !known {
				// A token may be a substring of s.Text; the vocabulary
				// keeps its own copy, so Texts holds the one reference.
				term = strings.Clone(term)
			}
			ix.Terms[term] = append(ps, Posting{Doc: doc, State: s.ID, Positions: slab[sp.start:sp.end:sp.end]})
		}
	}
	ix.Docs = append(ix.Docs, info)
}

// termSpan is one term's window [start, end) of a state's positions slab.
type termSpan struct {
	term       string
	start, end int32
}

// Lookup returns the posting list of a term (nil when absent). The list
// is sorted by (Doc, State).
func (ix *Index) Lookup(term string) []Posting {
	return ix.Terms[strings.ToLower(term)]
}

// DF returns the number of states containing the term — the denominator
// of eq. 5.2.
func (ix *Index) DF(term string) int {
	return len(ix.Terms[strings.ToLower(term)])
}

// Doc returns the metadata of a document.
func (ix *Index) Doc(d DocID) DocInfo {
	return ix.Docs[d]
}

// StateText returns the visible text of one of d's indexed states, or ""
// when d indexes no such state.
func (ix *Index) StateText(d DocID, state model.StateID) string {
	if texts := ix.Docs[d].Texts; state >= 0 && int(state) < len(texts) {
		return texts[state]
	}
	return ""
}

// DocByURL resolves a URL to its DocID.
func (ix *Index) DocByURL(url string) (DocID, bool) {
	d, ok := ix.docByURL[url]
	return d, ok
}

// NumDocs returns the number of indexed documents.
func (ix *Index) NumDocs() int { return len(ix.Docs) }

// NumTerms returns the vocabulary size.
func (ix *Index) NumTerms() int { return len(ix.Terms) }

// NumPostings returns the total posting count across all terms — the
// size figure of the evaluation's index tables.
func (ix *Index) NumPostings() int {
	total := 0
	for _, ps := range ix.Terms {
		total += len(ps)
	}
	return total
}

// Build constructs an index over a set of graphs. pageRank may be nil
// (all zeros). maxStates limits states per page as in AddGraph.
func Build(graphs []*model.Graph, pageRank map[string]float64, maxStates int) *Index {
	return BuildCtx(context.Background(), graphs, pageRank, maxStates)
}

// BuildCtx is Build under a context: when the context carries a trace
// sink, the build is wrapped in an index.build span that records its
// posting count.
func BuildCtx(ctx context.Context, graphs []*model.Graph, pageRank map[string]float64, maxStates int) *Index {
	_, sp := obs.StartSpan(ctx, obs.SpanIndexBuild, obs.A("graphs", strconv.Itoa(len(graphs))))
	ix := New()
	for _, g := range graphs {
		ix.AddGraph(g, pageRank[g.URL], maxStates)
	}
	sp.SetAttr("postings", strconv.Itoa(ix.NumPostings()))
	sp.End(nil)
	return ix
}

// Scanner walks the tokens of a text — maximal runs of letters and
// digits — without allocating: a token stays a substring of the text and
// is lower-cased, rune by rune, only as it is compared or copied out.
// Tokenize collects its tokens; snippets scan state text with it.
type Scanner struct {
	text  string
	off   int    // next byte to read
	raw   string // the current token as the text spells it
	mixed bool   // raw holds a rune that lower-casing changes
}

// Scan returns a Scanner positioned before text's first token.
func Scan(text string) Scanner { return Scanner{text: text} }

// Next advances to the next token and reports whether there was one.
// Invalid UTF-8 decodes to U+FFFD byte by byte and so separates tokens.
func (s *Scanner) Next() bool {
	start, i := -1, s.off
	s.mixed = false
	for i < len(s.text) {
		r, size := rune(s.text[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(s.text[i:])
		}
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			s.mixed = s.mixed || unicode.ToLower(r) != r
		} else if start >= 0 {
			break
		}
		i += size
	}
	s.off = i
	if start >= 0 {
		s.raw = s.text[start:i]
	}
	return start >= 0
}

// AppendLower appends the current token, lower-cased, to dst.
func (s *Scanner) AppendLower(dst []byte) []byte {
	for _, r := range s.raw {
		dst = utf8.AppendRune(dst, unicode.ToLower(r))
	}
	return dst
}

// Is reports whether the current token, lower-cased, equals term.
func (s *Scanner) Is(term string) bool {
	if !s.mixed {
		return s.raw == term
	}
	var buf [64]byte // longer tokens spill to the heap
	return string(s.AppendLower(buf[:0])) == term
}

// Tokenize splits text into lower-case index terms: the Scanner's
// tokens, collected. Both indexing and query parsing use it, so the two
// sides always agree. A token the text spells in lower case is returned
// as a substring of it: clone one before keeping it past the text.
func Tokenize(text string) []string {
	n := 0
	for sc := Scan(text); sc.Next(); {
		n++
	}
	if n == 0 {
		return nil
	}
	return appendTokens(make([]string, 0, n), text)
}

// appendTokens appends the terms of text to dst.
func appendTokens(dst []string, text string) []string {
	for sc := Scan(text); sc.Next(); {
		// A token is valid UTF-8, so this is the rune-by-rune lowering.
		dst = append(dst, strings.ToLower(sc.raw))
	}
	return dst
}
