// Package index implements the state-granular inverted file of thesis
// chapter 5: every posting points at a (URL, state) pair rather than just
// a document, so query results can name the exact application state a
// keyword occurs in (Table 5.1). Positions are kept for term-proximity
// ranking, per-state token counts for tf, and per-state AJAXRank plus
// per-URL PageRank for the composite ranking formula 5.3.
//
// A shard is built in one pass over its application models (Build;
// AddGraph adds one more to an index) and serializes to disk in a
// delta+varint format (Encode) — one index shard per ShardPages
// consecutive URLs of the crawl in the parallel architecture (ch. 6; see
// Sharder).
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

// Posting records one state containing a term. Its positions, the
// token offsets of the term within the state text, are the N entries of
// the index's positions slab from Off (Index.Positions).
type Posting struct {
	Doc    DocID
	State  int32
	Off, N uint32
}

// TF returns the raw term frequency in the state.
func (p Posting) TF() int { return int(p.N) }

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

	docByURL  map[string]DocID
	positions []int32 // every posting's positions, each a run of N
}

// Positions returns p's positions in increasing order: a window of the
// index's slab, capped so an append to it copies.
func (ix *Index) Positions(p Posting) []int32 {
	return ix.positions[p.Off : p.Off+p.N : p.Off+p.N]
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
// experiments (§8.3.1, §7.7). It panics on a URL the index already holds.
func (ix *Index) AddGraph(g *model.Graph, pageRank float64, maxStates int) {
	ix.add(new(builder), []*model.Graph{g}, map[string]float64{g.URL: pageRank}, maxStates)
}

// builder is the scratch of add: the call's vocabulary and every indexed
// token's term ID. A Sharder keeps one across its shards.
type builder struct {
	ids   map[string]int32 // term → ID within the call
	terms []termBuild      // by ID
	toks  []int32          // the term ID of every indexed token, state by state
	lower []byte           // the current token, lower-cased
}

// termBuild is one term's scratch in an add call.
type termBuild struct {
	key  string
	list []Posting // nil for a term the index does not hold yet
	df   int32     // the call's postings of the term
	occ  int32     // the call's occurrences of the term
	seen int32     // the last state, numbered from 1, the term occurred in
	next int32     // the next free slot of the term's run in the call's positions
}

// add indexes graphs in two passes and returns the postings it added.
// Pass 1 scans each state once, lower-casing a mixed-case token into a
// reused buffer, gives each term an ID, records every token's ID and
// counts each term's postings and occurrences. Pass 2 carves the new
// terms' lists from one []Posting and grows the index's positions slab
// by the call's token count, in which each term's positions are one run,
// posting after posting. A term the index already holds keeps its list,
// grown once by the call. State IDs are positions (AddState and the
// model decoder guarantee it), so the postings stay in (doc, state) order
// and a state's ID indexes its StateLens, AJAXRanks and Texts entries.
func (ix *Index) add(b *builder, graphs []*model.Graph, pageRank map[string]float64, maxStates int) (postings int) {
	if ix.docByURL == nil {
		ix.docByURL = make(map[string]DocID, len(graphs))
	}
	for i, g := range graphs {
		if _, dup := ix.docByURL[g.URL]; dup {
			// Re-adding a URL would corrupt posting order; refuse silently
			// is worse than loud: panic signals a caller bug early.
			panic("index: duplicate URL " + g.URL)
		}
		ix.docByURL[g.URL] = DocID(len(ix.Docs) + i)
	}
	if b.ids == nil {
		b.ids = make(map[string]int32)
	}
	indexed := func(g *model.Graph) []*model.State {
		if maxStates > 0 && len(g.States) > maxStates {
			return g.States[:maxStates]
		}
		return g.States
	}
	// A token and its separator take two bytes at least.
	bound := 0
	for _, g := range graphs {
		for _, s := range indexed(g) {
			bound += (len(s.Text) + 1) / 2
		}
	}
	b.toks = slices.Grow(b.toks[:0], bound)

	firstDoc := len(ix.Docs)
	ix.Docs = slices.Grow(ix.Docs, len(graphs))
	var state, fresh int32
	for _, g := range graphs {
		states := indexed(g)
		// Grow leaves a graph without states its nil slices.
		info := DocInfo{
			URL:       g.URL,
			PageRank:  pageRank[g.URL],
			States:    len(states),
			StateLens: slices.Grow([]int32(nil), len(states)),
			AJAXRanks: slices.Grow([]float64(nil), len(states)),
			Texts:     slices.Grow([]string(nil), len(states)),
		}
		for _, s := range states {
			state++
			start := len(b.toks)
			for sc := Scan(s.Text); sc.Next(); {
				id := b.id(ix, &sc)
				b.toks = append(b.toks, id)
				t := &b.terms[id]
				if t.seen != state {
					t.seen = state
					t.df++
					if t.list == nil {
						fresh++
					}
				}
				t.occ++
			}
			info.StateLens = append(info.StateLens, int32(len(b.toks)-start))
			info.AJAXRanks = append(info.AJAXRanks, AJAXRank(s.Depth))
			info.Texts = append(info.Texts, s.Text)
		}
		ix.TotalStates += len(states)
		ix.Docs = append(ix.Docs, info)
	}

	slab := make([]Posting, fresh)
	var run int32
	for i := range b.terms {
		t := &b.terms[i]
		if t.list == nil {
			t.list, slab = slab[:0:t.df], slab[t.df:]
		} else {
			t.list = slices.Grow(t.list, int(t.df))
		}
		t.next, run = run, run+t.occ
		postings += int(t.df)
	}
	base := len(ix.positions)
	if uint64(base)+uint64(len(b.toks)) > math.MaxUint32 {
		panic("index: more positions than uint32 offsets address")
	}
	ix.positions = slices.Grow(ix.positions, len(b.toks))[:base+len(b.toks)]
	var off int32
	for d := firstDoc; d < len(ix.Docs); d++ {
		for sid, n := range ix.Docs[d].StateLens {
			state++ // pass 2 numbers its states past pass 1's
			for pos, id := range b.toks[off : off+n] {
				t := &b.terms[id]
				if t.seen != state {
					t.seen = state
					t.list = append(t.list, Posting{Doc: DocID(d), State: int32(sid), Off: uint32(base) + uint32(t.next)})
				}
				ix.positions[base+int(t.next)] = int32(pos)
				t.next++
				t.list[len(t.list)-1].N++
			}
			off += n
		}
	}

	if ix.Terms == nil {
		ix.Terms = make(map[string][]Posting, len(b.terms))
	}
	for _, t := range b.terms {
		ix.Terms[t.key] = t.list
	}
	// Drop the call's references: a Sharder's builder outlives its shards.
	clear(b.ids)
	clear(b.terms)
	b.terms = b.terms[:0]
	return postings
}

// id returns the current token's term ID in the call, adding the term on
// its first occurrence. A term new to the index gets its own copy of the
// token, so the vocabulary never points into a state's text.
func (b *builder) id(ix *Index, sc *Scanner) int32 {
	term := sc.raw
	if sc.mixed {
		b.lower = sc.AppendLower(b.lower[:0])
		if id, ok := b.ids[string(b.lower)]; ok {
			return id
		}
		term = string(b.lower)
	} else if id, ok := b.ids[term]; ok {
		return id
	}
	list := ix.Terms[term]
	if list == nil && !sc.mixed {
		term = strings.Clone(term)
	}
	id := int32(len(b.terms))
	b.ids[term] = id
	b.terms = append(b.terms, termBuild{key: term, list: list})
	return id
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

// Build constructs an index over a set of graphs of distinct URLs.
// pageRank may be nil (all zeros). maxStates limits states per page as in
// AddGraph.
func Build(graphs []*model.Graph, pageRank map[string]float64, maxStates int) *Index {
	return new(builder).build(context.Background(), graphs, pageRank, maxStates)
}

// build is Build on b's scratch, wrapped in an index.build span that
// records its posting count when ctx carries a trace sink. The index it
// returns is laid out exactly: every posting list is as long as its
// capacity, the positions are one slab of the states' token count, and
// Terms is sized to the vocabulary.
func (b *builder) build(ctx context.Context, graphs []*model.Graph, pageRank map[string]float64, maxStates int) *Index {
	_, sp := obs.StartSpan(ctx, obs.SpanIndexBuild, obs.A("graphs", strconv.Itoa(len(graphs))))
	ix := &Index{}
	postings := ix.add(b, graphs, pageRank, maxStates)
	sp.SetAttr("postings", strconv.Itoa(postings))
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
// tokens, collected. Query parsing uses it and indexing scans with the
// same Scanner, so the two sides always agree. A token the text spells
// in lower case is returned as a substring of it: clone one before
// keeping it past the text.
func Tokenize(text string) []string {
	n := 0
	for sc := Scan(text); sc.Next(); {
		n++
	}
	if n == 0 {
		return nil
	}
	toks := make([]string, 0, n)
	for sc := Scan(text); sc.Next(); {
		// A token is valid UTF-8, so this is the rune-by-rune lowering.
		toks = append(toks, strings.ToLower(sc.raw))
	}
	return toks
}
