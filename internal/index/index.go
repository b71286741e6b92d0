// Package index implements the state-granular inverted file of thesis
// chapter 5: every posting points at a (URL, state) pair rather than just
// a document, so query results can name the exact application state a
// keyword occurs in (Table 5.1). Positions are kept for term-proximity
// ranking, per-state token counts for tf, and per-state AJAXRank plus
// per-URL PageRank for the composite ranking formula 5.3.
//
// A shard is built in one pass over its application models (Build;
// AddGraph adds one more to an index) and holds each posting list in
// the delta+varint coding of its file, which Encode writes as it is —
// one index shard per ShardPages consecutive URLs of the crawl in the
// parallel architecture (ch. 6; see Sharder).
package index

import (
	"context"
	"encoding/binary"
	"math"
	"math/bits"
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
	Docs []DocInfo
	// Terms maps a term to its posting list as the shard file codes it
	// (codec.go), a capacity-capped run of one byte slab per index.
	Terms map[string][]byte
	// TotalStates is the number of indexed states across all docs — the
	// denominator universe of idf (states play the role of documents,
	// eq. 5.2).
	TotalStates int

	docByURL map[string]DocID
}

// Postings is a cursor over one term's posting list, in (doc, state)
// order; the zero value is an empty list.
type Postings struct {
	list  []byte // the current posting's TF position deltas, then the postings after it
	Doc   DocID
	State int32
	TF    int32 // the term's occurrences in the state
}

// Next advances to the next posting and reports whether there was one,
// stepping over the current one's positions without decoding them.
func (p *Postings) Next() bool {
	l := p.list
	for n := p.TF; n > 0; l = l[1:] {
		if l[0] < 0x80 {
			n--
		}
	}
	if len(l) >= 3 && l[0]|l[1]|l[2] < 0x80 { // the usual posting: three one-byte uvarints
		p.Doc, p.State, p.TF, p.list = p.Doc+DocID(l[0]), int32(l[1]), int32(l[2]), l[3:]
		return true
	}
	if len(l) == 0 {
		return false // p stays at the last posting: Next reports false again
	}
	delta, k := uvarint(l)
	state, k2 := uvarint(l[k:])
	n, k3 := uvarint(l[k+k2:])
	p.Doc, p.State, p.TF, p.list = p.Doc+DocID(delta), int32(state), int32(n), l[k+k2+k3:]
	return true
}

// Positions returns a reader at the current posting's first position.
func (p *Postings) Positions() Positions {
	r := Positions{rest: p.list, left: p.TF}
	r.Next()
	return r
}

// Positions reads one posting's positions, the term's token offsets in
// the state, in increasing order: Pos is the current one, -1 past the
// last.
type Positions struct {
	rest []byte
	left int32 // the positions not read yet
	Pos  int32
}

// Next advances to the next position.
func (r *Positions) Next() {
	if r.left == 0 {
		r.Pos = -1
		return
	}
	delta, k := uvarint(r.rest)
	r.rest, r.left, r.Pos = r.rest[k:], r.left-1, r.Pos+int32(delta)
}

// uvarint is binary.Uvarint for a list add wrote or load checked: no
// bound or truncation checks, so it inlines.
func uvarint(b []byte) (v uint64, n int) {
	for c := byte(0x80); c >= 0x80; n++ {
		c = b[n]
		v |= uint64(c&0x7f) << (7 * n)
	}
	return v, n
}

// uvarintLen returns the bytes binary.AppendUvarint takes for v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// cursor returns a cursor over the coded list run and its length.
func cursor(run []byte) (Postings, int) {
	df, k := binary.Uvarint(run)
	return Postings{list: run[k:]}, int(df)
}

// New returns an empty index.
func New() *Index {
	return &Index{
		Terms:    make(map[string][]byte),
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
	run  []byte // the term's list in the index: nil for a new term until pass 2
	df   int    // the postings of the term, the index's and the call's
	size int    // the bytes the call's postings take
	from DocID  // the doc of the index's last posting of the term
	last DocID  // the doc of the term's last posting so far
	pos  int32  // the term's last position in state seen
	n    int32  // the term's occurrences in state seen
	seen int32  // the last state, numbered from 1, the term occurred in
}

// add indexes graphs in two passes and returns the postings it added.
// Pass 1 scans each state once, lower-casing a mixed-case token into a
// reused buffer, gives each term an ID, records every token's ID and
// sizes each term's coded postings. Pass 2 carves every term's list from
// one byte slab (a term the index holds copies its list in first) and
// codes each state in two walks of its tokens: one counts a term's
// occurrences, the next writes its posting. State IDs are positions
// (AddState and the model decoder guarantee it), so the postings stay in
// (doc, state) order.
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
	var state int32
	for _, g := range graphs {
		states, doc := indexed(g), DocID(len(ix.Docs))
		// Grow leaves a graph without states its nil slices.
		info := DocInfo{
			URL:       g.URL,
			PageRank:  pageRank[g.URL],
			States:    len(states),
			StateLens: slices.Grow([]int32(nil), len(states)),
			AJAXRanks: slices.Grow([]float64(nil), len(states)),
			Texts:     slices.Grow([]string(nil), len(states)),
		}
		for sid, s := range states {
			state++
			start := len(b.toks)
			for sc := Scan(s.Text); sc.Next(); {
				id := b.id(ix, &sc)
				pos := int32(len(b.toks) - start)
				b.toks = append(b.toks, id)
				t := &b.terms[id]
				if t.seen != state {
					if t.n > 0 {
						t.size += uvarintLen(uint64(t.n))
					}
					t.seen, t.pos, t.n = state, 0, 0
					t.df++
					t.size += uvarintLen(uint64(doc-t.last)) + uvarintLen(uint64(sid))
					t.last = doc
				}
				t.size += uvarintLen(uint64(pos - t.pos))
				t.pos = pos
				t.n++
			}
			info.StateLens = append(info.StateLens, int32(len(b.toks)-start))
			info.AJAXRanks = append(info.AJAXRanks, AJAXRank(s.Depth))
			info.Texts = append(info.Texts, s.Text)
		}
		ix.TotalStates += len(states)
		ix.Docs = append(ix.Docs, info)
	}

	total := 0
	for i := range b.terms {
		t := &b.terms[i]
		_, k := binary.Uvarint(t.run) // a known term's list is copied in after the new length
		t.size += uvarintLen(uint64(t.n)) + uvarintLen(uint64(t.df)) + len(t.run) - k
		total += t.size
	}
	slab := make([]byte, total)
	for i := range b.terms {
		t := &b.terms[i]
		df, k := binary.Uvarint(t.run)
		run := binary.AppendUvarint(slab[:0:t.size], uint64(t.df))
		t.run, t.last, slab = append(run, t.run[k:]...), t.from, slab[t.size:]
		postings += t.df - int(df)
	}
	var off int32
	for d := firstDoc; d < len(ix.Docs); d++ {
		for sid, n := range ix.Docs[d].StateLens {
			toks := b.toks[off : off+n]
			state++ // pass 2 numbers its states past pass 1's
			for _, id := range toks {
				if t := &b.terms[id]; t.seen != state {
					t.seen, t.n = state, 1
				} else {
					t.n++
				}
			}
			state++
			for pos, id := range toks {
				t := &b.terms[id]
				if t.seen != state {
					t.seen, t.pos = state, 0
					t.run = binary.AppendUvarint(t.run, uint64(DocID(d)-t.last))
					t.run = binary.AppendUvarint(t.run, uint64(sid))
					t.run = binary.AppendUvarint(t.run, uint64(t.n))
					t.last = DocID(d)
				}
				t.run = binary.AppendUvarint(t.run, uint64(int32(pos)-t.pos))
				t.pos = int32(pos)
			}
			off += n
		}
	}

	if ix.Terms == nil {
		ix.Terms = make(map[string][]byte, len(b.terms))
	}
	for _, t := range b.terms {
		ix.Terms[t.key] = t.run
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
	run := ix.Terms[term]
	if run == nil && !sc.mixed {
		term = strings.Clone(term)
	}
	p, df := cursor(run)
	for p.Next() {
	}
	id := int32(len(b.terms))
	b.ids[term] = id
	b.terms = append(b.terms, termBuild{key: term, run: run, df: df, from: p.Doc, last: p.Doc})
	return id
}

// Lookup returns a cursor over the posting list of a term, which is
// sorted by (Doc, State) and empty when the term is absent.
func (ix *Index) Lookup(term string) Postings {
	p, _ := cursor(ix.Terms[strings.ToLower(term)])
	return p
}

// DF returns the number of states containing the term — the denominator
// of eq. 5.2.
func (ix *Index) DF(term string) int {
	_, df := cursor(ix.Terms[strings.ToLower(term)])
	return df
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
	for _, run := range ix.Terms {
		_, df := cursor(run)
		total += df
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
// returns is laid out exactly: every posting list is a run of one slab
// as long as its capacity, and Terms is sized to the vocabulary.
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
