package index

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"ajaxcrawl/internal/codec"
)

// On-disk index format, the one codec of a shard file, written with
// internal/codec's primitives. It applies the standard IR compression
// tricks — delta-encoded, varint-coded posting
// lists — that the related-work chapter points at (web-graph/index
// compression):
//
//	magic "AJIX" | version u8
//	docCount varint
//	  per doc: url (len-prefixed), pagerank f64,
//	           states varint, stateLens varints, ajaxRanks f64s,
//	           texts (len-prefixed, one per state: the snippet source)
//	totalStates varint
//	termCount varint
//	  per term (sorted): term (len-prefixed), postingCount varint,
//	    per posting: docDelta varint, state varint,
//	                 posCount varint, positions as deltas varint
//
// Doc IDs within one term's posting list are ascending, so consecutive
// deltas are small; positions within one posting likewise. Floats are
// stored as their little-endian IEEE 754 bits, so scores survive a
// round trip exactly.

const (
	codecMagic = "AJIX"
	// codecVersion 1 rounded AJAXRanks through float32 and version 2
	// carried no state text; their files are refused.
	codecVersion = 3
)

// Encode writes the index to w.
func (ix *Index) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	e := codec.NewEncoder(bw)
	e.Header(codecMagic, codecVersion)
	e.Uvarint(uint64(len(ix.Docs)))
	for _, d := range ix.Docs {
		e.String(d.URL)
		e.Float64(d.PageRank)
		e.Uvarint(uint64(d.States))
		for _, l := range d.StateLens {
			e.Uvarint(uint64(l))
		}
		for _, r := range d.AJAXRanks {
			e.Float64(r)
		}
		for _, t := range d.Texts {
			e.String(t)
		}
	}
	e.Uvarint(uint64(ix.TotalStates))

	terms := make([]string, 0, len(ix.Terms))
	for t := range ix.Terms {
		terms = append(terms, t)
	}
	slices.Sort(terms)
	e.Uvarint(uint64(len(terms)))
	for _, t := range terms {
		e.String(t)
		ps := ix.Terms[t]
		e.Uvarint(uint64(len(ps)))
		prevDoc := DocID(0)
		for _, p := range ps {
			e.Uvarint(uint64(p.Doc - prevDoc))
			prevDoc = p.Doc
			e.Uvarint(uint64(p.State))
			e.Uvarint(uint64(p.N))
			prev := int32(0)
			for _, pos := range ix.Positions(p) {
				e.Uvarint(uint64(pos - prev))
				prev = pos
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("index: encode: %w", err)
	}
	return nil
}

// Decode reads one index from r. The bytes are untrusted — the serving
// daemon loads snapshots straight off disk — so counts are bounded,
// pre-allocations capped, the result validated before it is handed out,
// and any panic the decoder raises on corrupt input converted to an
// error. Every posting's positions are appended to the one slab, so the
// allocations follow the terms and docs, not the postings.
func Decode(r io.Reader) (ix *Index, err error) {
	defer codec.Contain(&err, "index: decode")
	d := codec.NewDecoder(r)
	ix = readIndex(d)
	if d.Err() != nil {
		return nil, fmt.Errorf("index: decode: %w", d.Err())
	}
	if err := ix.validate(); err != nil {
		return nil, err
	}
	return ix, nil
}

const republish = "re-publish the snapshot with ajaxcrawl -out" // the remedy for a file from another build

func readIndex(d *codec.Decoder) *Index {
	d.Header(codecMagic, codecVersion, republish)
	if d.Err() != nil {
		return nil
	}

	docs := d.Count("doc")
	ix := &Index{
		Docs:     make([]DocInfo, 0, codec.Prealloc(docs)),
		docByURL: make(map[string]DocID, codec.Prealloc(docs)),
	}
	// A valid index has one position per token: tokens bounds the slab.
	tokens := uint64(0)
	if url, _ := ix.readDocs(d, docs, &tokens); url != "" {
		d.Fail(fmt.Errorf("URL %q repeated", url))
	}
	ix.TotalStates = d.Count("total-state")

	terms := d.Count("term")
	ix.Terms = make(map[string][]Posting, codec.Prealloc(terms))
	ix.positions = make([]int32, 0, codec.Prealloc(int(tokens)))
	for i := 0; i < terms && d.Err() == nil; i++ {
		term := d.String()
		if _, ok := ix.Terms[term]; ok {
			d.Fail(fmt.Errorf("term %q repeated", term))
		}
		n := d.Count("posting")
		ix.Terms[term], ix.positions = readPostings(d, term, n, 0, DocID(len(ix.Docs)), tokens,
			make([]Posting, 0, codec.Prealloc(n)), ix.positions)
	}
	if cap(ix.positions) > len(ix.positions) {
		ix.positions = slices.Clone(ix.positions)
	}
	return ix
}

// readDocs appends a docs section's docs docs to ix, adding their token
// counts to *tokens, which must fit the slab's uint32 offsets. It stops at
// the first URL ix already holds, returning it and its doc ("" if none).
func (ix *Index) readDocs(d *codec.Decoder, docs int, tokens *uint64) (repeated string, first DocID) {
	for i := 0; i < docs && d.Err() == nil; i++ {
		var doc DocInfo
		doc.URL = d.String()
		doc.PageRank = d.Float64()
		doc.States = d.Count("state")
		doc.StateLens = make([]int32, 0, codec.Prealloc(doc.States))
		for j := 0; j < doc.States && d.Err() == nil; j++ {
			n := d.Uvarint()
			if *tokens += n; n > math.MaxInt32 || *tokens > math.MaxUint32 {
				d.Fail(fmt.Errorf("states hold %d+ tokens, past the uint32 position offsets", *tokens))
			}
			doc.StateLens = append(doc.StateLens, int32(n))
		}
		doc.AJAXRanks = make([]float64, 0, codec.Prealloc(doc.States))
		for j := 0; j < doc.States && d.Err() == nil; j++ {
			doc.AJAXRanks = append(doc.AJAXRanks, d.Float64())
		}
		doc.Texts = make([]string, 0, codec.Prealloc(doc.States))
		for j := 0; j < doc.States && d.Err() == nil; j++ {
			doc.Texts = append(doc.Texts, d.String())
		}
		if first, ok := ix.docByURL[doc.URL]; ok {
			return doc.URL, first
		}
		ix.docByURL[doc.URL] = DocID(len(ix.Docs))
		ix.Docs = append(ix.Docs, doc)
	}
	return "", 0
}

// readPostings reads term's n postings, whose docs lie in [doc, end),
// appends them to list and their positions to pos, which may hold limit
// positions, and returns both. A posting's Off is its offset in pos.
func readPostings(d *codec.Decoder, term string, n int, doc, end DocID, limit uint64, list []Posting, pos []int32) ([]Posting, []int32) {
	for j := 0; j < n && d.Err() == nil; j++ {
		if delta := d.Uvarint(); delta >= uint64(end-doc) {
			d.Fail(fmt.Errorf("term %q: posting doc past the %d docs", term, end))
		} else {
			doc += DocID(delta)
		}
		p := Posting{Doc: doc, State: int32(d.Count("state-id")), Off: uint32(len(pos))}
		pc := d.Count("position")
		if pc == 0 || uint64(len(pos)+pc) > limit {
			d.Fail(fmt.Errorf("a posting of %d positions, outside 1..%d", pc, limit-uint64(len(pos))))
		}
		prev := int32(0)
		for k := 0; k < pc && d.Err() == nil; k++ {
			delta := d.Uvarint()
			if delta > uint64(math.MaxInt32-prev) {
				d.Fail(fmt.Errorf("term %q: position past %d", term, math.MaxInt32))
			}
			prev += int32(delta)
			pos = append(pos, prev)
		}
		p.N = uint32(pc)
		list = append(list, p)
	}
	return list, pos
}

// mergeTerm is a term of loadFiles' union vocabulary. Pass 1 counts its
// postings (df) and positions (in end); pass 2 fills its list, postings
// [off, off+df) of the posting slab, up to off+fill, and its positions
// from next up to end. Every posting holds a position and positions fit
// uint32 offsets, so every count does too.
type mergeTerm struct {
	key                      string
	off, df, fill, next, end uint32
	file                     int32 // the last file, numbered from 1, that listed the term
}

// loadFiles decodes m's shard files, each checked against its manifest
// entry, in manifest order straight into one index: a file's doc IDs are
// offset by the docs before it, and a term's list is the files' lists
// concatenated. Pass 1 reads each file's docs, state texts included, into
// the index and counts its postings through scratch; pass 2 fills one
// posting and one positions slab of exactly those counts from each file's
// term section. Decode's bounds hold, the token bound over all files.
func loadFiles(dir string, m *Manifest) (*Index, error) {
	if e := m.Shards[0]; len(m.Shards) == 1 {
		var ix *Index
		f, err := os.Open(filepath.Join(dir, e.File))
		if err == nil {
			ix, err = Decode(f)
			f.Close()
		}
		if err == nil {
			err = e.check(ix.NumDocs(), ix.TotalStates, ix.NumTerms())
		}
		if err != nil {
			return nil, fmt.Errorf("index: snapshot shard %s: %w", e.File, err)
		}
		return ix, nil
	}
	ix := &Index{
		Docs:     make([]DocInfo, 0, codec.Prealloc(max(m.TotalDocs, 0))),
		docByURL: make(map[string]DocID, codec.Prealloc(max(m.TotalDocs, 0))),
	}
	// A term is looked up by its bytes in the read buffer, so only its
	// first sighting allocates; seq keeps each file's terms in file order,
	// so pass 2 compares instead of looking up.
	vocab := make(map[string]*mergeTerm, codec.Prealloc(max(m.TotalTerms, 0)))
	seq := make([][]*mergeTerm, len(m.Shards))
	br := bufio.NewReader(nil)
	scratch, positions := []Posting(nil), []int32(nil)
	base := make([]DocID, len(m.Shards)+1) // file i holds docs [base[i], base[i+1])
	at := make([]int64, len(m.Shards))     // where file i's term section starts
	tokens, postings, total := uint64(0), 0, 0
	for i, e := range m.Shards {
		var states int
		err := scanFile(br, filepath.Join(dir, e.File), 0, func(d *codec.Decoder, offset func() int64) {
			d.Header(codecMagic, codecVersion, republish)
			left := tokens
			if url, first := ix.readDocs(d, d.Count("doc"), &tokens); url != "" {
				j := sort.Search(i, func(j int) bool { return base[j+1] > first })
				d.Fail(fmt.Errorf("URL %q is also in %s", url, m.Shards[j].File))
			}
			left, base[i+1] = tokens-left, DocID(len(ix.Docs))
			states = d.Count("total-state")
			at[i] = offset()
			n := d.Count("term")
			seq[i] = make([]*mergeTerm, 0, codec.Prealloc(n))
			for k := 0; k < n && d.Err() == nil; k++ {
				key := d.Key()
				t := vocab[string(key)]
				if t == nil {
					t = &mergeTerm{key: string(key)}
					vocab[t.key] = t
				}
				if t.file == int32(i+1) {
					d.Fail(fmt.Errorf("term %q repeated", t.key))
				}
				np := d.Count("posting")
				scratch, positions = readPostings(d, t.key, np, base[i], base[i+1], left, scratch[:0], positions[:0])
				t.file, t.df, t.end = int32(i+1), t.df+uint32(np), t.end+uint32(len(positions))
				left -= uint64(len(positions))
				postings, total = postings+np, total+len(positions)
				seq[i] = append(seq[i], t)
			}
		})
		if err == nil {
			err = e.check(int(base[i+1]-base[i]), states, len(seq[i]))
		}
		if err != nil {
			return nil, fmt.Errorf("index: snapshot shard %s: %w", e.File, err)
		}
		ix.TotalStates += states
	}

	var off, run uint32
	for _, t := range vocab {
		t.off, t.next, t.end = off, run, run+t.end
		off, run = off+t.df, t.end
	}
	terms := len(vocab)
	vocab = nil // pass 2 finds each file's terms in seq
	slab := make([]Posting, postings)
	ix.positions = make([]int32, total)
	changed := fmt.Errorf("the file changed while it loaded")
	for i, e := range m.Shards {
		err := scanFile(br, filepath.Join(dir, e.File), at[i], func(d *codec.Decoder, _ func() int64) {
			n := d.Count("term")
			for k := 0; k < n && d.Err() == nil; k++ {
				if k >= len(seq[i]) || string(d.Key()) != seq[i][k].key {
					d.Fail(changed)
					break
				}
				t, np := seq[i][k], d.Count("posting")
				if np > int(t.df-t.fill) {
					d.Fail(changed)
					break
				}
				list, pos := readPostings(d, t.key, np, base[i], base[i+1], uint64(t.end),
					slab[t.off:t.off+t.fill:t.off+t.df], ix.positions[:t.next])
				postings, total = postings-np, total-(len(pos)-int(t.next))
				t.fill, t.next = uint32(len(list)), uint32(len(pos))
			}
		})
		if err != nil {
			return nil, fmt.Errorf("index: snapshot shard %s: %w", e.File, err)
		}
	}
	if postings != 0 || total != 0 { // a term's count changed between the passes
		return nil, fmt.Errorf("index: snapshot: a shard file changed while it loaded")
	}
	ix.Terms = make(map[string][]Posting, terms)
	for _, file := range seq {
		for _, t := range file {
			ix.Terms[t.key] = slab[t.off : t.off+t.df : t.off+t.df]
		}
	}
	if err := ix.validate(); err != nil {
		return nil, err
	}
	return ix, nil
}

// scanFile runs read on a decoder over path from byte off, reading
// through br; offset reports where the decoder is in the file. A decoder
// panic comes back as an error.
func scanFile(br *bufio.Reader, path string, off int64, read func(d *codec.Decoder, offset func() int64)) (err error) {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("index: load: %w", err)
	}
	defer f.Close()
	defer codec.Contain(&err, "index: decode")
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return fmt.Errorf("index: load: %w", err)
	}
	br.Reset(f)
	d := codec.NewDecoder(br)
	read(d, func() int64 {
		pos, _ := f.Seek(0, io.SeekCurrent)
		return pos - int64(br.Buffered())
	})
	if d.Err() != nil {
		return fmt.Errorf("index: decode: %w", d.Err())
	}
	return nil
}

// validate checks the structural invariants query evaluation relies on,
// so a corrupt or adversarial snapshot surfaces as a load error instead
// of an out-of-range panic, a non-finite score or a phantom result in
// the middle of a search: per-doc state metadata (lengths, ranks, texts)
// is consistent, every rank is finite, every posting points at a real
// state of a real document, and its positions are at least one, strictly
// increasing and inside the state's tokens.
func (ix *Index) validate() error {
	if ix.TotalStates < 0 {
		return fmt.Errorf("index: validate: negative TotalStates %d", ix.TotalStates)
	}
	states := 0
	for i, d := range ix.Docs {
		if d.States < 0 || d.States != len(d.StateLens) || d.States != len(d.AJAXRanks) || d.States != len(d.Texts) {
			return fmt.Errorf("index: validate: doc %d (%s): States=%d, len(StateLens)=%d, len(AJAXRanks)=%d, len(Texts)=%d",
				i, d.URL, d.States, len(d.StateLens), len(d.AJAXRanks), len(d.Texts))
		}
		if !finite(d.PageRank) {
			return fmt.Errorf("index: validate: doc %d (%s): PageRank %v", i, d.URL, d.PageRank)
		}
		for j, r := range d.AJAXRanks {
			if !finite(r) {
				return fmt.Errorf("index: validate: doc %d (%s): state %d AJAXRank %v", i, d.URL, j, r)
			}
		}
		states += d.States
	}
	if states != ix.TotalStates {
		return fmt.Errorf("index: validate: TotalStates=%d but docs sum to %d", ix.TotalStates, states)
	}
	for term, ps := range ix.Terms {
		for _, p := range ps {
			if int(p.Doc) < 0 || int(p.Doc) >= len(ix.Docs) {
				return fmt.Errorf("index: validate: term %q: posting doc %d out of range [0,%d)", term, p.Doc, len(ix.Docs))
			}
			d := &ix.Docs[p.Doc]
			if p.State < 0 || int(p.State) >= d.States {
				return fmt.Errorf("index: validate: term %q: doc %d state %d out of range [0,%d)", term, p.Doc, p.State, d.States)
			}
			if p.N == 0 {
				return fmt.Errorf("index: validate: term %q: posting for doc %d has no positions", term, p.Doc)
			}
			prev := int32(-1)
			for _, pos := range ix.Positions(p) {
				if pos <= prev || pos >= d.StateLens[p.State] {
					return fmt.Errorf("index: validate: term %q: doc %d state %d: positions not increasing in [0,%d)", term, p.Doc, p.State, d.StateLens[p.State])
				}
				prev = pos
			}
		}
	}
	return nil
}

// finite reports whether x is neither NaN nor ±Inf: scores must marshal
// to JSON.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
