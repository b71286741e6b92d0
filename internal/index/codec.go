package index

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"ajaxcrawl/internal/codec"
)

// On-disk index format, the one codec of a shard file, written with
// internal/codec's primitives. It applies the standard IR compression
// tricks — delta-encoded, varint-coded posting lists — that the
// related-work chapter points at (web-graph/index compression):
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
// A term's postingCount and postings are the list Index.Terms holds.
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
		e.Fixed(ix.Terms[t]) // the list is held as the file codes it
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("index: encode: %w", err)
	}
	return nil
}

// Decode reads one index from r: its bytes are the one file of load,
// whose bounds and checks they pass.
func Decode(r io.Reader) (*Index, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("index: decode: %w", err)
	}
	return load(nil, 1, func(int) (io.ReadSeeker, error) { return bytes.NewReader(buf.Bytes()), nil })
}

const republish = "re-publish the snapshot with ajaxcrawl -out" // the remedy for a file from another build

// readDocs appends a docs section's docs docs to ix, adding their token
// counts to *tokens, which must fit a uint32, and returns their states.
// Every rank must be finite: scores must marshal to JSON. It stops at
// the first URL ix already holds, returning it and its doc ("" if none).
func (ix *Index) readDocs(d *codec.Decoder, docs int, tokens *uint64) (states int, repeated string, first DocID) {
	ix.Docs = slices.Grow(ix.Docs, codec.Prealloc(docs))
	for i := 0; i < docs && d.Err() == nil; i++ {
		var doc DocInfo
		doc.URL = d.String()
		doc.PageRank = d.Float64()
		doc.States = d.Count("state")
		doc.StateLens = make([]int32, 0, codec.Prealloc(doc.States))
		for j := 0; j < doc.States && d.Err() == nil; j++ {
			n := d.Uvarint()
			if *tokens += n; n > math.MaxInt32 || *tokens > math.MaxUint32 {
				d.Fail(fmt.Errorf("states hold %d+ tokens, past uint32", *tokens))
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
		if !finite(doc.PageRank) || slices.ContainsFunc(doc.AJAXRanks, func(r float64) bool { return !finite(r) }) {
			d.Fail(fmt.Errorf("doc %d (%s): a rank is not finite", len(ix.Docs), doc.URL))
		}
		if first, ok := ix.docByURL[doc.URL]; ok {
			return states, doc.URL, first
		}
		ix.docByURL[doc.URL] = DocID(len(ix.Docs))
		ix.Docs, states = append(ix.Docs, doc), states+doc.States
	}
	return states, "", 0
}

// readList appends term's n postings, whose docs lie in [doc, end), to
// run, the first doc delta re-coded against prev, the list's doc before
// them, and returns run and the last doc. It checks each posting: its
// state is one of its doc's, and its positions, which *left must still
// hold, are at least one, strictly increasing and inside the state.
func (ix *Index) readList(d *codec.Decoder, term string, n int, doc, end DocID, left *uint64, run []byte, prev DocID) ([]byte, DocID) {
	for j := 0; j < n && d.Err() == nil; j++ {
		if delta := d.Uvarint(); delta >= uint64(end-doc) {
			d.Fail(fmt.Errorf("term %q: posting doc past the %d docs", term, end))
			break
		} else {
			doc += DocID(delta)
		}
		info := &ix.Docs[doc]
		state := d.Count("state-id")
		if state >= info.States {
			d.Fail(fmt.Errorf("term %q: doc %d state %d out of range [0,%d)", term, doc, state, info.States))
			break
		}
		pc := d.Count("position")
		if pc == 0 || uint64(pc) > *left {
			d.Fail(fmt.Errorf("term %q: a posting of %d positions, outside 1..%d", term, pc, *left))
			break
		}
		*left -= uint64(pc)
		run = binary.AppendUvarint(run, uint64(doc-prev))
		run = binary.AppendUvarint(run, uint64(state))
		run = binary.AppendUvarint(run, uint64(pc))
		prev = doc
		at, tokens := int32(0), info.StateLens[state]
		for k := 0; k < pc && d.Err() == nil; k++ {
			delta := d.Uvarint()
			if (k > 0 && delta == 0) || delta >= uint64(tokens-at) {
				d.Fail(fmt.Errorf("term %q: doc %d state %d: positions not increasing in [0,%d)", term, doc, state, tokens))
				break
			}
			at += int32(delta)
			run = binary.AppendUvarint(run, delta)
		}
	}
	return run, prev
}

// mergeTerm is a term of load's union vocabulary. Pass 1 counts its
// postings (df) and sizes its list; pass 2 writes the list, bytes
// [off, off+size) of the slab, up to off+fill, counting df down to 0.
type mergeTerm struct {
	key                 string
	df, off, size, fill int
	last                DocID
	file                int32 // the last file, numbered from 1, that listed the term
}

// load decodes n index files, file i opened by open(i), in order into
// one index: a file's doc IDs are offset by the docs before it, and a
// term's list is the files' parts concatenated, each part's first doc
// delta re-coded at the seam. The bytes are untrusted, so counts are
// bounded, pre-allocations capped, every doc and posting checked as it
// is read, and a decoder panic turned into an error. Pass 1 reads each
// file's docs into the index and its postings to size each term's list;
// pass 2 writes the lists into one slab of exactly that size. The token
// bound spans the files. A non-nil m's i-th shard is file i, checked.
func load(m *Manifest, n int, open func(i int) (io.ReadSeeker, error)) (*Index, error) {
	var docs, terms int
	if m != nil {
		docs, terms = max(m.TotalDocs, 0), max(m.TotalTerms, 0)
	}
	ix := &Index{
		Docs:     make([]DocInfo, 0, codec.Prealloc(docs)),
		docByURL: make(map[string]DocID, codec.Prealloc(docs)),
	}
	fail := func(i int, err error) (*Index, error) {
		if m != nil {
			err = fmt.Errorf("index: snapshot shard %s: %w", m.Shards[i].File, err)
		}
		return nil, err
	}
	// A term is looked up by its bytes in the read buffer, so only its
	// first sighting allocates; seq keeps each file's terms in file order,
	// so pass 2 compares instead of looking up.
	var vocab map[string]*mergeTerm // sized at the first file's terms
	var free []mergeTerm            // the next terms' slots
	seq := make([][]*mergeTerm, n)
	br := bufio.NewReader(nil)
	var scratch []byte
	base := make([]DocID, n+1)    // file i holds docs [base[i], base[i+1])
	at := make([]int64, n)        // where file i's term section starts
	tokens := make([]uint64, n+1) // the files before i hold tokens[i]
	for i := range n {
		var states int
		err := scanFile(br, open, i, 0, func(d *codec.Decoder, offset func() int64) {
			d.Header(codecMagic, codecVersion, republish)
			tokens[i+1] = tokens[i]
			held, url, first := ix.readDocs(d, d.Count("doc"), &tokens[i+1])
			if url != "" && m == nil {
				d.Fail(fmt.Errorf("URL %q repeated", url))
			} else if url != "" {
				j := sort.Search(i, func(j int) bool { return base[j+1] > first })
				d.Fail(fmt.Errorf("URL %q is also in %s", url, m.Shards[j].File))
			}
			base[i+1] = DocID(len(ix.Docs))
			if states = d.Count("total-state"); states != held {
				d.Fail(fmt.Errorf("%d total states, its docs hold %d", states, held))
			}
			at[i] = offset()
			nt := d.Count("term")
			if vocab == nil {
				vocab = make(map[string]*mergeTerm, codec.Prealloc(max(terms, nt)))
			}
			seq[i] = make([]*mergeTerm, 0, codec.Prealloc(nt))
			left := tokens[i+1] - tokens[i]
			for k := 0; k < nt && d.Err() == nil; k++ {
				key := d.Key()
				t := vocab[string(key)]
				if t == nil {
					if len(free) == 0 {
						free = make([]mergeTerm, 256)
					}
					t, free = &free[0], free[1:]
					t.key = string(key)
					vocab[t.key] = t
				}
				if t.file == int32(i+1) {
					d.Fail(fmt.Errorf("term %q repeated", t.key))
				}
				np := d.Count("posting")
				scratch, t.last = ix.readList(d, t.key, np, base[i], base[i+1], &left, scratch[:0], t.last)
				t.file, t.df, t.size = int32(i+1), t.df+np, t.size+len(scratch)
				seq[i] = append(seq[i], t)
			}
		})
		if err == nil && m != nil {
			err = m.Shards[i].check(int(base[i+1]-base[i]), states, len(seq[i]))
		}
		if err != nil {
			return fail(i, err)
		}
		ix.TotalStates += states
	}

	size := 0
	for _, t := range vocab {
		t.size += uvarintLen(uint64(t.df))
		t.off, t.last, size = size, 0, size+t.size
	}
	terms = len(vocab)
	vocab = nil // pass 2 finds each file's terms in seq
	slab := make([]byte, size)
	changed := fmt.Errorf("the file changed while it loaded")
	for i := range n {
		err := scanFile(br, open, i, at[i], func(d *codec.Decoder, _ func() int64) {
			nt := d.Count("term")
			left := tokens[i+1] - tokens[i]
			for k := 0; k < nt && d.Err() == nil; k++ {
				if k >= len(seq[i]) || string(d.Key()) != seq[i][k].key {
					d.Fail(changed)
					break
				}
				t, np := seq[i][k], d.Count("posting")
				run := slab[t.off : t.off+t.fill : t.off+t.size]
				if t.fill == 0 {
					run = binary.AppendUvarint(run, uint64(t.df))
				}
				run, t.last = ix.readList(d, t.key, np, base[i], base[i+1], &left, run, t.last)
				if len(run) > t.size { // append left the slab
					d.Fail(changed)
					break
				}
				t.fill, t.df = len(run), t.df-np
			}
		})
		if err != nil {
			return fail(i, err)
		}
	}
	ix.Terms = make(map[string][]byte, terms)
	for _, file := range seq {
		for _, t := range file {
			if t.fill != t.size || t.df != 0 { // a term's part changed between the passes
				return nil, fmt.Errorf("index: snapshot: a shard file changed while it loaded")
			}
			ix.Terms[t.key] = slab[t.off : t.off+t.size : t.off+t.size]
		}
	}
	return ix, nil
}

// scanFile runs read on a decoder over file i from byte off, reading
// through br; offset reports where the decoder is in the file. A decoder
// panic comes back as an error.
func scanFile(br *bufio.Reader, open func(int) (io.ReadSeeker, error), i int, off int64, read func(d *codec.Decoder, offset func() int64)) (err error) {
	f, err := open(i)
	if err != nil {
		return fmt.Errorf("index: load: %w", err)
	}
	if c, ok := f.(io.Closer); ok {
		defer c.Close()
	}
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

// finite reports whether x is neither NaN nor ±Inf: scores must marshal
// to JSON.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
