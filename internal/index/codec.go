package index

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

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

// Save writes the index to a file.
func (ix *Index) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	if err := ix.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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

// Load reads an index from a file.
func Load(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("index: load: %w", err)
	}
	defer f.Close()
	return Decode(f)
}

func readIndex(d *codec.Decoder) *Index {
	d.Header(codecMagic, codecVersion, "re-publish the snapshot with ajaxcrawl -save-index")
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
	for i := 0; i < docs && d.Err() == nil; i++ {
		var doc DocInfo
		doc.URL = d.String()
		doc.PageRank = d.Float64()
		doc.States = d.Count("state")
		doc.StateLens = make([]int32, 0, codec.Prealloc(doc.States))
		for j := 0; j < doc.States && d.Err() == nil; j++ {
			n := d.Uvarint()
			if tokens += n; n > math.MaxInt32 || tokens > math.MaxUint32 {
				d.Fail(fmt.Errorf("states hold %d+ tokens, past the uint32 position offsets", tokens))
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
		ix.docByURL[doc.URL] = DocID(len(ix.Docs))
		ix.Docs = append(ix.Docs, doc)
	}
	ix.TotalStates = d.Count("total-state")

	terms := d.Count("term")
	ix.Terms = make(map[string][]Posting, codec.Prealloc(terms))
	ix.positions = make([]int32, 0, codec.Prealloc(int(tokens)))
	for i := 0; i < terms && d.Err() == nil; i++ {
		term := d.String()
		n := d.Count("posting")
		ps := make([]Posting, 0, codec.Prealloc(n))
		prevDoc := DocID(0)
		for j := 0; j < n && d.Err() == nil; j++ {
			prevDoc += DocID(d.Uvarint())
			p := Posting{Doc: prevDoc, State: int32(d.Count("state-id")), Off: uint32(len(ix.positions))}
			pc := d.Count("position")
			if uint64(len(ix.positions)+pc) > tokens {
				d.Fail(fmt.Errorf("more positions than the states' %d tokens", tokens))
			}
			prev := int32(0)
			for k := 0; k < pc && d.Err() == nil; k++ {
				delta := d.Uvarint()
				if delta > uint64(math.MaxInt32-prev) {
					d.Fail(fmt.Errorf("term %q: position past %d", term, math.MaxInt32))
				}
				prev += int32(delta)
				ix.positions = append(ix.positions, prev)
			}
			p.N = uint32(pc)
			ps = append(ps, p)
		}
		ix.Terms[term] = ps
	}
	if cap(ix.positions) > len(ix.positions) {
		ix.positions = slices.Clone(ix.positions)
	}
	return ix
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
