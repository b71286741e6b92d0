package index

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"ajaxcrawl/internal/codec"
	"ajaxcrawl/internal/model"
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
			e.Uvarint(uint64(len(p.Positions)))
			prev := int32(0)
			for _, pos := range p.Positions {
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
// error.
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
	for i := 0; i < docs && d.Err() == nil; i++ {
		var doc DocInfo
		doc.URL = d.String()
		doc.PageRank = d.Float64()
		doc.States = d.Count("state")
		doc.StateLens = make([]int32, 0, codec.Prealloc(doc.States))
		for j := 0; j < doc.States && d.Err() == nil; j++ {
			doc.StateLens = append(doc.StateLens, int32(d.Uvarint()))
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
	for i := 0; i < terms && d.Err() == nil; i++ {
		term := d.String()
		n := d.Count("posting")
		ps := make([]Posting, 0, codec.Prealloc(n))
		prevDoc := DocID(0)
		for j := 0; j < n && d.Err() == nil; j++ {
			prevDoc += DocID(d.Uvarint())
			p := Posting{Doc: prevDoc, State: model.StateID(d.Count("state-id"))}
			pc := d.Count("position")
			p.Positions = make([]int32, 0, codec.Prealloc(pc))
			prev := int32(0)
			for k := 0; k < pc && d.Err() == nil; k++ {
				prev += int32(d.Uvarint())
				p.Positions = append(p.Positions, prev)
			}
			ps = append(ps, p)
		}
		ix.Terms[term] = ps
	}
	return ix
}

// validate checks the structural invariants query evaluation relies on,
// so a corrupt or adversarial snapshot surfaces as a load error instead
// of an out-of-range panic or a non-finite score in the middle of a
// search: per-doc state metadata (lengths, ranks, texts) is consistent,
// every rank is finite, every posting points at a real document, and
// every posting carries at least one position (proximity indexes
// Positions[0] unconditionally for multi-term queries).
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
			if p.State < 0 {
				return fmt.Errorf("index: validate: term %q: negative state %d", term, p.State)
			}
			if len(p.Positions) == 0 {
				return fmt.Errorf("index: validate: term %q: posting for doc %d has no positions", term, p.Doc)
			}
		}
	}
	return nil
}

// finite reports whether x is neither NaN nor ±Inf: scores must marshal
// to JSON.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
