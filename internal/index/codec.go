package index

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"ajaxcrawl/internal/model"
)

// On-disk index format, the one codec of a shard file. It applies the
// standard IR compression tricks — delta-encoded, varint-coded posting
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

	// maxCount bounds every count read from an untrusted file (docs,
	// states, terms, postings, positions). A truncated or corrupt varint
	// otherwise turns straight into make([]T, n) with an arbitrary n —
	// an unrecoverable allocation panic rather than a load error.
	maxCount = 1 << 26
	// maxPrealloc caps how much a single count is trusted for slice
	// pre-allocation; beyond it, slices grow by append as real data
	// arrives, so a lying header can't allocate more than the file
	// actually backs.
	maxPrealloc = 1 << 16
	// maxString bounds a length-prefixed string (a URL, a state text or
	// a term).
	maxString = 1 << 24
)

// prealloc returns a safe initial capacity for a count-prefixed slice.
func prealloc(n int) int {
	return min(n, maxPrealloc)
}

// Encode writes the index to w.
func (ix *Index) Encode(w io.Writer) error {
	e := encoder{bufio.NewWriter(w)}
	e.w.WriteString(codecMagic) //nolint:errcheck // sticky, checked via Flush
	e.w.WriteByte(codecVersion) //nolint:errcheck

	e.uvarint(uint64(len(ix.Docs)))
	for _, d := range ix.Docs {
		e.string(d.URL)
		e.float64(d.PageRank)
		e.uvarint(uint64(d.States))
		for _, l := range d.StateLens {
			e.uvarint(uint64(l))
		}
		for _, r := range d.AJAXRanks {
			e.float64(r)
		}
		for _, t := range d.Texts {
			e.string(t)
		}
	}
	e.uvarint(uint64(ix.TotalStates))

	terms := make([]string, 0, len(ix.Terms))
	for t := range ix.Terms {
		terms = append(terms, t)
	}
	slices.Sort(terms)
	e.uvarint(uint64(len(terms)))
	for _, t := range terms {
		e.string(t)
		ps := ix.Terms[t]
		e.uvarint(uint64(len(ps)))
		prevDoc := DocID(0)
		for _, p := range ps {
			e.uvarint(uint64(p.Doc - prevDoc))
			prevDoc = p.Doc
			e.uvarint(uint64(p.State))
			e.uvarint(uint64(len(p.Positions)))
			prev := int32(0)
			for _, pos := range p.Positions {
				e.uvarint(uint64(pos - prev))
				prev = pos
			}
		}
	}
	if err := e.w.Flush(); err != nil {
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
	defer func() {
		if rec := recover(); rec != nil {
			ix, err = nil, fmt.Errorf("index: decode: corrupt input: %v", rec)
		}
	}()
	d := decoder{r: bufio.NewReader(r)}
	ix = d.index()
	if d.err != nil {
		return nil, fmt.Errorf("index: decode: %w", d.err)
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

// encoder appends each value straight into the bufio.Writer's free
// space, so encoding allocates nothing per value. A write error is
// sticky in the bufio.Writer and surfaces at Flush.
type encoder struct{ w *bufio.Writer }

func (e encoder) uvarint(v uint64) {
	e.w.Write(binary.AppendUvarint(e.w.AvailableBuffer(), v)) //nolint:errcheck
}

func (e encoder) float64(f float64) {
	e.w.Write(binary.LittleEndian.AppendUint64(e.w.AvailableBuffer(), math.Float64bits(f))) //nolint:errcheck
}

func (e encoder) string(s string) {
	e.uvarint(uint64(len(s)))
	e.w.WriteString(s) //nolint:errcheck
}

// decoder reads the format with a sticky error: after the first failure
// every read returns zero, and each loop below stops at its next check.
type decoder struct {
	r   *bufio.Reader
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	d.fail(err)
	return v
}

// count reads a count field, bounded by maxCount.
func (d *decoder) count(what string) int {
	n := d.uvarint()
	if n > maxCount {
		d.fail(fmt.Errorf("%s count %d exceeds limit %d", what, n, maxCount))
		return 0
	}
	return int(n)
}

func (d *decoder) float64() float64 {
	if d.err != nil {
		return 0
	}
	b, err := d.r.Peek(8)
	if err != nil {
		d.fail(err)
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(b))
	d.r.Discard(8) //nolint:errcheck // the bytes are buffered
	return f
}

func (d *decoder) string() string {
	n := d.uvarint()
	if n > maxString {
		d.fail(fmt.Errorf("string length %d too large", n))
	}
	if d.err != nil {
		return ""
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(d.r, b); err != nil {
		d.fail(err)
		return ""
	}
	return string(b)
}

func (d *decoder) index() *Index {
	head, err := d.r.Peek(len(codecMagic) + 1)
	switch {
	case err != nil:
		d.fail(err)
	case string(head[:len(codecMagic)]) != codecMagic:
		d.fail(fmt.Errorf("bad magic %q", head[:len(codecMagic)]))
	case head[len(codecMagic)] != codecVersion:
		d.fail(fmt.Errorf("unsupported version %d (this build reads %d): re-publish the snapshot with ajaxcrawl -save-index",
			head[len(codecMagic)], codecVersion))
	}
	if d.err != nil {
		return nil
	}
	d.r.Discard(len(head)) //nolint:errcheck // the bytes are buffered

	docs := d.count("doc")
	ix := &Index{
		Docs:     make([]DocInfo, 0, prealloc(docs)),
		docByURL: make(map[string]DocID, prealloc(docs)),
	}
	for i := 0; i < docs && d.err == nil; i++ {
		var doc DocInfo
		doc.URL = d.string()
		doc.PageRank = d.float64()
		doc.States = d.count("state")
		doc.StateLens = make([]int32, 0, prealloc(doc.States))
		for j := 0; j < doc.States && d.err == nil; j++ {
			doc.StateLens = append(doc.StateLens, int32(d.uvarint()))
		}
		doc.AJAXRanks = make([]float64, 0, prealloc(doc.States))
		for j := 0; j < doc.States && d.err == nil; j++ {
			doc.AJAXRanks = append(doc.AJAXRanks, d.float64())
		}
		doc.Texts = make([]string, 0, prealloc(doc.States))
		for j := 0; j < doc.States && d.err == nil; j++ {
			doc.Texts = append(doc.Texts, d.string())
		}
		ix.docByURL[doc.URL] = DocID(len(ix.Docs))
		ix.Docs = append(ix.Docs, doc)
	}
	ix.TotalStates = d.count("total-state")

	terms := d.count("term")
	ix.Terms = make(map[string][]Posting, prealloc(terms))
	for i := 0; i < terms && d.err == nil; i++ {
		term := d.string()
		n := d.count("posting")
		ps := make([]Posting, 0, prealloc(n))
		prevDoc := DocID(0)
		for j := 0; j < n && d.err == nil; j++ {
			prevDoc += DocID(d.uvarint())
			p := Posting{Doc: prevDoc, State: model.StateID(d.count("state-id"))}
			pc := d.count("position")
			p.Positions = make([]int32, 0, prealloc(pc))
			prev := int32(0)
			for k := 0; k < pc && d.err == nil; k++ {
				prev += int32(d.uvarint())
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
