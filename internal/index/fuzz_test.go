package index

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"slices"
	"strings"
	"testing"

	"ajaxcrawl/internal/codec"
	"ajaxcrawl/internal/model"
)

// fuzzSeedIndex builds a representative index and returns its encoding.
func fuzzSeedIndex(tb testing.TB) (*Index, []byte) {
	tb.Helper()
	part1, part2 := snapshotGraphs()
	ix := Build(append(part1, part2...), map[string]float64{"site/watch?v=a": 0.4}, 0)
	var buf bytes.Buffer
	if err := ix.Encode(&buf); err != nil {
		tb.Fatal(err)
	}
	return ix, buf.Bytes()
}

// header is the magic and version every valid encoding starts with.
func header() []byte { return append([]byte(codecMagic), codecVersion) }

// badTextSections are encodings whose state-text section is corrupt, or
// whose version predates it; every one must be refused.
func badTextSections(tb testing.TB) map[string][]byte {
	tb.Helper()
	_, enc := fuzzSeedIndex(tb)
	v2 := append([]byte(nil), enc...)
	v2[len(codecMagic)] = 2
	// One doc, cut where its one state's text begins.
	doc := binary.AppendUvarint(header(), 1)
	doc = binary.AppendUvarint(doc, 1)
	doc = append(doc, 'u')
	doc = binary.LittleEndian.AppendUint64(doc, 0)
	doc = binary.AppendUvarint(doc, 1)
	doc = binary.AppendUvarint(doc, 2)
	doc = binary.LittleEndian.AppendUint64(doc, math.Float64bits(1))
	// Texts that disagree with States: Encode writes whatever Texts holds.
	miscount := func(mutate func(*DocInfo)) []byte {
		ix, _ := fuzzSeedIndex(tb)
		mutate(&ix.Docs[0])
		var buf bytes.Buffer
		if err := ix.Encode(&buf); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	return map[string][]byte{
		"version 2":             v2,
		"text past maxString":   binary.AppendUvarint(bytes.Clone(doc), codec.MaxString+1),
		"truncated inside text": append(binary.AppendUvarint(bytes.Clone(doc), 10), "alpha"...),
		"one text too many":     miscount(func(d *DocInfo) { d.Texts = append(d.Texts, "extra") }),
		"one text too few":      miscount(func(d *DocInfo) { d.Texts = d.Texts[:len(d.Texts)-1] }),
	}
}

// onePosting hand-writes an index of one doc, whose states have the
// given token counts, and one term with one posting in state: its
// positions are the given deltas. The bytes need not come from Encode,
// whose lists hold only what the loader accepts.
func onePosting(lens []uint64, state uint64, deltas ...uint64) []byte {
	b := binary.AppendUvarint(header(), 1)
	b = binary.AppendUvarint(b, 1)
	b = append(b, 'u')
	b = binary.LittleEndian.AppendUint64(b, 0)
	b = binary.AppendUvarint(b, uint64(len(lens)))
	for _, n := range lens {
		b = binary.AppendUvarint(b, n)
	}
	for range lens {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(1))
	}
	for range lens {
		b = binary.AppendUvarint(b, 0) // an empty text
	}
	b = binary.AppendUvarint(b, uint64(len(lens)))
	b = binary.AppendUvarint(b, 1)
	b = binary.AppendUvarint(b, 1)
	b = append(b, 't')
	b = binary.AppendUvarint(b, 1)
	b = binary.AppendUvarint(b, 0)
	b = binary.AppendUvarint(b, state)
	b = binary.AppendUvarint(b, uint64(len(deltas)))
	for _, d := range deltas {
		b = binary.AppendUvarint(b, d)
	}
	return b
}

// badBounds are encodings whose postings leave their state, or whose
// positions or token total leave the 32-bit range; every one must be
// refused. The first decodes: it is the in-bounds control.
func badBounds() [][]byte {
	const maxInt32 = math.MaxInt32
	return [][]byte{
		onePosting([]uint64{3, 2}, 1, 0, 1),
		onePosting([]uint64{3, 2}, 2, 0),                         // state past the doc's states
		onePosting([]uint64{3}, 0, 3),                            // position past the state's tokens
		onePosting([]uint64{3}, 0, 1, 0),                         // a repeated position
		onePosting([]uint64{3}, 0, 1, 1<<32+1),                   // a delta that wraps int32 to 1
		onePosting([]uint64{maxInt32}, 0, 1, maxInt32),           // a position past MaxInt32
		onePosting([]uint64{maxInt32, maxInt32, maxInt32}, 0, 0), // tokens past uint32
		onePosting([]uint64{1 << 32}, 0, 0),                      // a token count past int32
		onePosting([]uint64{2}, 0, 0, 1, 1),                      // more positions than tokens
	}
}

// TestDecodeRefusesPostingPastDocStates: a posting whose state is not one
// of its doc's states would score with tf 0 and show an empty snippet —
// a phantom result — so the index is refused.
func TestDecodeRefusesPostingPastDocStates(t *testing.T) {
	bad := badBounds()
	ix, err := Decode(bytes.NewReader(bad[0]))
	if err != nil {
		t.Fatalf("in-bounds control: %v", err)
	}
	if got := flat(ix, "t"); len(got) != 1 || !slices.Equal(got[0].Positions, []int32{0, 1}) {
		t.Fatalf("control positions %v, want [0 1]", got)
	}
	if _, err := Decode(bytes.NewReader(bad[1])); err == nil || !strings.Contains(err.Error(), "state 2 out of range [0,2)") {
		t.Fatalf("posting in state 2 of a 2-state doc: %v", err)
	}
}

// TestDecodeRefusesPositionsOutsideState: positions are strictly
// increasing token offsets inside their state; one that is repeated, past
// the state's tokens, or wrapped through int32 is refused.
func TestDecodeRefusesPositionsOutsideState(t *testing.T) {
	for i, data := range badBounds()[2:6] {
		if _, err := Decode(bytes.NewReader(data)); err == nil {
			t.Errorf("case %d: decoded without error", i)
		}
	}
}

// TestDecodeRefusesPositionTotalPastUint32: an index whose states hold
// more tokens than a uint32 counts — or whose postings hold more
// positions than its states have tokens — is refused.
func TestDecodeRefusesPositionTotalPastUint32(t *testing.T) {
	for i, data := range badBounds()[6:] {
		if _, err := Decode(bytes.NewReader(data)); err == nil {
			t.Errorf("case %d: decoded without error", i)
		}
	}
}

// TestDecodeRejectsBadTextSection: every badTextSections input is a load
// error, a retired version's with the re-publish instruction; an index
// whose texts disagree with its state count does not decode.
func TestDecodeRejectsBadTextSection(t *testing.T) {
	for name, data := range badTextSections(t) {
		_, err := Decode(bytes.NewReader(data))
		if err == nil {
			t.Errorf("%s: decoded without error", name)
		} else if name == "version 2" && !strings.Contains(err.Error(), "re-publish the snapshot with ajaxcrawl -out") {
			t.Errorf("%s: error %q does not say how to recover", name, err)
		}
	}
	ix, _ := fuzzSeedIndex(t)
	ix.Docs[1].Texts = nil
	if _, err := Decode(bytes.NewReader(encoded(t, ix))); err == nil {
		t.Error("an index with no texts for a doc's states decoded")
	}
}

// FuzzIndexLoad feeds arbitrary bytes to the snapshot decoder. It may
// never panic — snapshot files are untrusted disk input read by a
// long-running daemon — and any index that decodes successfully must be
// safe to query (in-range postings, non-empty position lists, finite
// ranks).
func FuzzIndexLoad(f *testing.F) {
	ix, enc := fuzzSeedIndex(f)
	// Bytes of retired formats: the gob image earlier releases wrote, and
	// the AJIX version 1 header. Both must be refused.
	var gobBuf bytes.Buffer
	if err := gob.NewEncoder(&gobBuf).Encode(struct {
		Docs        []DocInfo
		Terms       map[string][]byte
		TotalStates int
	}{ix.Docs, ix.Terms, ix.TotalStates}); err != nil {
		f.Fatal(err)
	}
	gobBytes := gobBuf.Bytes()
	v1 := append([]byte(nil), enc...)
	v1[len(codecMagic)] = 1
	f.Add(gobBytes)
	f.Add(enc)
	f.Add(gobBytes[:len(gobBytes)/2])
	f.Add(enc[:len(enc)/2])
	f.Add([]byte{})
	f.Add([]byte(codecMagic))
	f.Add(header())
	// A header that lies about the doc count: magic, version, then a
	// varint claiming ~1e12 docs follow. This was a crasher: the count
	// went straight into make() before codec.MaxCount existed.
	f.Add(binary.AppendUvarint(header(), 1<<40))
	// Bit flips in otherwise-valid input hit the mid-stream paths.
	for _, off := range []int{8, len(enc) / 3, 2 * len(enc) / 3} {
		flipped := append([]byte(nil), enc...)
		flipped[off] ^= 0x80
		f.Add(flipped)
	}
	f.Add(v1)
	for _, data := range badTextSections(f) {
		f.Add(data)
	}
	for _, data := range badBounds() {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := Decode(bytes.NewReader(data))
		if err != nil {
			// A retired version is refused with the way out.
			if len(data) > len(codecMagic) && string(data[:len(codecMagic)]) == codecMagic &&
				data[len(codecMagic)] != codecVersion && !strings.Contains(err.Error(), "re-publish") {
				t.Fatalf("version %d refused without the re-publish instruction: %v", data[len(codecMagic)], err)
			}
			return // error is the correct outcome for corrupt input
		}
		// Decoded OK: the invariants the query layer relies on must hold,
		// or SearchTopKCtx would index out of range (or score NaN) at serve
		// time.
		requireQueryable(t, ix)
	})
}

// requireQueryable fails t unless ix is safe to query: texts for every
// state, finite ranks, and postings in range with positions.
func requireQueryable(t *testing.T, ix *Index) {
	t.Helper()
	nd := ix.NumDocs()
	_ = ix.NumPostings()
	for _, d := range ix.Docs {
		if len(d.Texts) != d.States {
			t.Fatalf("doc %s: %d texts for %d states", d.URL, len(d.Texts), d.States)
		}
		if !finite(d.PageRank) {
			t.Fatalf("doc %s: PageRank %v", d.URL, d.PageRank)
		}
		for _, r := range d.AJAXRanks {
			if !finite(r) {
				t.Fatalf("doc %s: AJAXRank %v", d.URL, r)
			}
		}
	}
	for term, run := range ix.Terms {
		p, df := cursor(run)
		postings := 0
		for ; p.Next(); postings++ {
			if int(p.Doc) < 0 || int(p.Doc) >= nd {
				t.Fatalf("term %q posting doc %d out of range [0,%d)", term, p.Doc, nd)
			}
			d := ix.Docs[p.Doc]
			if p.State < 0 || int(p.State) >= d.States {
				t.Fatalf("term %q posting doc %d state %d out of range [0,%d)", term, p.Doc, p.State, d.States)
			}
			if pos := positions(p); len(pos) == 0 || len(pos) != int(p.TF) || !slices.IsSorted(pos) || pos[len(pos)-1] >= d.StateLens[p.State] {
				t.Fatalf("term %q posting for doc %d has positions %v, tf %d", term, p.Doc, pos, p.TF)
			}
			_ = ix.StateText(p.Doc, model.StateID(p.State))
		}
		if postings != df {
			t.Fatalf("term %q: %d postings, df %d", term, postings, df)
		}
		_ = ix.Lookup(term)
		_ = ix.DF(term)
	}
}

// TestDecodeCompressedLyingCounts pins the specific crasher class the
// count caps fix: headers that promise more data than the file holds
// must come back as load errors, not allocation panics.
func TestDecodeCompressedLyingCounts(t *testing.T) {
	for _, count := range []uint64{codec.MaxCount + 1, 1 << 40, 1<<64 - 1} {
		if _, err := Decode(bytes.NewReader(binary.AppendUvarint(header(), count))); err == nil {
			t.Fatalf("doc count %d accepted", count)
		}
	}
}

// TestDecodeTruncated walks every prefix of a valid encoding; all must
// fail cleanly (the full input must load).
func TestDecodeTruncated(t *testing.T) {
	_, enc := fuzzSeedIndex(t)
	if _, err := Decode(bytes.NewReader(enc)); err != nil {
		t.Fatalf("full input: %v", err)
	}
	for i := 0; i < len(enc); i++ {
		if _, err := Decode(bytes.NewReader(enc[:i])); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", i, len(enc))
		}
	}
}
