package index

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"ajaxcrawl/internal/model"
)

// roundTrip encodes ix and decodes the bytes.
func roundTrip(tb testing.TB, ix *Index) *Index {
	tb.Helper()
	var buf bytes.Buffer
	if err := ix.Encode(&buf); err != nil {
		tb.Fatal(err)
	}
	loaded, err := Decode(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	return loaded
}

// sameIndex reports whether two indexes hold the same data, floats
// compared bit for bit (AJAXRank(1) = 0.7 has no exact float32).
func sameIndex(a, b *Index) bool {
	if a.TotalStates != b.TotalStates || !reflect.DeepEqual(a.Docs, b.Docs) || len(a.Terms) != len(b.Terms) {
		return false
	}
	for term := range a.Terms {
		if !reflect.DeepEqual(flat(a, term), flat(b, term)) {
			return false
		}
	}
	return true
}

func TestCompressedRoundTrip(t *testing.T) {
	ix := Build(twoVideoGraphs(), map[string]float64{
		"www.youtube.com/watch?v=w16JlLSySWQ": 0.6,
		"www.youtube.com/watch?v=Iv5JXxME0js": 0.4,
	}, 0)
	loaded := roundTrip(t, ix)
	if !sameIndex(loaded, ix) {
		t.Fatalf("round trip changed the index:\n%+v\n%+v", loaded.Docs, ix.Docs)
	}
	if d, ok := loaded.DocByURL("www.youtube.com/watch?v=w16JlLSySWQ"); !ok || d != 0 {
		t.Fatalf("docByURL not rebuilt")
	}
}

func TestCompressedRejectsGarbage(t *testing.T) {
	if _, err := Decode(strings.NewReader("not an index")); err == nil {
		t.Fatalf("garbage bytes should fail to decode")
	}
	// Truncated encoding.
	var good bytes.Buffer
	if err := Build(twoVideoGraphs(), nil, 0).Encode(&good); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bytes.NewReader(good.Bytes()[:good.Len()/2])); err == nil {
		t.Fatalf("truncated encoding should fail to decode")
	}
	if _, err := Decode(bytes.NewReader(nil)); err == nil {
		t.Fatalf("empty input should fail to decode")
	}
}

// TestDecodeRejectsNonFinite: a NaN or infinite rank would load and
// then fail every search that scores its document (JSON cannot encode
// it), so the decoder refuses the index.
func TestDecodeRejectsNonFinite(t *testing.T) {
	for name, mutate := range map[string]func(*Index){
		"NaN PageRank":  func(ix *Index) { ix.Docs[0].PageRank = math.NaN() },
		"Inf PageRank":  func(ix *Index) { ix.Docs[1].PageRank = math.Inf(1) },
		"-Inf AJAXRank": func(ix *Index) { ix.Docs[0].AJAXRanks[1] = math.Inf(-1) },
	} {
		ix := Build(twoVideoGraphs(), nil, 0)
		mutate(ix)
		var buf bytes.Buffer
		if err := ix.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(&buf); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestEncodeAllocs: encoding writes every value into the buffered
// writer's free space, so its allocations do not grow with the posting
// count.
func TestEncodeAllocs(t *testing.T) {
	var graphs []*model.Graph
	h := byte(0)
	for d := 0; d < 40; d++ {
		g := model.NewGraph("/watch?v=" + string(rune('A'+d)))
		for s := 0; s < 5; s++ {
			var text strings.Builder
			for w := 0; w < 60; w++ {
				text.WriteString(string(rune('a'+(d*7+s*3+w)%26)) + "x ")
			}
			h++
			g.AddState(hashOf(h), text.String(), s)
		}
		graphs = append(graphs, g)
	}
	ix := Build(graphs, nil, 0)
	var buf bytes.Buffer
	if err := ix.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() { ix.Encode(io.Discard) })
	if limit := 16 + float64(buf.Len())/1024; allocs > limit {
		t.Fatalf("Encode of %d postings (%d bytes) allocates %.0f times, limit %.0f",
			ix.NumPostings(), buf.Len(), allocs, limit)
	}
}

// TestDecodeAllocs: Decode appends every posting list to the index's
// one slab, so its allocations follow the terms (a string each) and the
// docs (a URL, three per-state vectors and the texts), not the postings.
func TestDecodeAllocs(t *testing.T) {
	const docs, states, terms = 4, 5, 50
	var graphs []*model.Graph
	h := byte(0)
	for d := 0; d < docs; d++ {
		g := model.NewGraph(fmt.Sprintf("/watch?v=%d", d))
		for s := 0; s < states; s++ {
			var text strings.Builder
			for w := 0; w < terms; w++ {
				fmt.Fprintf(&text, "term%d term%d ", (w+s)%terms, w)
			}
			h++
			g.AddState(hashOf(h), text.String(), s)
		}
		graphs = append(graphs, g)
	}
	ix := Build(graphs, nil, 0)
	var buf bytes.Buffer
	if err := ix.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Decode(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	limit := float64(2*terms + docs*(4+states) + 32)
	t.Logf("Decode of %d terms, %d docs, %d postings: %.0f allocs (limit %.0f)", terms, docs, ix.NumPostings(), allocs, limit)
	if ix.NumPostings() != terms*docs*states || allocs > limit {
		t.Fatalf("Decode of %d postings allocates %.0f times, limit %.0f", ix.NumPostings(), allocs, limit)
	}
}

// Property: a round trip preserves the whole index for random small
// corpora.
func TestPropertyCompressedRoundTrip(t *testing.T) {
	var counter byte = 100
	f := func(texts []string, pageRank float64) bool {
		if len(texts) == 0 {
			return true
		}
		if len(texts) > 8 {
			texts = texts[:8]
		}
		g := model.NewGraph("/u")
		for depth, text := range texts {
			counter++
			g.AddState(hashOf(counter), text, depth)
		}
		ix := New()
		ix.AddGraph(g, pageRank, 0)
		return sameIndex(roundTrip(t, ix), ix)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	ix := Build(twoVideoGraphs(), nil, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ix.Encode(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	var buf bytes.Buffer
	if err := Build(twoVideoGraphs(), nil, 0).Encode(&buf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
