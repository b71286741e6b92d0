package shingle_test

import (
	"slices"
	"strings"
	"testing"

	"ajaxcrawl/internal/dom"
	"ajaxcrawl/internal/html"
	"ajaxcrawl/internal/lsh"
	"ajaxcrawl/internal/shingle"
)

// checkSketch holds the Sketcher to Sketch of the lowered fields of text,
// from a sketcher that has sketched other text before, and the streamed
// sketch to the map oracle on the tokens of text and of every suffix that
// drops one of its first lines — near-duplicates of each other, which an
// LSH index must pair up exactly as it did over the oracle's signatures.
func checkSketch(t *testing.T, text string) {
	t.Helper()
	var sk shingle.Sketcher
	sk.Sketch([]byte("Warm the Buffers up with OTHER text, longer than some of the seeds"))
	if got, want := sk.Sketch([]byte(text)), shingle.Sketch(strings.Fields(strings.ToLower(text))); !slices.Equal(got, want) {
		t.Fatalf("Sketcher.Sketch(%q) differs from Sketch(Fields(ToLower(...)))", text)
	}
	lines := strings.SplitAfter(text, "\n")
	streamed, oracle := lsh.New(0.5, shingle.DefaultSignatureSize), lsh.New(0.5, shingle.DefaultSignatureSize)
	for i := 0; i < len(lines) && i < 8; i++ {
		tokens := strings.Fields(strings.Join(lines[i:], ""))
		set := shingle.Shingles(tokens, shingle.DefaultK)
		sig, oracleSig := shingle.Sketch(tokens), shingle.MinHash(set, shingle.DefaultSignatureSize)
		if !slices.Equal(sig, oracleSig) {
			t.Fatalf("Sketch(%q) differs from MinHash(Shingles(...))", tokens)
		}
		got := slices.Clone(streamed.Candidates(sig))
		if want := oracle.Candidates(oracleSig); !slices.Equal(got, want) {
			t.Fatalf("state %d: candidates %v, want %v", i, got, want)
		}
		streamed.Add(i, sig)
		oracle.Add(i, oracleSig)
	}
}

var sketchSeeds = []string{
	"",
	"one",
	"one two",
	"one two three",
	"video player like 41 comments\npage one of three\nlots of comment text here",
	"a b a b a b a b\na b a b",
	"x\u0085y z　w \xff\xfe\xfd v\tu\nt\r\f\vs",
	"  lead and trail  ",
	"ab c x\na bc x",
}

func TestSketchMatchesOracle(t *testing.T) {
	for _, text := range sketchSeeds {
		checkSketch(t, text)
	}
}

func FuzzSketch(f *testing.F) {
	for _, text := range sketchSeeds {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > 1<<12 {
			t.Skip()
		}
		checkSketch(t, text)
	})
}

// A sketch allocates its signature and nothing else; a Sketcher whose
// buffers have grown allocates nothing.
func TestSketchAllocs(t *testing.T) {
	text := strings.Repeat("Comment text with séveral words in it ", 30)
	tokens := strings.Fields(text)
	if n := testing.AllocsPerRun(100, func() { shingle.Sketch(tokens) }); n > 1 {
		t.Fatalf("Sketch allocates %v times, want 1 (the signature)", n)
	}
	var sk shingle.Sketcher
	raw := []byte(text)
	if n := testing.AllocsPerRun(100, func() { sk.Sketch(raw) }); n != 0 {
		t.Fatalf("Sketcher.Sketch allocates %v times, want 0", n)
	}
}

// checkSketchDOM holds the walk the crawler sketches a state by — the raw
// text nodes, lowered and split in one pass — to the oracle over the
// state's visible text. VisibleText collapses only ASCII whitespace runs,
// which are unicode.IsSpace, so the two see the same tokens.
func checkSketchDOM(t *testing.T, src string) {
	t.Helper()
	var sk shingle.Sketcher
	sk.Sketch([]byte("Warm the Buffers up with OTHER text"))
	docs := []*dom.Node{html.Parse(src)}
	docs = append(docs, docs[0].ElementsByTag("")...)
	for _, n := range docs {
		want := shingle.Sketch(strings.Fields(strings.ToLower(n.VisibleText())))
		if got := sk.Sketch(n.AppendText(nil)); !slices.Equal(got, want) {
			t.Fatalf("<%s>: the walk's sketch of %q differs from the oracle's of %q", n.Data, n.TextContent(), n.VisibleText())
		}
	}
}

var sketchDOMSeeds = []string{
	"",
	"<p>One Two</p><p>Three</p>four",
	// A rune split across two text nodes, and one across a tag pair.
	"<p>caf\xc3<i>\xa9 Au</i>\xc3\x89t\xc3<b></b>\x89 x</p>",
	"a&nbsp;B\u00a0c&emsp;D\u2003e\vF\u0085g\u3000h <b>\t</b>i",
	"\xff\xfe Ab \xe2\x82 CD \xed\xa0\x80 ef <i>\xf0\x9f</i>\x98\x80 g",
	"ÀÉÎ ΣΑΣ İSTANBUL \u212a\u2126 ǅ",
	"<script>Hidden Words</script>Shown<style>p{X}</style> <!-- Not Text --> Words Here",
	"<div>  Lead \n\t</div><div>  Trail  </div>z",
}

func FuzzSketchDOM(f *testing.F) {
	for _, src := range sketchDOMSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<12 {
			t.Skip()
		}
		checkSketchDOM(t, src)
	})
}
