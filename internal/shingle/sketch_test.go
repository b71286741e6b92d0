package shingle_test

import (
	"slices"
	"strings"
	"testing"

	"ajaxcrawl/internal/lsh"
	"ajaxcrawl/internal/shingle"
)

// checkSketch holds the streamed sketch to the map oracle on the
// tokens of text and of every suffix that drops one of its first lines —
// near-duplicates of each other, which an LSH index must pair up exactly
// as it did over the oracle's signatures.
func checkSketch(t *testing.T, text string) {
	t.Helper()
	fields := shingle.AppendFields(nil, text)
	if want := strings.Fields(text); !slices.Equal(fields, want) {
		t.Fatalf("AppendFields(%q) = %q, want %q", text, fields, want)
	}
	if got := shingle.AppendFields(fields[:0:0], text); !slices.Equal(got, fields) {
		t.Fatalf("AppendFields into a buffer = %q, want %q", got, fields)
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

// A sketch allocates its signature and nothing else.
func TestSketchAllocs(t *testing.T) {
	tokens := strings.Fields(strings.Repeat("comment text with several words in it ", 30))
	if n := testing.AllocsPerRun(100, func() { shingle.Sketch(tokens) }); n > 1 {
		t.Fatalf("Sketch allocates %v times, want 1 (the signature)", n)
	}
}
