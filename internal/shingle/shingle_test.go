package shingle

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func toks(s string) []string { return strings.Fields(s) }

func TestShinglesBasic(t *testing.T) {
	sh := Shingles(toks("a b c d"), 3)
	if len(sh) != 2 { // (a b c), (b c d)
		t.Fatalf("shingles = %d, want 2", len(sh))
	}
	// Short text: one shingle.
	if got := Shingles(toks("a b"), 3); len(got) != 1 {
		t.Fatalf("short-text shingles = %d", len(got))
	}
	if got := Shingles(nil, 3); len(got) != 0 {
		t.Fatalf("empty shingles = %d", len(got))
	}
	// k <= 0 uses the default.
	if got := Shingles(toks("a b c d"), 0); len(got) != 2 {
		t.Fatalf("default-k shingles = %d", len(got))
	}
}

func TestShingleBoundaries(t *testing.T) {
	// ("ab","c") must differ from ("a","bc") — token boundaries hashed.
	a := Shingles([]string{"ab", "c", "x"}, 2)
	b := Shingles([]string{"a", "bc", "x"}, 2)
	if Jaccard(a, b) == 1 {
		t.Fatalf("token boundary collision")
	}
}

func TestJaccard(t *testing.T) {
	a := Shingles(toks("one two three four five"), 3)
	same := Shingles(toks("one two three four five"), 3)
	if Jaccard(a, same) != 1 {
		t.Fatalf("identical sets should have Jaccard 1")
	}
	disjoint := Shingles(toks("six seven eight nine ten"), 3)
	if Jaccard(a, disjoint) != 0 {
		t.Fatalf("disjoint sets should have Jaccard 0")
	}
	if Jaccard(nil, nil) != 1 {
		t.Fatalf("two empty sets are identical")
	}
	if Jaccard(a, nil) != 0 {
		t.Fatalf("empty vs non-empty should be 0")
	}
}

func TestMinHashEstimatesJaccard(t *testing.T) {
	// Two long texts sharing most of their content.
	base := strings.Repeat("alpha beta gamma delta epsilon zeta eta theta ", 12)
	a := Shingles(toks(base+"one two three"), 3)
	b := Shingles(toks(base+"four five six"), 3)
	exact := Jaccard(a, b)
	est := MinHash(a, 256).Similarity(MinHash(b, 256))
	if math.Abs(exact-est) > 0.12 {
		t.Fatalf("minhash estimate %v too far from exact %v", est, exact)
	}
	// Identical sets estimate 1.
	if MinHash(a, 64).Similarity(MinHash(a, 64)) != 1 {
		t.Fatalf("self-similarity must be 1")
	}
}

func TestNearDuplicateDetectionScenario(t *testing.T) {
	// The crawler's case: two states differing in a single counter token.
	s1 := Sketch(toks("video player like 41 comments page one of three lots of comment text here"))
	s2 := Sketch(toks("video player like 42 comments page one of three lots of comment text here"))
	s3 := Sketch(toks("completely different content about other things entirely unrelated to the video"))
	if sim := s1.Similarity(s2); sim < 0.5 {
		t.Fatalf("near-duplicates score too low: %v", sim)
	}
	if sim := s1.Similarity(s3); sim > 0.2 {
		t.Fatalf("unrelated texts score too high: %v", sim)
	}
}

func TestSignatureMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("length mismatch must panic")
		}
	}()
	MinHash(nil, 4).Similarity(MinHash(nil, 8))
}

func TestEmptySignature(t *testing.T) {
	var s Signature
	if s.Similarity(Signature{}) != 0 {
		t.Fatalf("empty signatures similarity should be 0")
	}
}

// Property: similarity is symmetric and within [0, 1]; identical token
// streams always score 1.
func TestPropertySimilarityAxioms(t *testing.T) {
	vocab := []string{"v0", "v1", "v2", "v3", "v4", "v5"}
	mk := func(sel []uint8) []string {
		out := make([]string, len(sel))
		for i, s := range sel {
			out[i] = vocab[int(s)%len(vocab)]
		}
		return out
	}
	f := func(a, b []uint8) bool {
		sa, sb := Sketch(mk(a)), Sketch(mk(b))
		ab, ba := sa.Similarity(sb), sb.Similarity(sa)
		if ab != ba || ab < 0 || ab > 1 {
			return false
		}
		return Sketch(mk(a)).Similarity(sa) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSketch(b *testing.B) {
	tokens := toks(strings.Repeat("comment text with several words in it ", 30))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Sketch(tokens)
	}
}

// BenchmarkSketcher is BenchmarkSketch's text sketched from raw bytes, as
// the crawler sketches a state: lowered and split in the same pass.
func BenchmarkSketcher(b *testing.B) {
	text := []byte(strings.Repeat("Comment text with several words in it ", 30))
	var sk Sketcher
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sk.Sketch(text)
	}
}

func BenchmarkSimilarity(b *testing.B) {
	s1 := Sketch(toks(strings.Repeat("a b c d e f g ", 20)))
	s2 := Sketch(toks(strings.Repeat("a b c d e f h ", 20)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s1.Similarity(s2)
	}
}
