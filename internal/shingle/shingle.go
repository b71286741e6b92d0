// Package shingle implements near-duplicate text detection with
// k-shingles and MinHash signatures (Broder's shingling) — the technique
// family the thesis's related-work chapter points at for the *semantic
// duplicates* the exact content hash cannot catch.
//
// The crawler uses it against challenge #3 of the thesis introduction
// ("very granular events ... can lead to a large set of very similar
// states"): states whose estimated similarity to an existing state
// exceeds a threshold are merged instead of exploding the model.
// Signature.Similarity (fraction of agreeing positions) is the single
// verification metric; internal/lsh indexes Signatures by band so the
// admitter probes buckets instead of scanning every admitted state.
package shingle

import (
	"math"
	"unicode"
	"unicode/utf8"
)

// DefaultK is the shingle width in tokens. 3 balances sensitivity and
// robustness for comment-sized texts.
const DefaultK = 3

// DefaultSignatureSize is the number of MinHash permutations. 64 gives a
// standard error of ~1/8 on the Jaccard estimate, enough for a 0.9
// merge threshold.
const DefaultSignatureSize = 64

// Signature is a MinHash sketch of a shingle set: element i is the
// minimum of permutation i over the set. Equal-length signatures can
// estimate Jaccard similarity in O(len) regardless of set sizes.
type Signature []uint64

// mix is a 64-bit finalizer-style hash parameterized by seed.
func mix(x, seed uint64) uint64 {
	x ^= seed * 0x9E3779B97F4A7C15
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return x
}

// Similarity estimates the Jaccard similarity of the underlying sets as
// the fraction of agreeing signature positions. Panics on length
// mismatch (caller bug).
func (s Signature) Similarity(o Signature) float64 {
	if len(s) != len(o) {
		panic("shingle: signature length mismatch")
	}
	if len(s) == 0 {
		return 0
	}
	agree := 0
	for i := range s {
		if s[i] == o[i] {
			agree++
		}
	}
	return float64(agree) / float64(len(s))
}

// Sketch computes the DefaultSignatureSize-element MinHash signature of
// the set of tokens' DefaultK-shingles. The i-th "permutation" is the
// multiply-xor-shift mix of the shingle hash with the i-th odd constant —
// the standard cheap family.
func Sketch(tokens []string) Signature {
	sh := newShingler(make(Signature, DefaultSignatureSize))
	for _, t := range tokens {
		addToken(&sh, t)
	}
	return sh.finish()
}

// shingler folds the shingles of a token stream into a signature as the
// tokens arrive, keeping none. A shingle's hash is FNV-1a over its
// tokens, each followed by a 0 byte so that token boundaries count:
// ("ab","c") differs from ("a","bc"). The window that starts at token w
// stays open until token w+DefaultK-1, so each token goes into the
// DefaultK windows that cover it. A stream shorter than DefaultK is one
// shingle of all its tokens. A minimum over a multiset equals the minimum
// over its set, so repeats fold in like any shingle and no set is built.
type shingler struct {
	sig    Signature
	h      [DefaultK]uint64 // h[w%DefaultK]: the window starting at token w
	tokens int
}

func newShingler(sig Signature) shingler {
	for i := range sig {
		sig[i] = math.MaxUint64
	}
	return shingler{sig: sig}
}

// addToken feeds t to the open windows and folds the one it completes.
func addToken[T ~string | ~[]byte](s *shingler, t T) {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	s.h[s.tokens%DefaultK] = offset64
	for i, h := range s.h {
		for j := 0; j < len(t); j++ {
			h = (h ^ uint64(t[j])) * prime64
		}
		s.h[i] = h * prime64 // the 0 separator: xor with 0 leaves h as it is
	}
	if s.tokens++; s.tokens >= DefaultK {
		s.fold(s.h[s.tokens%DefaultK])
	}
}

// finish folds the one shingle of a stream shorter than DefaultK.
func (s *shingler) finish() Signature {
	if s.tokens > 0 && s.tokens < DefaultK {
		s.fold(s.h[0])
	}
	return s.sig
}

func (s *shingler) fold(h uint64) {
	for i := range s.sig {
		if v := mix(h, uint64(2*i+1)); v < s.sig[i] {
			s.sig[i] = v
		}
	}
}

// A Sketcher sketches raw text into buffers it reuses, so a call
// allocates nothing once they have grown. The zero value is ready.
type Sketcher struct {
	sig Signature
	tok []byte // the current token, lowered
}

// Sketch returns Sketch(strings.Fields(strings.ToLower(string(text))))
// without building either. It lowers text rune by rune as strings.ToLower
// does — a byte of invalid UTF-8 becomes U+FFFD — and splits it where
// unicode.IsSpace holds. The signature is the sketcher's, overwritten by
// the next call: copy it to keep it.
func (s *Sketcher) Sketch(text []byte) Signature {
	if s.sig == nil {
		s.sig = make(Signature, DefaultSignatureSize)
	}
	sh := newShingler(s.sig)
	s.tok = s.tok[:0]
	for i := 0; i < len(text); {
		r, size := rune(text[i]), 1
		if 'A' <= r && r <= 'Z' {
			r += 'a' - 'A'
		} else if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRune(text[i:])
			r = unicode.ToLower(r)
		}
		i += size
		if !unicode.IsSpace(r) {
			s.tok = utf8.AppendRune(s.tok, r)
		} else if len(s.tok) > 0 {
			addToken(&sh, s.tok)
			s.tok = s.tok[:0]
		}
	}
	if len(s.tok) > 0 {
		addToken(&sh, s.tok)
	}
	return sh.finish()
}
