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

// windows reports how a stream of tokens divides into shingles: count
// windows of width tokens, window w being tokens[w:w+width]. A stream
// shorter than DefaultK is one shingle of all its tokens; an empty one
// has none.
func windows(tokens []string) (count, width int) {
	switch {
	case len(tokens) == 0:
		return 0, 0
	case len(tokens) < DefaultK:
		return 1, len(tokens)
	}
	return len(tokens) - DefaultK + 1, DefaultK
}

// hashShingle is FNV-1a over a shingle's tokens, each followed by a 0
// byte so that token boundaries count: ("ab","c") differs from ("a","bc").
func hashShingle(tokens []string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, t := range tokens {
		for i := 0; i < len(t); i++ {
			h ^= uint64(t[i])
			h *= prime64
		}
		h *= prime64 // the 0 separator: xor with 0 leaves h as it is
	}
	return h
}

// AppendFields appends the whitespace-separated fields of s to dst, as
// substrings of s: strings.Fields into a reused buffer. Space is
// unicode.IsSpace, and a byte of invalid UTF-8 is not space.
func AppendFields(dst []string, s string) []string {
	start := -1
	for i := 0; i < len(s); {
		r, size := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(s[i:])
		}
		if !unicode.IsSpace(r) {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			dst = append(dst, s[start:i])
			start = -1
		}
		i += size
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

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
// the standard cheap family. A minimum over a multiset equals the minimum
// over its set, so the shingle hashes are folded in as they are computed,
// repeats and all, and the set is never built.
func Sketch(tokens []string) Signature {
	sig := make(Signature, DefaultSignatureSize)
	for i := range sig {
		sig[i] = math.MaxUint64
	}
	count, width := windows(tokens)
	for w := 0; w < count; w++ {
		s := hashShingle(tokens[w : w+width])
		for i := range sig {
			if v := mix(s, uint64(2*i+1)); v < sig[i] {
				sig[i] = v
			}
		}
	}
	return sig
}
