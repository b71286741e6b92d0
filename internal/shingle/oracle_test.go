package shingle

import (
	"hash/fnv"
	"math"
)

// The map-based shingling the streamed Sketch replaced, kept as its
// oracle: build the shingle set, then fold it.

// Shingles returns the set of hashed k-shingles of a token stream. Texts
// shorter than k yield a single shingle of all tokens.
func Shingles(tokens []string, k int) map[uint64]struct{} {
	if k <= 0 {
		k = DefaultK
	}
	out := make(map[uint64]struct{})
	if len(tokens) == 0 {
		return out
	}
	if len(tokens) < k {
		out[fnvShingle(tokens)] = struct{}{}
		return out
	}
	for i := 0; i+k <= len(tokens); i++ {
		out[fnvShingle(tokens[i:i+k])] = struct{}{}
	}
	return out
}

func fnvShingle(tokens []string) uint64 {
	h := fnv.New64a()
	for _, t := range tokens {
		h.Write([]byte(t))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// Jaccard computes the exact Jaccard similarity of two shingle sets.
func Jaccard(a, b map[uint64]struct{}) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	small, large := a, b
	if len(small) > len(large) {
		small, large = large, small
	}
	inter := 0
	for s := range small {
		if _, ok := large[s]; ok {
			inter++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// MinHash computes an n-element signature of a shingle set.
func MinHash(shingles map[uint64]struct{}, n int) Signature {
	if n <= 0 {
		n = DefaultSignatureSize
	}
	sig := make(Signature, n)
	for i := range sig {
		sig[i] = math.MaxUint64
	}
	for s := range shingles {
		for i := range sig {
			if v := mix(s, uint64(2*i+1)); v < sig[i] {
				sig[i] = v
			}
		}
	}
	return sig
}
