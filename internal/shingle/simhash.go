package shingle

import "slices"

// SimHash sketching: Charikar's random-projection fingerprint as the
// cheaper alternative to MinHash. A single 64-bit fingerprint is computed
// by summing, per bit position, +1/-1 votes from each shingle's hash;
// near-identical shingle sets flip few votes and so share most bits. The
// fingerprint is then widened into a short Signature (16 elements of 4
// bits each) so the LSH index, the admitter's Similarity verification,
// and the checkpoint journal all reuse the MinHash machinery unchanged —
// only the sketch function and signature length differ.

// SimHashSignatureSize is the number of elements a simhash-backed
// Signature carries: the 64-bit fingerprint split into 16 chunks of
// SimHashChunkBits bits. Position agreement over 16 chunks is a coarser
// similarity estimate than 64 MinHash permutations, which is the
// trade-off for sketching in O(shingles) instead of O(shingles·64).
const (
	SimHashSignatureSize = 16
	SimHashChunkBits     = 64 / SimHashSignatureSize
)

// simhashSeed decorrelates the simhash projection from the MinHash
// permutation family: both consume the same shingle hashes, so reusing a
// MinHash seed would make chunk agreement correlate with permutation
// agreement.
const simhashSeed = 0x5BF0_3635_DE5D_57C1

// SimHashSignature widens a simhash fingerprint into a Signature of
// SimHashSignatureSize elements (one per SimHashChunkBits-bit chunk), so
// Similarity and the LSH index treat simhash and MinHash sketches
// uniformly. Two fingerprints within Hamming distance d agree on at
// least SimHashSignatureSize-d chunks.
func SimHashSignature(fp uint64) Signature {
	sig := make(Signature, SimHashSignatureSize)
	for i := range sig {
		sig[i] = fp >> (uint(i) * SimHashChunkBits) & (1<<SimHashChunkBits - 1)
	}
	return sig
}

// SimHashSketch computes the simhash-backed Signature of the set of
// tokens' DefaultK-shingles: bit i of the 64-bit fingerprint is 1 iff the
// sum of bit-i votes (+1 when a shingle's mixed hash has bit i set, -1
// otherwise) is positive. Unlike a minimum, a vote counts repeats, so the
// shingle hashes are sorted and deduplicated first.
func SimHashSketch(tokens []string) Signature {
	count, width := windows(tokens)
	set := make([]uint64, count)
	for w := range set {
		set[w] = hashShingle(tokens[w : w+width])
	}
	slices.Sort(set)
	set = slices.Compact(set)
	var votes [64]int
	for _, s := range set {
		h := mix(s, simhashSeed)
		for i := 0; i < 64; i++ {
			if h>>uint(i)&1 == 1 {
				votes[i]++
			} else {
				votes[i]--
			}
		}
	}
	var fp uint64
	for i, v := range votes {
		if v > 0 {
			fp |= 1 << uint(i)
		}
	}
	return SimHashSignature(fp)
}
