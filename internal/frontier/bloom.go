// Package frontier implements the shared crawl frontier of the parallel
// crawler: a tiered priority queue over precrawled URLs (ordered by
// PageRank with an expected-AJAX-state-yield boost), bloom-filter
// membership dedup at admission, and a work-stealing scheduler that
// feeds N long-lived process lines from the one shared queue so a slow
// page never strands capacity the way a slow static partition did.
package frontier

import "hash/fnv"

// Bloom is a classic bloom filter over strings, used by the frontier to
// reject re-admissions of already-seen URLs without holding every seen
// URL in an exact set. Hashing is FNV-64a double hashing (Kirsch &
// Mitzenmacher: index_i = h1 + i*h2), fully deterministic across runs —
// the same URL stream always produces the same bit pattern, which the
// determinism test suite relies on.
//
// A bloom filter says "definitely not seen" or "maybe seen"; the
// frontier treats "maybe" as a rejection for dynamically admitted URLs
// only, so a false positive can drop a late discovery but can never
// drop a page of the pinned precrawl universe (those are admitted
// against the exact set). See OPERATIONS.md "bloom false positives".
//
// Bloom is not safe for concurrent use; the Frontier serializes access
// under its own lock.
type Bloom struct {
	bits []uint64
	m    uint64 // number of bits, power-of-two-rounded
	k    int    // hash functions per element
}

// NewBloom returns a filter of at least mBits bits (rounded up to a
// power of two, minimum 64) using k hash probes per element. k <= 0
// selects 4 probes, a good default for the ~1% false-positive range at
// 10 bits per element.
func NewBloom(mBits int, k int) *Bloom {
	m := uint64(64)
	for m < uint64(mBits) {
		m <<= 1
	}
	if k <= 0 {
		k = 4
	}
	return &Bloom{bits: make([]uint64, m/64), m: m, k: k}
}

// hashPair derives the two independent 64-bit hashes double hashing
// mixes together. h1 is FNV-64a of s; h2 is h1 pushed through a
// splitmix64 finalizer so the pair decorrelates without hashing s
// twice.
func hashPair(s string) (uint64, uint64) {
	h := fnv.New64a()
	h.Write([]byte(s))
	h1 := h.Sum64()
	z := h1 + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	h2 := z ^ (z >> 31)
	// An even h2 would cycle through only half the (power-of-two) bit
	// positions; force it odd.
	return h1, h2 | 1
}

// Add marks s as seen.
func (b *Bloom) Add(s string) {
	h1, h2 := hashPair(s)
	for i := 0; i < b.k; i++ {
		bit := (h1 + uint64(i)*h2) & (b.m - 1)
		b.bits[bit/64] |= 1 << (bit % 64)
	}
}

// MaybeContains reports whether s may have been added. False means
// definitely not added; true means added or a false positive.
func (b *Bloom) MaybeContains(s string) bool {
	h1, h2 := hashPair(s)
	for i := 0; i < b.k; i++ {
		bit := (h1 + uint64(i)*h2) & (b.m - 1)
		if b.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}
