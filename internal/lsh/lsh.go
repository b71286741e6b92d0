// Package lsh provides a banded locality-sensitive-hash index over
// shingle.Signature vectors, used by the crawler's state admitter to find
// near-duplicate DOM states without comparing every pair.
//
// A signature of n elements is split into b bands of r contiguous rows
// (b·r = n). Each band is hashed into a bucket table; two signatures
// become merge *candidates* if any band hashes identically. For true
// element-agreement s, the candidate probability follows the classic
// s-curve 1-(1-s^r)^b — steep around the threshold the band layout was
// derived for. Candidates are then verified with the exact
// shingle.Signature.Similarity, so false positives cost a comparison but
// never a wrong merge.
//
// Because the admitter's verification metric is *position agreement* (the
// fraction of equal signature elements), this index can offer a stronger
// guarantee than probabilistic LSH: if two signatures agree on a fraction
// ≥ t of their n positions, they disagree on at most d = n-ceil(t·n)
// positions, and by pigeonhole any banding with b ≥ d+1 bands puts at
// least one band entirely inside the agreeing positions. ParamsFor picks
// the smallest divisor of n with b ≥ d+1, so on the verified path the
// index has recall 1.0: it surfaces every pair the brute-force scan would
// merge. See DESIGN.md §5h for the derivation and the threshold→(b,r)
// table.
package lsh

import (
	"fmt"
	"math"
	"sort"

	"ajaxcrawl/internal/shingle"
)

// Params is a band layout: Bands·Rows = signature length.
type Params struct {
	Bands int
	Rows  int
}

func (p Params) String() string { return fmt.Sprintf("%db×%dr", p.Bands, p.Rows) }

// ParamsFor derives the band layout for a similarity threshold t over
// signatures of sigLen elements. It returns the smallest divisor b of
// sigLen such that b ≥ sigLen-ceil(t·sigLen)+1, which is exactly the
// pigeonhole bound guaranteeing that any two signatures agreeing on ≥ t
// of their positions share at least one full band (recall 1.0 against
// Signature.Similarity). Smaller b means longer rows and fewer false
// positives, so the smallest admissible divisor is also the most
// selective layout that keeps the guarantee.
//
// For sigLen 64 this yields: t=1.0→(1,64), t≥0.95→(4,16), t≥0.9→(8,8),
// t≥0.8→(16,4), t≥0.7→(32,2), below →(64,1) (every element its own
// band — document bucket skew before using thresholds that low).
func ParamsFor(threshold float64, sigLen int) Params {
	if sigLen <= 0 {
		panic("lsh: signature length must be positive")
	}
	if threshold > 1 {
		threshold = 1
	}
	if threshold < 0 {
		threshold = 0
	}
	// Max disagreeing positions a passing pair may have.
	d := sigLen - int(math.Ceil(threshold*float64(sigLen)))
	need := d + 1
	if need > sigLen {
		need = sigLen
	}
	for b := 1; b <= sigLen; b++ {
		if sigLen%b == 0 && b >= need {
			return Params{Bands: b, Rows: sigLen / b}
		}
	}
	return Params{Bands: sigLen, Rows: 1} // unreachable: b=sigLen always qualifies
}

// CandidateProb is the classic s-curve: the probability that two
// signatures with per-position agreement s collide in at least one band
// under layout p, assuming independent positions. Used for documentation
// and tests; the admitter relies on the pigeonhole guarantee instead.
func CandidateProb(s float64, p Params) float64 {
	return 1 - math.Pow(1-math.Pow(s, float64(p.Rows)), float64(p.Bands))
}

// Stats counts index work. Probes is the number of band-bucket lookups
// performed by Candidates calls; Candidates is the total candidate IDs
// returned (after per-query dedup).
type Stats struct {
	Probes     int64
	Candidates int64
}

// Index is a banded LSH index mapping signature bands to the IDs added
// under them. It is not safe for concurrent use; the state admitter
// already serialises admissions per crawl.
type Index struct {
	params  Params
	sigLen  int
	buckets []map[uint64][]int // per band: band hash → IDs in insertion order
	n       int
	stats   Stats
	cands   []int // Candidates' result, reused by the next call
}

// New builds an index for signatures of sigLen elements with the layout
// derived from threshold via ParamsFor.
func New(threshold float64, sigLen int) *Index {
	p := ParamsFor(threshold, sigLen)
	buckets := make([]map[uint64][]int, p.Bands)
	for i := range buckets {
		buckets[i] = make(map[uint64][]int)
	}
	return &Index{params: p, sigLen: sigLen, buckets: buckets}
}

// Params reports the effective band layout.
func (x *Index) Params() Params { return x.params }

// Len reports how many signatures have been added.
func (x *Index) Len() int { return x.n }

// Stats reports cumulative probe/candidate counts.
func (x *Index) Stats() Stats { return x.stats }

// band returns the half-open element range [lo,hi) covered by band i.
// Ranges are contiguous, near-equal, and cover every position — required
// for the pigeonhole recall guarantee.
func (x *Index) band(i int) (lo, hi int) {
	b := x.params.Bands
	return i * x.sigLen / b, (i + 1) * x.sigLen / b
}

// bandHash hashes sig[lo:hi] with FNV-64a, salted by the band number so
// identical element runs in different bands land in distinct buckets.
func bandHash(band int, sig shingle.Signature, lo, hi int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64) ^ (uint64(band)+1)*prime64
	for _, v := range sig[lo:hi] {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime64
		}
	}
	return h
}

func (x *Index) check(sig shingle.Signature) {
	if len(sig) != x.sigLen {
		panic(fmt.Sprintf("lsh: signature length %d, index expects %d", len(sig), x.sigLen))
	}
}

// Add registers sig under id in every band bucket. IDs must be added in
// ascending order for Candidates' ordering guarantee to equal
// lowest-ID-first (the admitter admits states with increasing StateIDs).
func (x *Index) Add(id int, sig shingle.Signature) {
	x.check(sig)
	for i := range x.buckets {
		lo, hi := x.band(i)
		h := bandHash(i, sig, lo, hi)
		x.buckets[i][h] = append(x.buckets[i][h], id)
	}
	x.n++
}

// Candidates returns the IDs sharing at least one band bucket with sig,
// deduplicated and sorted ascending — a deterministic order, so the
// admitter's first verified match is the lowest matching ID. The result
// is a buffer the index reuses: it is valid until the next call.
func (x *Index) Candidates(sig shingle.Signature) []int {
	x.check(sig)
	out := x.cands[:0]
	for i := range x.buckets {
		lo, hi := x.band(i)
		h := bandHash(i, sig, lo, hi)
		x.stats.Probes++
		out = append(out, x.buckets[i][h]...)
	}
	if len(out) > 1 {
		sort.Ints(out)
		w := 1
		for r := 1; r < len(out); r++ {
			if out[r] != out[w-1] {
				out[w] = out[r]
				w++
			}
		}
		out = out[:w]
	}
	x.stats.Candidates += int64(len(out))
	x.cands = out
	return out
}
