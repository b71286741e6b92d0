package lsh

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"ajaxcrawl/internal/shingle"
)

// TestParamsForTable pins the threshold→(bands,rows) table DESIGN.md §5h
// documents for the two signature lengths the crawler uses.
func TestParamsForTable(t *testing.T) {
	cases := []struct {
		threshold float64
		sigLen    int
		want      Params
	}{
		{1.0, 64, Params{1, 64}},
		{0.95, 64, Params{4, 16}},
		{0.9, 64, Params{8, 8}},
		{0.85, 64, Params{16, 4}},
		{0.8, 64, Params{16, 4}},
		{0.7, 64, Params{32, 2}},
		{0.5, 64, Params{64, 1}},
		{1.0, 16, Params{1, 16}},
		{0.9, 16, Params{2, 8}},
		{0.8, 16, Params{4, 4}},
		{0.5, 16, Params{16, 1}},
	}
	for _, c := range cases {
		if got := ParamsFor(c.threshold, c.sigLen); got != c.want {
			t.Errorf("ParamsFor(%v, %d) = %v, want %v", c.threshold, c.sigLen, got, c.want)
		}
	}
}

// TestParamsForPigeonholeBound verifies the derivation itself for every
// threshold in steps of 0.01: the chosen band count must be a divisor of
// sigLen at least d+1 where d is the disagreement budget, and no smaller
// divisor may qualify (smallest admissible = most selective).
func TestParamsForPigeonholeBound(t *testing.T) {
	for _, sigLen := range []int{16, 64} {
		for ti := 0; ti <= 100; ti++ {
			th := float64(ti) / 100
			p := ParamsFor(th, sigLen)
			if sigLen%p.Bands != 0 || p.Rows != sigLen/p.Bands {
				t.Fatalf("ParamsFor(%v, %d) = %v: not a divisor layout", th, sigLen, p)
			}
			d := sigLen - int(math.Ceil(th*float64(sigLen)))
			need := d + 1
			if need > sigLen {
				need = sigLen
			}
			if p.Bands < need {
				t.Fatalf("ParamsFor(%v, %d) = %v: below pigeonhole bound %d", th, sigLen, p, need)
			}
			for b := 1; b < p.Bands; b++ {
				if sigLen%b == 0 && b >= need {
					t.Fatalf("ParamsFor(%v, %d) = %v: smaller divisor %d also qualifies", th, sigLen, p, b)
				}
			}
		}
	}
}

// randomSig returns a signature with each element drawn from a small
// alphabet, so random pairs land all over the similarity range.
func randomSig(r *rand.Rand, n, alphabet int) shingle.Signature {
	sig := make(shingle.Signature, n)
	for i := range sig {
		sig[i] = uint64(r.Intn(alphabet))
	}
	return sig
}

// TestRecallOneOnVerifiedPath is the property the admitter's correctness
// rests on: for every pair a brute-force Similarity scan would accept at
// the threshold, the index must report the pair as candidates — recall
// 1.0, deterministically, by the pigeonhole bound (not just the s-curve
// in expectation).
func TestRecallOneOnVerifiedPath(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, threshold := range []float64{0.7, 0.8, 0.9, 0.95} {
		for _, sigLen := range []int{16, 64} {
			idx := New(threshold, sigLen)
			const n = 200
			sigs := make([]shingle.Signature, n)
			for i := range sigs {
				switch {
				case i > 0 && r.Intn(4) == 0:
					// Exact duplicate of an earlier signature, so even
					// threshold 1.0 has qualifying pairs.
					sigs[i] = append(shingle.Signature(nil), sigs[r.Intn(i)]...)
				case i > 0 && r.Intn(2) == 0:
					// Near-duplicate with a few mutated positions, so
					// pairs straddle the threshold densely.
					sigs[i] = append(shingle.Signature(nil), sigs[r.Intn(i)]...)
					for m := r.Intn(sigLen/2) + 1; m > 0; m-- {
						sigs[i][r.Intn(sigLen)] = uint64(r.Intn(1 << 30))
					}
				default:
					sigs[i] = randomSig(r, sigLen, 4)
				}
				idx.Add(i, sigs[i])
			}
			pairs, missed := 0, 0
			for i := range sigs {
				cands := map[int]bool{}
				for _, c := range idx.Candidates(sigs[i]) {
					cands[c] = true
				}
				for j := range sigs {
					if i == j || sigs[i].Similarity(sigs[j]) < threshold {
						continue
					}
					pairs++
					if !cands[j] {
						missed++
					}
				}
			}
			if pairs == 0 {
				t.Fatalf("threshold %v sigLen %d: corpus produced no above-threshold pairs", threshold, sigLen)
			}
			if missed != 0 {
				t.Errorf("threshold %v sigLen %d: index missed %d of %d brute-force pairs", threshold, sigLen, missed, pairs)
			}
		}
	}
}

// TestCandidatesSortedDeduped pins the ordering contract the admitter's
// deterministic merge target depends on.
func TestCandidatesSortedDeduped(t *testing.T) {
	idx := New(0.9, 64)
	r := rand.New(rand.NewSource(7))
	base := randomSig(r, 64, 2)
	for i := 0; i < 50; i++ {
		sig := append(shingle.Signature(nil), base...)
		sig[r.Intn(64)] = uint64(r.Intn(1 << 20))
		idx.Add(i, sig)
	}
	cands := idx.Candidates(base)
	if len(cands) == 0 {
		t.Fatalf("no candidates for the common base")
	}
	for i := 1; i < len(cands); i++ {
		if cands[i] <= cands[i-1] {
			t.Fatalf("candidates not strictly ascending: %v", cands)
		}
	}
	cands = slices.Clone(cands)
	idx.Candidates(randomSig(r, 64, 2)) // another query overwrites the reused result
	if got := idx.Candidates(base); !slices.Equal(got, cands) {
		t.Fatalf("Candidates not deterministic: %v vs %v", got, cands)
	}
	if n := testing.AllocsPerRun(100, func() { idx.Candidates(base) }); n != 0 {
		t.Fatalf("Candidates allocates %v times, want 0 once its buffer is grown", n)
	}
}

// TestStatsCount pins the probe/candidate accounting the crawler's
// crawl.states.neardup.* metrics are built on.
func TestStatsCount(t *testing.T) {
	idx := New(0.9, 64) // 8 bands
	sig := make(shingle.Signature, 64)
	idx.Add(1, sig)
	idx.Candidates(sig)
	st := idx.Stats()
	if st.Probes != 8 {
		t.Errorf("Probes = %d, want 8 (one per band)", st.Probes)
	}
	if st.Candidates != 1 {
		t.Errorf("Candidates = %d, want 1", st.Candidates)
	}
}

// TestCandidateProbSCurve sanity-checks the documented s-curve: at the
// derived layout, collision probability is near 1 above the threshold
// and decays below it.
func TestCandidateProbSCurve(t *testing.T) {
	p := ParamsFor(0.9, 64) // (8,8)
	if hi := CandidateProb(0.95, p); hi < 0.95 {
		t.Errorf("P(candidate | s=0.95) = %v, want near 1", hi)
	}
	if lo := CandidateProb(0.3, p); lo > 0.01 {
		t.Errorf("P(candidate | s=0.3) = %v, want near 0", lo)
	}
}

// TestLengthMismatchPanics pins the caller contract.
func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("no panic on signature length mismatch")
		}
	}()
	idx := New(0.9, 64)
	idx.Add(0, make(shingle.Signature, 16))
}
