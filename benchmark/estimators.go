package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle of xs (the mean of the two middles for an
// even count). It sorts a copy; xs is not modified. Empty input is 0.
func median(xs []float64) float64 {
	return percentile(xs, 0.5)
}

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between order statistics (the "R-7" rule numpy and
// spreadsheets use): rank = p·(n−1).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (rank-float64(lo))*(s[hi]-s[lo])
}

// quartileSpread is the distance between the first and third quartile
// of xs as a share of their median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (the "exclusive" method: rank =
// q·(n+1), clamped) — the figure the driver gates a benchmark on, so
// -aa reports exactly that.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		n := len(s)
		j, delta := i*(n+1)/4, float64(i*(n+1)%4)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / med)
}

// durationsMS converts latencies to float milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// calibrationKernel times a fixed pure-CPU, allocation-free loop (a
// splitmix64 chain): the same arithmetic every call, so its wall time
// moves only when the host does. Run before the first and after the
// last round, the ratio is host.calibration_drift — a noisy-neighbour
// alarm, not a correction. The fastest of many short repetitions is
// reported: on a shared host a 20 ms loop is interrupted more often
// than not, and only the minimum says what the core can do.
func calibrationKernel() time.Duration {
	const iters, reps = 4_000_000, 25
	best := time.Duration(math.MaxInt64)
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		x := uint64(0x9e3779b97f4a7c15)
		var acc uint64
		for i := 0; i < iters; i++ {
			x += 0x9e3779b97f4a7c15
			z := x
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			acc ^= z ^ (z >> 31)
		}
		d := time.Since(start)
		calibrationSink = acc
		if d < best {
			best = d
		}
	}
	return best
}

// calibrationSink keeps the kernel's result live so the loop is not
// optimised away.
var calibrationSink uint64
