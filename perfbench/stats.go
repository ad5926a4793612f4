package main

import (
	"math"
	"sort"
)

// minBeyondTail is how many samples must lie strictly beyond a reported
// tail percentile for the percentile to mean anything: p99 needs n >= 1000.
const minBeyondTail = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs: the
// smallest value such that at least q·n samples are <= it. xs need not be
// sorted; it is not modified. An empty input reports NaN.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(len(s), q)-1]
}

// nearestRank is the 1-based rank of the q-quantile among n samples:
// ceil(q·n), clamped to [1, n].
func nearestRank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// blockSize is the number of samples per block in blockPercentile.
const blockSize = 1000

// blockPercentile splits xs (in time order) into consecutive blocks of at
// least blockSize samples — ⌊n/blockSize⌋ blocks, the last taking the
// remainder, one block when n < 2·blockSize — takes the nearest-rank
// q-quantile of each block and returns the median over blocks. Every block
// supports a p99 on its own; the median keeps one burst of contention in one
// block from setting the run's figure.
func blockPercentile(xs []float64, q float64) float64 {
	nb := max(1, len(xs)/blockSize)
	per := make([]float64, 0, nb)
	for b := 0; b < nb; b++ {
		lo, hi := b*blockSize, (b+1)*blockSize
		if b == nb-1 {
			hi = len(xs)
		}
		per = append(per, percentile(xs[lo:hi], q))
	}
	return median(per)
}

// tailSupported reports whether the q-quantile of n samples has at least
// minBeyondTail samples strictly beyond its rank.
func tailSupported(n int, q float64) bool {
	return n-nearestRank(n, q) >= minBeyondTail
}

// median is the middle value (mean of the middle two for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean (NaN for an empty input).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
