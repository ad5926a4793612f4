package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50} // the textbook nearest-rank example
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.05, 15}, {0.30, 20}, {0.40, 20}, {0.50, 35}, {1.00, 50}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	// Unsorted input is not modified.
	ys := []float64{3, 1, 2}
	if got := percentile(ys, 0.5); got != 2 || ys[0] != 3 {
		t.Errorf("percentile of %v = %v (input after: %v)", []float64{3, 1, 2}, got, ys)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestPercentileOfThousand(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1000 … 1, reversed
	}
	if got := percentile(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := percentile(xs, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
}

func TestTailSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, // rank 990: exactly ten beyond
		{999, 0.99, false}, // rank 990: nine beyond
		{5000, 0.99, true},
		{100, 0.99, false},
		{100, 0.90, true}, // rank 90: ten beyond
		{20, 0.50, true},
		{19, 0.50, false},
		{0, 0.50, false},
	} {
		if got := tailSupported(c.n, c.q); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestMedianMean(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := mean([]float64{1, 2, 3, 6}); got != 3 {
		t.Errorf("mean = %v", got)
	}
}
