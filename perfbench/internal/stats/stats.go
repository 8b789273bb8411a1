// Package stats holds the order statistics the benchmark reports.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// MinAbove is how many samples must lie above a reported tail percentile:
// with fewer, the "percentile" is one of the last few samples and moves
// from run to run with them.
const MinAbove = 10

// Rank returns the 1-based nearest rank of percentile p (0 < p <= 100) in
// n samples: the smallest rank r with r/n >= p/100.
func Rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// Percentile returns the nearest-rank percentile p of xs and the number of
// samples above it. xs is not modified.
func Percentile(xs []float64, p float64) (value float64, above int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := Rank(len(s), p)
	return s[r-1], len(s) - r
}

// Median is the nearest-rank 50th percentile.
func Median(xs []float64) float64 {
	v, _ := Percentile(xs, 50)
	return v
}

// Tail returns percentile p only when at least MinAbove samples lie above
// it, and an error otherwise.
func Tail(xs []float64, p float64) (float64, error) {
	v, above := Percentile(xs, p)
	if above < MinAbove {
		return 0, fmt.Errorf("p%g of %d samples has %d above it, want at least %d", p, len(xs), above, MinAbove)
	}
	return v, nil
}

// MinSamples is the smallest sample count whose percentile p has at least
// MinAbove samples above it.
func MinSamples(p float64) int {
	n := 1
	for n-Rank(n, p) < MinAbove {
		n++
	}
	return n
}
