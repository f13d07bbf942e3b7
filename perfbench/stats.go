package main

import (
	"math"
	"sort"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle of xs (mean of the two middles for even
// lengths), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest-ranked sample with at least ten samples
// above it, with its percentile rank. With ten or fewer samples no
// such sample exists and tail returns the maximum at percentile 100.
func tail(xs []float64) (value, percentile float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), 0
	}
	if n <= 10 {
		return s[n-1], 100
	}
	i := n - 11
	return s[i], 100 * float64(i+1) / float64(n)
}

// ratio returns a/b, or NaN when b is not positive.
func ratio(a, b float64) float64 {
	if !(b > 0) {
		return math.NaN()
	}
	return a / b
}

// relClose reports |a-b| ≤ 1e-9 relative, the probability tolerance.
func relClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// share returns count/total as a fraction (0 for no total).
func share(count, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(count) / float64(total)
}
