package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-quantile (0 <= p <= 1) of xs by linear
// interpolation between the closest ranks. One sample is its own every
// percentile; no samples report ok=false.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac, true
}

// median is percentile(xs, 0.5), 0 when xs is empty.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// beyond counts the samples strictly above the p-quantile's rank — the
// samples a tail percentile rests on.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - int(math.Floor(p*float64(n-1)))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, 0 when b is 0 (JSON has no NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
