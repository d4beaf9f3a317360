package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile returns the highest whole percentile that still has at
// least ten samples beyond it, or 0 when there are fewer than 20
// samples (below that no percentile above the median qualifies).
func tailPercentile(n int) int {
	if n < 20 {
		return 0
	}
	return int(math.Floor(100 * (1 - 10/float64(n))))
}

// summary renders a timing series the way the benchmark reports every
// timing: the median, the tail percentile when one qualifies, and the
// sample count.
func summary(name, unit string, xs []float64) string {
	s := fmt.Sprintf("%-16s p50 %.6g %s", name, median(xs), unit)
	if p := tailPercentile(len(xs)); p > 0 {
		s += fmt.Sprintf("  p%d %.6g %s", p, quantile(xs, float64(p)/100), unit)
	}
	s += fmt.Sprintf("  (n=%d)", len(xs))
	if len(xs) <= 12 {
		s += fmt.Sprintf("  %.4g", xs)
	}
	return s
}
