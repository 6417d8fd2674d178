package main

import (
	"math"
	"sort"
)

// tailPercentile is the percentile rule for per-operation timings: the
// highest percentile that still has at least ten samples beyond it,
// 100·(k−10)/k for k samples. Below forty samples that would be no tail
// at all, so only the median is reported (ok is false).
func tailPercentile(k int) (pct float64, ok bool) {
	if k < 40 {
		return 50, false
	}
	return 100 * float64(k-10) / float64(k), true
}

// percentile returns the nearest-rank pct-th percentile of xs: the
// smallest sample with at least pct percent of the samples at or below
// it. xs is not modified.
func percentile(xs []float64, pct float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(pct / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the midpoint median (the mean of the two middle samples for
// an even count), matching Python's statistics.median.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the three cut points of statistics.quantiles(xs,
// n=4) in Python's default "exclusive" method, so the spreads this
// program prints are the ones a Python check of the same values gives.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	if len(s) < 2 {
		if len(s) == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	m := len(s) + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, v := range xs {
		s += v
	}
	return s
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
