package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middles for even n) and
// 0 for an empty sample. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the "exclusive" method), which is
// what the driver and choosing-metrics section 8 use for run-to-run spread.
// It needs at least two values; fewer yield the single value three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	switch m {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// iqrShare is the distance between the first and third quartile as a share
// of the median: the spread figure every bound in BENCHMARK.json is checked
// against.
func iqrShare(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// tailPercentiles are the candidates of the reporting rule, ascending.
var tailPercentiles = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile applies the choosing-metrics rule "report the highest
// percentile that has at least ten samples beyond it": for n samples it
// returns the largest candidate p with n*(1-p/100) >= 10, or 50 when even
// the quartile is not supported.
func tailPercentile(n int) float64 {
	best := tailPercentiles[0]
	for _, p := range tailPercentiles {
		// 1e-9 absorbs the rounding of 1-p/100 (400 * 0.025 must count as 10).
		if float64(n)*(1-p/100) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// percentile returns the p-th percentile of xs by nearest rank.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}
