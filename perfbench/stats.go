package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of the samples by the
// nearest-rank rule, or 0 for no samples. It sorts a copy.
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// weighted is a sampled value standing for weight inputs.
type weighted struct {
	x time.Duration
	w float64
}

// weightedQuantile returns the smallest sample whose cumulative weight
// reaches q of the total, or 0 for no samples. It sorts xs in place.
func weightedQuantile(xs []weighted, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i].x < xs[j].x })
	total := 0.0
	for _, x := range xs {
		total += x.w
	}
	acc := 0.0
	for _, x := range xs {
		if acc += x.w; acc >= q*total {
			return x.x
		}
	}
	return xs[len(xs)-1].x
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ns(d time.Duration) float64 { return float64(d) }

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// clockCost is the median cost of one time.Now/time.Since pair, which
// per-call timings of sub-microsecond calls subtract.
func clockCost() time.Duration {
	xs := make([]time.Duration, 2001)
	for i := range xs {
		t0 := time.Now()
		xs[i] = time.Since(t0)
	}
	return quantile(xs, 0.5)
}

// net subtracts the clock cost from a timing, flooring at zero.
func netOf(d, clock time.Duration) time.Duration {
	if d -= clock; d < 0 {
		return 0
	}
	return d
}
