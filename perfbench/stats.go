package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of sorted values by linear interpolation
// between closest ranks (NaN when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median of unsorted values.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tailPercentile is the highest of the wanted percentile and its fallbacks
// that leaves at least ten samples beyond it, as a fraction (0.99, 0.9, ...).
func tailPercentile(n int, want float64) float64 {
	for _, q := range []float64{0.999, 0.99, 0.9, 0.5} {
		if q > want {
			continue
		}
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0.5
}
