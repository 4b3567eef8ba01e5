package main

import (
	"math"
	"sort"
)

func sortU64(v []uint64) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }

func sortI64(v []int64) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }

// exactQ is the nearest-rank quantile of sorted samples (0 when empty).
func exactQ(sorted []uint64, q float64) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)]
}

// quantile is exactQ for signed samples, sorting them in place.
func quantile(v []int64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sortI64(v)
	return float64(v[rank(len(v), q)])
}

func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// sketchSize bounds the samples a round keeps for pooled quantiles.
const sketchSize = 8192

// sketch thins sorted samples to at most sketchSize evenly spaced order
// statistics. Rounds of one seed have about as many samples each, so
// their sketches pool with equal weight.
func sketch(sorted []int64) []int64 {
	if len(sorted) <= sketchSize {
		return append([]int64(nil), sorted...)
	}
	out := make([]int64, sketchSize)
	for i := range out {
		out[i] = sorted[i*len(sorted)/sketchSize]
	}
	return out
}

func median(v []int64) float64 { return quantile(v, 0.5) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
