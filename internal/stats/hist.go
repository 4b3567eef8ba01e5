// Package stats provides the shared latency/size distribution helper used
// by the load harness (cmd/fcload), the benchmark suite (cmd/fcbench via
// eval.MeasureBaseline) and the telemetry aggregation hooks: an HDR-style
// log-linear histogram over uint64 values with cheap recording, bounded
// memory, and rank-based quantile queries.
//
// The bucket layout is log-linear with 64 sub-buckets per power of two:
// values below 64 are recorded exactly; above that, a value lands in the
// bucket keyed by (exponent, top-6-bits), so the relative quantile error
// is bounded by 1/32 (~3%) at any magnitude. The whole histogram is one
// fixed array (~30 KB), no allocation after construction, and Merge is a
// bucket-wise sum — the properties the per-runtime load workers need to
// record millions of samples concurrently and combine them
// deterministically afterwards.
package stats

import (
	"math"
	"math/bits"
)

const (
	// subBits is the sub-bucket resolution: 2^subBits linear buckets per
	// power-of-two range.
	subBits  = 6
	subCount = 1 << subBits

	// nBuckets covers the full uint64 range: exponents 0..58, 64
	// sub-buckets each.
	nBuckets = 59 * subCount
)

// Hist is a log-linear histogram of uint64 samples. The zero value is
// ready to use. Hist is not synchronized; give each writer its own and
// Merge afterwards.
type Hist struct {
	counts [nBuckets]uint64
	n      uint64
	sum    uint64
	min    uint64
	max    uint64
}

// bucketIndex maps a value to its bucket.
func bucketIndex(v uint64) int {
	exp := bits.Len64(v >> subBits) // 0 for v < subCount
	return exp<<subBits + int(v>>uint(exp))
}

// bucketFloor returns the smallest value mapping to bucket i. Buckets with
// exponent e >= 1 hold sub-indices in [32,64) (the top 6 bits of the
// value), so the floor is the sub-index shifted back up.
func bucketFloor(i int) uint64 {
	exp := i >> subBits
	sub := uint64(i & (subCount - 1))
	if exp == 0 {
		return sub
	}
	return sub << uint(exp)
}

// Record adds one sample.
func (h *Hist) Record(v uint64) { h.RecordN(v, 1) }

// RecordN adds n equal samples.
func (h *Hist) RecordN(v, n uint64) {
	if n == 0 {
		return
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.counts[bucketIndex(v)] += n
	h.n += n
	h.sum += v * n
}

// Mean returns the arithmetic mean (0 when empty).
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Quantile returns the value at quantile q in [0,1] using nearest-rank
// semantics over the bucket boundaries, clamped to the exact observed
// [Min,Max]. Empty histograms report 0.
func (h *Hist) Quantile(q float64) uint64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	// Nearest-rank: the smallest value whose cumulative count reaches
	// ceil(q*n).
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum uint64
	for i := 0; i < nBuckets; i++ {
		cum += h.counts[i]
		if cum >= rank {
			v := bucketFloor(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Merge adds other's samples into h.
func (h *Hist) Merge(other *Hist) {
	if other.n == 0 {
		return
	}
	if h.n == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	for i, c := range other.counts {
		if c != 0 {
			h.counts[i] += c
		}
	}
	h.n += other.n
	h.sum += other.sum
}

// Summary is the machine-readable distribution snapshot embedded in
// benchmark reports.
type Summary struct {
	Count uint64  `json:"count"`
	Min   uint64  `json:"min"`
	Max   uint64  `json:"max"`
	Mean  float64 `json:"mean"`
	P50   uint64  `json:"p50"`
	P95   uint64  `json:"p95"`
	P99   uint64  `json:"p99"`
	P999  uint64  `json:"p999"`
}

// Summarize snapshots the histogram's headline quantiles.
func (h *Hist) Summarize() Summary {
	return Summary{
		Count: h.n,
		Min:   h.min,
		Max:   h.max,
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
	}
}

// Quantile resolves a named quantile ("p50", "p95", "p99", "p999", "max",
// "min", "mean") from the summary; ok is false for unknown names.
func (s Summary) Quantile(name string) (uint64, bool) {
	switch name {
	case "p50":
		return s.P50, true
	case "p95":
		return s.P95, true
	case "p99":
		return s.P99, true
	case "p999":
		return s.P999, true
	case "max":
		return s.Max, true
	case "min":
		return s.Min, true
	case "mean":
		return uint64(s.Mean), true
	}
	return 0, false
}
