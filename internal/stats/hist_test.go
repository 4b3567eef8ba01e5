package stats

import (
	"math"
	"testing"
)

func TestBucketRoundTrip(t *testing.T) {
	// Every value must land in a bucket whose floor is <= the value and
	// whose relative error is bounded by 1/32.
	vals := []uint64{0, 1, 2, 63, 64, 65, 127, 128, 1000, 4096, 1 << 20,
		1<<20 + 12345, 1 << 40, math.MaxUint64}
	for _, v := range vals {
		i := bucketIndex(v)
		if i < 0 || i >= nBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		f := bucketFloor(i)
		if f > v {
			t.Errorf("bucketFloor(bucketIndex(%d)) = %d > value", v, f)
		}
		if v >= subCount {
			if err := float64(v-f) / float64(v); err > 1.0/32 {
				t.Errorf("value %d: floor %d, relative error %f", v, f, err)
			}
		} else if f != v {
			t.Errorf("small value %d not exact: floor %d", v, f)
		}
	}
}

func TestHistTable(t *testing.T) {
	tests := []struct {
		name    string
		samples []uint64
		count   uint64
		min     uint64
		max     uint64
		mean    float64
		p50     uint64 // expected within histogram resolution; 0 checks exact
	}{
		{name: "empty"},
		{name: "single", samples: []uint64{42}, count: 1, min: 42, max: 42, mean: 42, p50: 42},
		{name: "single zero", samples: []uint64{0}, count: 1},
		{
			name:    "small exact",
			samples: []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
			count:   10, min: 1, max: 10, mean: 5.5, p50: 5,
		},
		{
			name: "heavy tail",
			// 1000 fast samples and one catastrophic outlier: the tail
			// quantiles must see the outlier, the median must not.
			samples: func() []uint64 {
				s := make([]uint64, 1000)
				for i := range s {
					s[i] = 10
				}
				return append(s, 1_000_000_000)
			}(),
			count: 1001, min: 10, max: 1_000_000_000,
			mean: (1000*10 + 1e9) / 1001.0,
			p50:  10,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var h Hist
			for _, v := range tc.samples {
				h.Record(v)
			}
			s := h.Summarize()
			if s.Count != tc.count || s.Min != tc.min || s.Max != tc.max {
				t.Fatalf("summary count/min/max = %d/%d/%d, want %d/%d/%d",
					s.Count, s.Min, s.Max, tc.count, tc.min, tc.max)
			}
			if math.Abs(s.Mean-tc.mean) > 1e-9 {
				t.Errorf("mean = %f, want %f", s.Mean, tc.mean)
			}
			if s.P50 != tc.p50 {
				t.Errorf("p50 = %d, want %d", s.P50, tc.p50)
			}
			if s.P999 < s.P99 || s.P99 < s.P95 || s.P95 < s.P50 {
				t.Errorf("quantiles not monotone: %+v", s)
			}
			if s.P999 > s.Max || s.P50 < s.Min {
				t.Errorf("quantiles outside [min,max]: %+v", s)
			}
		})
	}
}

func TestHeavyTailQuantiles(t *testing.T) {
	var h Hist
	for i := 0; i < 99; i++ {
		h.Record(10)
	}
	h.Record(1_000_000_000)
	// p999 over 100 samples is the 100th smallest: the outlier, reported
	// at the histogram's 1/32 bucket resolution.
	if got := h.Quantile(0.999); got < 1_000_000_000*31/32 || got > 1_000_000_000 {
		t.Errorf("p999 = %d, want ~1e9", got)
	}
	if got := h.Quantile(0.9); got != 10 {
		t.Errorf("p90 = %d, want 10", got)
	}
}

func TestQuantileAccuracy(t *testing.T) {
	// A uniform ramp: every quantile must be within 1/32 relative error.
	var h Hist
	const n = 100000
	for i := uint64(1); i <= n; i++ {
		h.Record(i)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.95, 0.99, 0.999} {
		want := float64(q * n)
		got := float64(h.Quantile(q))
		if math.Abs(got-want)/want > 1.0/16 {
			t.Errorf("q=%f: got %f, want ~%f", q, got, want)
		}
	}
}

func TestMerge(t *testing.T) {
	var a, b, whole Hist
	for i := uint64(0); i < 1000; i++ {
		v := i * i
		whole.Record(v)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	a.Merge(&b)
	if a.n != whole.n || a.sum != whole.sum || a.min != whole.min || a.max != whole.max {
		t.Fatalf("merge mismatch: %+v vs %+v", a.Summarize(), whole.Summarize())
	}
	for _, q := range []float64{0.25, 0.5, 0.75, 0.99} {
		if a.Quantile(q) != whole.Quantile(q) {
			t.Errorf("q=%f: merged %d, whole %d", q, a.Quantile(q), whole.Quantile(q))
		}
	}
	// Merging an empty histogram is a no-op.
	var empty Hist
	before := a.Summarize()
	a.Merge(&empty)
	if a.Summarize() != before {
		t.Errorf("merge of empty changed summary")
	}
	// Merging into an empty histogram copies.
	var into Hist
	into.Merge(&whole)
	if into.Summarize() != whole.Summarize() {
		t.Errorf("merge into empty: %+v vs %+v", into.Summarize(), whole.Summarize())
	}
}

func TestRecordN(t *testing.T) {
	var h, ref Hist
	h.RecordN(100, 5)
	h.RecordN(7, 0) // no-op
	for i := 0; i < 5; i++ {
		ref.Record(100)
	}
	if h.Summarize() != ref.Summarize() {
		t.Fatalf("RecordN mismatch: %+v vs %+v", h.Summarize(), ref.Summarize())
	}
}

func TestSummaryQuantileNames(t *testing.T) {
	var h Hist
	h.Record(10)
	s := h.Summarize()
	for _, name := range []string{"p50", "p95", "p99", "p999", "max", "min", "mean"} {
		if v, ok := s.Quantile(name); !ok || v != 10 {
			t.Errorf("Quantile(%q) = %d, %v", name, v, ok)
		}
	}
	if _, ok := s.Quantile("p42"); ok {
		t.Errorf("unknown quantile name resolved")
	}
}
