package telemetry

import (
	"sync"
	"testing"
)

// TestRingPopBatchMatchesPop: batch pops must yield exactly the sequence a
// per-event Pop loop yields, across wraparound and partial batches.
func TestRingPopBatchMatchesPop(t *testing.T) {
	a, b := NewRing(16), NewRing(16)
	next := uint64(1)
	push := func(n int) {
		for i := 0; i < n; i++ {
			ev := Event{Seq: next, N: next}
			next++
			if !a.Push(ev) || !b.Push(ev) {
				t.Fatal("push rejected below capacity")
			}
		}
	}
	var gotA, gotB []uint64
	scratch := make([]Event, 5) // not a divisor of 16: exercises partials
	// Interleave pushes and drains so the batch window wraps the buffer.
	for round := 0; round < 7; round++ {
		push(11)
		for {
			n := a.PopBatch(scratch)
			if n == 0 {
				break
			}
			for _, ev := range scratch[:n] {
				gotA = append(gotA, ev.Seq)
			}
		}
		for {
			ev, ok := b.pop()
			if !ok {
				break
			}
			gotB = append(gotB, ev.Seq)
		}
	}
	if len(gotA) != len(gotB) || len(gotA) != 77 {
		t.Fatalf("batch popped %d events, sequential popped %d, want 77", len(gotA), len(gotB))
	}
	for i := range gotA {
		if gotA[i] != gotB[i] {
			t.Fatalf("order diverges at %d: batch %d vs sequential %d", i, gotA[i], gotB[i])
		}
	}
}

// TestRingPopBatchOverflowAccounting: overrunning the ring must drop the
// newest events with exact accounting, and a batch drain must return the
// surviving (oldest) prefix untouched.
func TestRingPopBatchOverflowAccounting(t *testing.T) {
	r := NewRing(8)
	for i := 1; i <= 20; i++ {
		r.Push(Event{Seq: uint64(i)})
	}
	if r.Drops() != 12 {
		t.Fatalf("drops = %d, want 12", r.Drops())
	}
	scratch := make([]Event, 16)
	n := r.PopBatch(scratch)
	if n != 8 {
		t.Fatalf("drained %d events, want the 8 survivors", n)
	}
	for i := 0; i < n; i++ {
		if scratch[i].Seq != uint64(i+1) {
			t.Fatalf("survivor %d has seq %d, want %d (drop-newest violated)", i, scratch[i].Seq, i+1)
		}
	}
	if r.Len() != 0 || r.Drops() != 12 {
		t.Fatalf("post-drain len=%d drops=%d, want 0 and 12", r.Len(), r.Drops())
	}
}

// TestRingBatchZeroScratch: zero-length scratch is a no-op.
func TestRingBatchZeroScratch(t *testing.T) {
	r := NewRing(8)
	r.Push(Event{Seq: 7})
	r.Push(Event{Seq: 8})
	if n := r.PopBatch(nil); n != 0 {
		t.Fatalf("PopBatch(nil) = %d, want 0", n)
	}
	if n := r.PopBatch([]Event{}); n != 0 {
		t.Fatalf("PopBatch(empty) = %d, want 0", n)
	}
	if r.Len() != 2 {
		t.Fatalf("zero-length scratch consumed events: len = %d, want 2", r.Len())
	}
	scratch := make([]Event, 4)
	if n := r.PopBatch(scratch); n != 2 || scratch[0].Seq != 7 {
		t.Fatalf("PopBatch = %d (first seq %d), want 2 from seq 7", n, scratch[0].Seq)
	}
	if n := r.PopBatch(scratch); n != 0 || r.Len() != 0 {
		t.Fatalf("empty ring PopBatch = %d len=%d, want 0 and 0", n, r.Len())
	}
}

// TestHubBatchDrainRaceSoak drives the batched drain path from multiple
// producers and multiple concurrent Drain callers at once (plus a
// background consumer joining via Close), with batch-capable sinks
// attached — the -race soak for the drain scratch, cursors and merged
// buffer, which are shared across every drain round.
func TestHubBatchDrainRaceSoak(t *testing.T) {
	const (
		cpus    = 4
		perProd = 2000
	)
	agg := NewAggregator(64)
	hist := NewHistogramSink()
	h := NewHub(HubConfig{CPUs: cpus, RingSize: 1 << 14, Sinks: []Sink{agg, hist}})
	h.Start()

	var wg sync.WaitGroup
	for c := 0; c < cpus; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				h.Emit(Event{Kind: KindSwitch, CPU: c, View: "v", N: uint64(i)})
			}
		}(c)
	}
	// Concurrent foreground drains racing the background consumer.
	for d := 0; d < 3; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				h.Drain()
			}
		}()
	}
	wg.Wait()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if h.Drops() != 0 {
		t.Fatalf("ring drops = %d, want 0 at this capacity", h.Drops())
	}
	st := agg.Stats()
	if want := uint64(cpus * perProd); st.Total != want || hist.Stats().Total != want {
		t.Fatalf("sinks consumed %d/%d events, want %d each", st.Total, hist.Stats().Total, want)
	}
	if st.Switches != uint64(cpus*perProd) {
		t.Fatalf("aggregator counted %d switches, want %d", st.Switches, cpus*perProd)
	}
}

// TestHubEmitAndDrainZeroAllocs pins the full enabled pipeline —
// Emit into a ring plus a batched drain round into a batch-capable sink —
// at zero steady-state heap allocations.
func TestHubEmitAndDrainZeroAllocs(t *testing.T) {
	agg := NewAggregator(64)
	h := NewHub(HubConfig{CPUs: 2, RingSize: 1 << 10, Sinks: []Sink{agg}})
	ev := Event{Kind: KindSwitch, CPU: 1, View: "nginx"}
	// Warm: first drain may grow nothing (scratch is preallocated), but
	// the aggregator's maps see their keys here.
	h.Emit(ev)
	h.Drain()
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			h.Emit(ev)
		}
		h.Drain()
	})
	if avg != 0 {
		t.Errorf("enabled emit+drain allocates %.1f objects per 64-event round, want 0", avg)
	}
	if h.Drops() != 0 {
		t.Fatalf("unexpected drops: %d", h.Drops())
	}
}
