package telemetry

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// flushCountSink counts deliveries and snapshots the count at first
// Flush — the Close contract says every event emitted before Close was
// called must have been delivered by then.
type flushCountSink struct {
	seen    atomic.Uint64
	atFlush atomic.Uint64
	flushed atomic.Bool
}

func (s *flushCountSink) HandleEvent(Event) { s.seen.Add(1) }

func (s *flushCountSink) Flush() error {
	if s.flushed.CompareAndSwap(false, true) {
		s.atFlush.Store(s.seen.Load())
	}
	return nil
}

// TestHubCloseWhileDraining is the shutdown-race regression test: Close
// fires while synchronous Drain callers are mid-round (and from two
// goroutines at once), with emitters racing the early part of the run.
// The pinned guarantees: no event delivered twice or lost (drainMu
// serializes rounds and Close's final drain runs to empty), every event
// emitted before Close is at the sinks before they flush, and Drain after
// Close stays safe.
func TestHubCloseWhileDraining(t *testing.T) {
	const (
		emitters = 4
		perEmit  = 5000
		drainers = 3
	)
	sink := &flushCountSink{}
	h := NewHub(HubConfig{CPUs: emitters, RingSize: emitters * perEmit, Sinks: []Sink{sink}})

	var wgEmit sync.WaitGroup
	for c := 0; c < emitters; c++ {
		wgEmit.Add(1)
		go func(cpu int) {
			defer wgEmit.Done()
			for i := 0; i < perEmit; i++ {
				h.Emit(Event{Kind: KindRecovery, CPU: cpu, Cycle: uint64(i)})
			}
		}(c)
	}

	stopDrain := make(chan struct{})
	var wgDrain sync.WaitGroup
	for d := 0; d < drainers; d++ {
		wgDrain.Add(1)
		go func() {
			defer wgDrain.Done()
			for {
				select {
				case <-stopDrain:
					return
				default:
					h.Drain()
				}
			}
		}()
	}

	// All events are in the rings (or already drained) before Close
	// begins, so the at-flush snapshot must cover every one of them —
	// this is the window where a broken Close would flush buffered sinks
	// while concurrent drainers still hold undelivered events.
	wgEmit.Wait()
	var wgClose sync.WaitGroup
	for i := 0; i < 2; i++ {
		wgClose.Add(1)
		go func() {
			defer wgClose.Done()
			if err := h.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	wgClose.Wait()
	close(stopDrain)
	wgDrain.Wait()
	h.Drain() // post-close Drain must be a safe no-op

	total := uint64(emitters * perEmit)
	if d := h.Drops(); d != 0 {
		t.Fatalf("%d drops with rings sized for the full run", d)
	}
	if got := h.Emitted(); got != total {
		t.Fatalf("emitted %d, want %d", got, total)
	}
	if got := sink.seen.Load(); got != total {
		t.Fatalf("sinks saw %d events, emitted %d (lost or duplicated under close/drain race)", got, total)
	}
	if got := sink.atFlush.Load(); got != total {
		t.Fatalf("flush ran with %d/%d events delivered — Close flushed before its final drain", got, total)
	}
	if p := h.Pending(); p != 0 {
		t.Fatalf("%d events still buffered after Close", p)
	}
}

// TestHubCloseBackgroundConsumer: the same shutdown contract with the
// background consumer running instead of explicit Drain callers.
func TestHubCloseBackgroundConsumer(t *testing.T) {
	sink := &flushCountSink{}
	h := NewHub(HubConfig{CPUs: 2, RingSize: 1 << 14, Sinks: []Sink{sink}})
	h.Start()
	const total = 8000
	for i := 0; i < total; i++ {
		h.Emit(Event{Kind: KindSwitch, CPU: i & 1, Cycle: uint64(i)})
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sink.atFlush.Load(); got != total {
		t.Fatalf("flush saw %d/%d events", got, total)
	}
	if err := h.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if got := sink.seen.Load(); got != total {
		t.Fatalf("idempotent Close redelivered: %d events", got)
	}
}

// gateSink is a BatchSink that blocks inside delivery until released,
// holding a drain round mid-flight.
type gateSink struct {
	entered chan struct{}
	release chan struct{}
	seen    atomic.Uint64
}

func (s *gateSink) HandleEvent(Event) { s.seen.Add(1) }

func (s *gateSink) HandleBatch(evs []Event) {
	select {
	case s.entered <- struct{}{}:
	default:
	}
	<-s.release
	s.seen.Add(uint64(len(evs)))
}

// TestHubPendingCountsInFlightRound pins the two halves of quiescence:
// Pending still counts a batch the background consumer has popped but
// not yet delivered (the facechange_ring_pending gauge must not read 0
// while a sink is mid-delivery), and Drain waits for that round before
// it returns.
func TestHubPendingCountsInFlightRound(t *testing.T) {
	sink := &gateSink{entered: make(chan struct{}, 1), release: make(chan struct{})}
	h := NewHub(HubConfig{Sinks: []Sink{sink}})
	h.Start()
	var once sync.Once
	release := func() { once.Do(func() { close(sink.release) }) }
	defer h.Close()
	defer release() // a failing check must not leave Close blocked on the sink
	const n = 10
	for i := 0; i < n; i++ {
		h.Emit(Event{Kind: KindSwitch, Cycle: uint64(i)})
	}
	<-sink.entered
	if p := h.Pending(); p != n {
		t.Fatalf("Pending() = %d mid-delivery, want %d (popped events invisible)", p, n)
	}

	drained := make(chan struct{})
	go func() { h.Drain(); close(drained) }()
	select {
	case <-drained:
		t.Fatal("Drain returned while a drain round was still delivering")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	<-drained
	if got := sink.seen.Load(); got != n {
		t.Fatalf("sink saw %d events after Drain, want %d", got, n)
	}
	if p := h.Pending(); p != 0 {
		t.Fatalf("Pending() = %d after Drain, want 0", p)
	}
}
