package telemetry

import (
	"testing"
)

// BenchmarkEventPipeline pins the capture-path cost (satellite of the
// telemetry subsystem PR): the disabled guard must stay in the
// single-digit-nanosecond range, an enabled emit under ~200ns, and
// overflow must shed load without blocking.
func BenchmarkEventPipeline(b *testing.B) {
	ev := Event{
		Kind: KindRecovery, Cycle: 1 << 30, CPU: 0, PID: 1234,
		Comm: "nginx", View: "nginx", Addr: 0xc0211370,
		FnStart: 0xc0211370, FnEnd: 0xc0211470, Fn: "pipe_poll+0x0", N: 256,
	}

	b.Run("disabled", func(b *testing.B) {
		// The runtime's hook: a nil-emitter check guarding all event
		// construction. Model it exactly as core does.
		var emit Emitter
		n := 0
		for i := 0; i < b.N; i++ {
			if emit != nil {
				emit.Emit(ev)
				n++
			}
		}
		if n != 0 {
			b.Fatal("disabled path emitted")
		}
	})

	b.Run("enabled", func(b *testing.B) {
		sunk := 0
		h := NewHub(HubConfig{CPUs: 1, RingSize: 1 << 16, Sinks: []Sink{SinkFunc(func(Event) { sunk++ })}})
		var emit Emitter = h
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if emit != nil {
				emit.Emit(ev)
			}
			if h.Pending() == h.rings[0].Cap() {
				b.StopTimer()
				h.Drain()
				b.StartTimer()
			}
		}
		b.StopTimer()
		h.Drain()
		if uint64(sunk) != h.Emitted() || h.Drops() != 0 {
			b.Fatalf("sunk %d, emitted %d, drops %d", sunk, h.Emitted(), h.Drops())
		}
	})

	b.Run("drain-batch", func(b *testing.B) {
		benchDrain(b, ev)
	})

	b.Run("overflow", func(b *testing.B) {
		// Deliberate overrun: a tiny ring and no consumer. Every push past
		// capacity must be a counted drop, never a block or overwrite.
		h := NewHub(HubConfig{CPUs: 1, RingSize: 8})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Emit(ev)
		}
		b.StopTimer()
		if h.Emitted() != 8 && b.N > 8 {
			b.Fatalf("emitted %d, want 8 buffered", h.Emitted())
		}
		if h.Emitted()+h.Drops() != uint64(b.N) {
			b.Fatalf("emitted %d + drops %d != %d", h.Emitted(), h.Drops(), b.N)
		}
		b.ReportMetric(float64(h.Drops())/float64(b.N), "drop-ratio")
	})
}

// benchDrainRound is the number of buffered events per measured drain:
// deep enough that per-event costs dominate setup, shallow enough to fit
// the rings.
const benchDrainRound = 4096

// benchDrain measures Hub.Drain over pre-filled rings (the producer is
// quiescent during the measured section). Reported ns/event is the
// consumer-side cost the hub pays per delivered event.
func benchDrain(b *testing.B, ev Event) {
	agg := NewAggregator(64)
	h := NewHub(HubConfig{CPUs: 4, RingSize: benchDrainRound, Sinks: []Sink{agg}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < benchDrainRound; j++ {
			e := ev
			e.CPU = j & 3
			h.Emit(e)
		}
		b.StartTimer()
		h.Drain()
	}
	b.StopTimer()
	if got := agg.Stats().Total; got != uint64(b.N)*benchDrainRound || h.Drops() != 0 {
		b.Fatalf("consumed %d events (drops %d), want %d", got, h.Drops(), uint64(b.N)*benchDrainRound)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*benchDrainRound), "ns/event")
}
