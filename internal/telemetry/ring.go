package telemetry

import "sync/atomic"

// DefaultRingSize is the per-vCPU ring capacity used when a HubConfig does
// not specify one. Sized so the standard fcsim storm mix (the heaviest
// in-tree producer) never drops: the worst-case burst between consumer
// drains is a few hundred events.
const DefaultRingSize = 4096

// Ring is a bounded single-producer/single-consumer event queue. The
// runtime (producer) pushes from trap handlers; the hub's fan-in consumer
// pops. Both sides are wait-free: a full ring drops the incoming event and
// counts it — the capture path never blocks and never overwrites an event
// the consumer may be reading.
//
// The SPSC contract is satisfied structurally: all runtime emission happens
// under the runtime's mutex (one producer at a time), and each ring is
// drained by exactly one hub consumer.
type Ring struct {
	buf  []Event
	mask uint64

	// head is the next write slot, tail the next read slot; both only
	// increase. head is written by the producer, tail by the consumer;
	// atomics provide the cross-goroutine happens-before edges.
	head  atomic.Uint64
	tail  atomic.Uint64
	drops atomic.Uint64
}

// NewRing creates a ring with at least the given capacity (rounded up to a
// power of two; minimum 2).
func NewRing(capacity int) *Ring {
	n := 2
	for n < capacity {
		n <<= 1
	}
	return &Ring{buf: make([]Event, n), mask: uint64(n - 1)}
}

// Cap returns the ring's capacity.
func (r *Ring) Cap() int { return len(r.buf) }

// Push enqueues an event. It reports false — and counts a drop — when the
// ring is full.
func (r *Ring) Push(ev Event) bool {
	head := r.head.Load()
	if head-r.tail.Load() >= uint64(len(r.buf)) {
		r.drops.Add(1)
		return false
	}
	r.buf[head&r.mask] = ev
	r.head.Store(head + 1)
	return true
}

// pop dequeues the oldest event, reporting false when the ring is empty.
func (r *Ring) pop() (Event, bool) {
	tail := r.tail.Load()
	if tail == r.head.Load() {
		return Event{}, false
	}
	ev := r.buf[tail&r.mask]
	r.tail.Store(tail + 1)
	return ev, true
}

// PopBatch dequeues up to len(dst) of the oldest events into the
// caller-owned scratch and returns how many were moved. One atomic head
// load and one tail store cover the whole batch, amortizing the
// cross-core traffic a per-event Pop loop pays on every element. Order is
// the push order; drop accounting is untouched (drops happen only on the
// producer side, in Push).
func (r *Ring) PopBatch(dst []Event) int {
	if len(dst) == 0 {
		return 0
	}
	tail := r.tail.Load()
	n := int(r.head.Load() - tail)
	if n == 0 {
		return 0
	}
	if n > len(dst) {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		dst[i] = r.buf[(tail+uint64(i))&r.mask]
	}
	r.tail.Store(tail + uint64(n))
	return n
}

// Len returns the number of buffered events.
func (r *Ring) Len() int { return int(r.head.Load() - r.tail.Load()) }

// Drops returns the number of events dropped on overrun.
func (r *Ring) Drops() uint64 { return r.drops.Load() }
