package telemetry

import (
	"sync"
	"sync/atomic"
)

// Sink consumes the ordered event stream on the hub's consumer side.
// HandleEvent is always called from a single goroutine at a time (the
// hub serializes delivery), so a sink needs its own locking only if it is
// also queried concurrently (the Aggregator and the detection engine are).
type Sink interface {
	HandleEvent(ev Event)
}

// Flusher is an optional Sink extension flushed by Hub.Close (buffered
// writers).
type Flusher interface {
	Flush() error
}

// BatchSink is an optional Sink extension: a sink that can take a whole
// ordered drain round in one call, paying its lock (or write syscall)
// once per batch instead of once per event. The batch slice is hub-owned
// scratch, valid only for the duration of the call — a sink that retains
// events must copy them out.
type BatchSink interface {
	HandleBatch(evs []Event)
}

// HubConfig parameterizes a Hub.
type HubConfig struct {
	// CPUs is the number of per-vCPU rings (default 1). Events whose CPU
	// is out of range land in ring 0.
	CPUs int
	// RingSize is the per-vCPU ring capacity (default DefaultRingSize).
	RingSize int
	// Sinks receive the fan-in stream in emission order.
	Sinks []Sink
}

// Hub is the pipeline's buffering stage: per-vCPU rings on the capture
// side, a fan-in consumer on the other. It implements Emitter and is what
// the runtime's hook points at.
//
// Consumption is either synchronous (Drain, for deterministic tests and
// the simulator) or backgrounded (Start/Close). The two can coexist: a
// mutex serializes drain rounds, so sinks always see a totally ordered
// stream.
type Hub struct {
	rings []*Ring
	sinks []Sink
	seq   atomic.Uint64

	// emitted counts events accepted into rings (drops excluded).
	emitted atomic.Uint64

	// drainMu serializes drain rounds between Drain callers and the
	// background consumer. It also guards the drain scratch below.
	drainMu sync.Mutex
	// inflight counts events a drain round has popped from the rings but
	// not yet delivered to every sink, so Pending still sees them.
	inflight atomic.Int64

	// Per-ring pop scratch, per-ring cursors, and the seq-merged delivery
	// buffer. Allocated once in NewHub so steady-state drains are
	// allocation-free.
	scratch [][]Event
	counts  []int
	cursors []int
	merged  []Event

	notify  chan struct{}
	stop    chan struct{}
	done    chan struct{}
	started atomic.Bool
	closed  atomic.Bool
}

// NewHub creates a hub.
func NewHub(cfg HubConfig) *Hub {
	if cfg.CPUs <= 0 {
		cfg.CPUs = 1
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = DefaultRingSize
	}
	h := &Hub{
		sinks:  cfg.Sinks,
		notify: make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	for i := 0; i < cfg.CPUs; i++ {
		h.rings = append(h.rings, NewRing(cfg.RingSize))
	}
	per := drainBatch
	if rc := h.rings[0].Cap(); rc < per {
		per = rc
	}
	h.scratch = make([][]Event, len(h.rings))
	for i := range h.scratch {
		h.scratch[i] = make([]Event, per)
	}
	h.counts = make([]int, len(h.rings))
	h.cursors = make([]int, len(h.rings))
	h.merged = make([]Event, 0, per*len(h.rings))
	return h
}

// drainBatch is the per-ring batch size of one drain round: large enough
// to amortize the atomic head/tail traffic, small enough that the merged
// delivery buffer for an 8-vCPU hub stays around 2k events.
const drainBatch = 256

// Emit implements Emitter: stamp a sequence number, push into the event's
// per-vCPU ring (dropping with accounting on overrun), and nudge the
// background consumer if one is running. Never blocks.
func (h *Hub) Emit(ev Event) {
	ev.Seq = h.seq.Add(1)
	cpu := ev.CPU
	if cpu < 0 || cpu >= len(h.rings) {
		cpu = 0
	}
	if h.rings[cpu].Push(ev) {
		h.emitted.Add(1)
	}
	if h.started.Load() {
		select {
		case h.notify <- struct{}{}:
		default:
		}
	}
}

// Start launches the background fan-in consumer. Safe to call once.
func (h *Hub) Start() {
	if !h.started.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer close(h.done)
		for {
			select {
			case <-h.stop:
				h.Drain()
				return
			case <-h.notify:
				h.Drain()
			}
		}
	}()
}

// Close stops the background consumer (if started), drains every ring and
// flushes flushable sinks. Close is idempotent; only the first call does
// the work. Events emitted before Close returns are guaranteed to reach
// the sinks before they flush: after the consumer stops (or in its
// absence), Close runs one final synchronous drain round — without it,
// events emitted between the last Drain and Close would sit in the rings
// while the sinks flushed, silently dropped at shutdown.
func (h *Hub) Close() error {
	if !h.closed.CompareAndSwap(false, true) {
		return nil
	}
	if h.started.Load() {
		close(h.stop)
		<-h.done
	}
	h.Drain()
	var first error
	for _, s := range h.sinks {
		if f, ok := s.(Flusher); ok {
			if err := f.Flush(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Drain synchronously moves every buffered event to the sinks, restoring
// total emission order by merging rings on sequence number. Returns the
// number of events delivered.
//
// Drain is the hub's quiescence barrier: it takes the same lock as every
// drain round, so it first waits out any round the background consumer
// is still delivering. Once producers have stopped, every event they
// emitted has reached the sinks when one Drain call returns — no
// Pending poll needed.
//
// Drain works in rounds: one PopBatch per ring into hub-owned scratch (a
// single atomic head load + tail store each, instead of two loads and a
// store per event), a k-way merge on Seq into the delivery buffer, then
// one delivery pass — sinks implementing BatchSink take the whole round
// in one call, the rest get per-event HandleEvent. With a quiescent
// producer (the simulator, tests, Close) the merge is exact total order;
// under concurrent emission the ordering guarantee is identical to the
// per-event peek-min loop this replaces, since both snapshot ring heads
// at slightly different instants.
func (h *Hub) Drain() int {
	h.drainMu.Lock()
	defer h.drainMu.Unlock()
	n := 0
	for {
		total := 0
		for i, r := range h.rings {
			// Count the batch in flight before popping it, so Pending
			// never misses it. Only drain rounds pop, so the ring cannot
			// shrink below k in between.
			k := min(r.Len(), len(h.scratch[i]))
			h.inflight.Add(int64(k))
			h.counts[i] = r.PopBatch(h.scratch[i][:k])
			h.cursors[i] = 0
			total += h.counts[i]
		}
		if total == 0 {
			return n
		}
		h.merged = h.merged[:0]
		for {
			best := -1
			var bestSeq uint64
			for i := range h.rings {
				if c := h.cursors[i]; c < h.counts[i] {
					if s := h.scratch[i][c].Seq; best < 0 || s < bestSeq {
						best, bestSeq = i, s
					}
				}
			}
			if best < 0 {
				break
			}
			h.merged = append(h.merged, h.scratch[best][h.cursors[best]])
			h.cursors[best]++
		}
		for _, s := range h.sinks {
			if bs, ok := s.(BatchSink); ok {
				bs.HandleBatch(h.merged)
				continue
			}
			for _, ev := range h.merged {
				s.HandleEvent(ev)
			}
		}
		h.inflight.Add(-int64(total))
		n += total
	}
}

// Drops returns the total number of events dropped across all rings.
func (h *Hub) Drops() uint64 {
	var d uint64
	for _, r := range h.rings {
		d += r.Drops()
	}
	return d
}

// Emitted returns the number of events accepted into rings since creation.
func (h *Hub) Emitted() uint64 { return h.emitted.Load() }

// Pending returns the number of emitted events not yet delivered to the
// sinks: those still in the rings plus those a drain round has popped
// and is delivering. It may briefly count a popped batch twice, never
// zero while one is undelivered. It is a gauge, not a barrier — use Drain
// to wait for delivery.
func (h *Hub) Pending() int {
	n := 0
	for _, r := range h.rings {
		n += r.Len()
	}
	return n + int(h.inflight.Load())
}

// WriteMetrics implements MetricSource: ring occupancy and drop counters.
func (h *Hub) WriteMetrics(w *Writer) {
	w.Counter("facechange_events_emitted_total", "events accepted into ring buffers", float64(h.Emitted()))
	w.Counter("facechange_ring_drops_total", "events dropped on ring overrun", float64(h.Drops()))
	w.Gauge("facechange_ring_pending", "events emitted but not yet delivered to sinks", float64(h.Pending()))
}
