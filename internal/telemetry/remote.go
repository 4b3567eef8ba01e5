package telemetry

import (
	"encoding/json"
	"sync"
)

// Remote relay: the capture end (RemoteBuffer) and the replay end
// (ReplayInto) of a cross-machine telemetry stream. A fleet node attaches
// a RemoteBuffer to its runtime (or as a sink on its local hub), a flusher
// goroutine ships batches over the wire, and the control-plane server
// replays each batch — stamped with the node's identity — into the central
// hub, so fleet-wide sinks and the detection engine see one merged stream.

// DefaultRemoteBufferSize bounds a RemoteBuffer when the config passes 0.
// Sized like the hub rings: the worst-case burst between two batch flushes.
const DefaultRemoteBufferSize = 8192

// RemoteBuffer accumulates events for batched shipment. It implements both
// Emitter (attach directly to a runtime) and Sink (attach to a local hub),
// never blocks, and drops with accounting when full — the capture side of
// the relay must stay cheap even when the wire is down.
type RemoteBuffer struct {
	mu    sync.Mutex
	buf   []Event
	max   int
	drops uint64
}

// NewRemoteBuffer creates a buffer holding at most max events
// (DefaultRemoteBufferSize when max <= 0).
func NewRemoteBuffer(max int) *RemoteBuffer {
	if max <= 0 {
		max = DefaultRemoteBufferSize
	}
	return &RemoteBuffer{max: max}
}

// Emit implements Emitter.
func (b *RemoteBuffer) Emit(ev Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.buf) >= b.max {
		b.drops++
		return
	}
	b.buf = append(b.buf, ev)
}

// HandleEvent implements Sink.
func (b *RemoteBuffer) HandleEvent(ev Event) { b.Emit(ev) }

// HandleBatch implements BatchSink: one lock acquisition and one bulk
// append per drain round. Events beyond the cap are dropped with
// accounting, exactly as per-event Emit would.
func (b *RemoteBuffer) HandleBatch(evs []Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	room := b.max - len(b.buf)
	if room <= 0 {
		b.drops += uint64(len(evs))
		return
	}
	if room < len(evs) {
		b.drops += uint64(len(evs) - room)
		evs = evs[:room]
	}
	b.buf = append(b.buf, evs...)
}

// PeekBatchInto copies up to len(dst) of the oldest buffered events into
// caller-owned scratch without removing them, returning the count. Pair
// with Commit once the batch is durably shipped: events only ever leave
// the buffer after the relay acknowledges them, so a relay session dying
// mid-flush loses nothing — the next session re-sends the same prefix,
// and Len()==0 means fully relayed.
func (b *RemoteBuffer) PeekBatchInto(dst []Event) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := copy(dst, b.buf)
	return n
}

// Commit removes the n oldest events (a batch previously peeked with
// PeekBatchInto that has been shipped).
func (b *RemoteBuffer) Commit(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n >= len(b.buf) {
		b.buf = nil
		return
	}
	b.buf = append(b.buf[:0], b.buf[n:]...)
}

// Len returns the number of buffered events.
func (b *RemoteBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.buf)
}

// Drops returns events dropped because the buffer was full.
func (b *RemoteBuffer) Drops() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.drops
}

// EncodeBatch serializes a batch for the wire.
func EncodeBatch(evs []Event) ([]byte, error) { return json.Marshal(evs) }

// DecodeBatch parses a wire batch.
func DecodeBatch(data []byte) ([]Event, error) {
	var evs []Event
	if err := json.Unmarshal(data, &evs); err != nil {
		return nil, err
	}
	return evs, nil
}

// ReplayInto is the replay end: stamp each event with the originating
// node's identity and emit it into dst (the central hub, which re-assigns
// fleet-wide sequence numbers on intake).
func ReplayInto(dst Emitter, node string, evs []Event) {
	for _, ev := range evs {
		ev.Node = node
		dst.Emit(ev)
	}
}
