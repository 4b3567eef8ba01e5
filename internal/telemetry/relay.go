package telemetry

import "sync"

// Hub-to-hub relay: the pieces a sharded control plane uses to forward
// node telemetry from a shard-local hub to the fleet's designated
// aggregator hub with exact, exactly-once accounting.
//
// The node→shard hop already has zero-loss semantics (RemoteBuffer
// peek/commit: events leave the node only once acknowledged). The
// shard→aggregator hop reuses the same discipline at batch granularity:
// a RelayQueue holds whole node batches, a relay loop peeks, sends and
// only then commits (once the aggregator acknowledges admission), and
// the per-batch acknowledgement back to the node is deferred until the
// batch is committed upstream — so a shard dying mid-relay leaves every
// unforwarded event uncommitted at its origin node, which re-sends it to
// the shard's ring successor.
// Re-sends can duplicate batches the aggregator already counted (the
// shard died after forwarding but before acking); the aggregator dedupes
// them with a SeqTracker keyed on the originating node's cumulative
// event sequence, making the end-to-end count exact through a shard kill.

// Batch is one node's telemetry batch in flight through the relay: the
// originating node, the node's cumulative event sequence number of the
// first event (its position in the node's relay stream), and the events
// themselves, still unstamped — Node identity is applied at the
// aggregator via ReplayInto, exactly as on the direct node→server path.
type Batch struct {
	Node   string
	First  uint64
	Events []Event
}

// relayPending pairs a queued batch's acknowledgement callback with the
// cumulative append position it becomes due at.
type relayPending struct {
	due uint64
	ack func()
}

// RelayQueue buffers node batches awaiting shard→aggregator relay with
// peek/commit semantics. It is deliberately unbounded: the ack protocol
// itself bounds it — a node keeps at most one unacknowledged batch in
// flight, so the queue never holds more than one batch per connected
// node.
type RelayQueue struct {
	mu        sync.Mutex
	q         []Batch
	pending   []relayPending
	appended  uint64 // batches ever appended
	committed uint64 // batches committed (relayed upstream)
}

// NewRelayQueue creates an empty queue.
func NewRelayQueue() *RelayQueue { return &RelayQueue{} }

// Append enqueues one batch. ack, when non-nil, runs after the batch has
// been committed upstream (from the Commit call's goroutine) — the hook
// the shard uses to send the deferred telemetry acknowledgement back to
// the originating node.
func (r *RelayQueue) Append(b Batch, ack func()) {
	r.mu.Lock()
	r.q = append(r.q, b)
	r.appended++
	if ack != nil {
		r.pending = append(r.pending, relayPending{due: r.appended, ack: ack})
	}
	r.mu.Unlock()
}

// PeekInto copies up to len(dst) of the oldest queued batches into
// caller-owned scratch without removing them, returning the count. Pair
// with Commit once the batches are durably relayed.
func (r *RelayQueue) PeekInto(dst []Batch) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return copy(dst, r.q)
}

// Commit removes the n oldest batches (previously peeked and now relayed
// upstream) and fires every acknowledgement that became due. Acks run
// outside the queue lock, in queue order.
func (r *RelayQueue) Commit(n int) {
	r.mu.Lock()
	if n > len(r.q) {
		n = len(r.q)
	}
	r.q = append(r.q[:0], r.q[n:]...)
	r.committed += uint64(n)
	var due []func()
	for len(r.pending) > 0 && r.pending[0].due <= r.committed {
		due = append(due, r.pending[0].ack)
		r.pending = append(r.pending[:0], r.pending[1:]...)
	}
	r.mu.Unlock()
	for _, ack := range due {
		ack()
	}
}

// Len returns the number of queued batches.
func (r *RelayQueue) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.q)
}

// SeqTracker dedupes re-sent telemetry batches at the aggregation point.
// Each node numbers its relayed events with a cumulative sequence; a
// batch (first, n) is admitted only for the suffix the tracker has not
// seen. Batches from one node arrive in order (one session at a time,
// FIFO buffers on every hop), so a single next-expected counter per node
// suffices.
type SeqTracker struct {
	mu   sync.Mutex
	next map[string]uint64
	dups uint64
	gaps uint64
}

// NewSeqTracker creates a tracker.
func NewSeqTracker() *SeqTracker {
	return &SeqTracker{next: make(map[string]uint64)}
}

// Admit registers a batch of n events from node starting at cumulative
// sequence first and returns how many leading events are duplicates the
// caller must skip. Events beyond the duplicate prefix advance the
// node's cursor. A batch starting past the cursor means events were lost
// upstream of the tracker (a node buffer overflow); the hole is counted
// in Gaps and the cursor jumps forward so accounting stays consistent.
func (t *SeqTracker) Admit(node string, first uint64, n int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	next := t.next[node]
	end := first + uint64(n)
	if end <= next {
		t.dups += uint64(n)
		return n
	}
	skip := 0
	if first < next {
		skip = int(next - first)
		t.dups += uint64(skip)
	} else if first > next {
		t.gaps += first - next
	}
	t.next[node] = end
	return skip
}

// Dups returns the total duplicate events skipped.
func (t *SeqTracker) Dups() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dups
}

// Gaps returns the total sequence holes observed (events lost upstream).
func (t *SeqTracker) Gaps() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.gaps
}
