package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// collectSink records every delivered event (safe for concurrent queries).
type collectSink struct {
	mu  sync.Mutex
	evs []Event
}

func (c *collectSink) HandleEvent(ev Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evs = append(c.evs, ev)
}

func (c *collectSink) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.evs)
}

// TestCloseDeliversEventsEmittedAfterDrain is the shutdown regression test:
// events emitted after the caller's last explicit Drain (or after the
// background consumer's last round) must still reach — and be flushed
// through — every sink when the hub closes. Before Close ran its own final
// drain, these events sat in the rings while the JSONL buffer flushed,
// silently dropped at shutdown.
func TestCloseDeliversEventsEmittedAfterDrain(t *testing.T) {
	var out bytes.Buffer
	sink := &collectSink{}
	h := NewHub(HubConfig{Sinks: []Sink{sink, NewJSONLWriter(&out)}})

	h.Emit(Event{Kind: KindSwitch, View: "pre"})
	if n := h.Drain(); n != 1 {
		t.Fatalf("drained %d events, want 1", n)
	}
	// The shutdown window: emitted after the last Drain, before Close.
	for i := 0; i < 10; i++ {
		h.Emit(Event{Kind: KindUD2Trap, Addr: uint32(i)})
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sink.count(); got != 11 {
		t.Fatalf("sink saw %d events, want 11 (shutdown dropped the tail)", got)
	}
	if got := strings.Count(out.String(), "\n"); got != 11 {
		t.Fatalf("JSONL file has %d lines, want 11 (flush preceded the final drain)", got)
	}
	if h.Drops() != 0 {
		t.Fatalf("unexpected ring drops: %d", h.Drops())
	}
}

// TestCloseIdempotent pins that Close can be called more than once (the
// fleet node closes its hub on every reconnect teardown path).
func TestCloseIdempotent(t *testing.T) {
	h := NewHub(HubConfig{})
	h.Start()
	h.Emit(Event{Kind: KindSwitch})
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestJSONLWriterClose(t *testing.T) {
	var out bytes.Buffer
	j := NewJSONLWriter(&out)
	j.HandleEvent(Event{Kind: KindSwitch, View: "x"})
	if out.Len() != 0 {
		// The point of Close: nothing reaches the destination until a flush.
		t.Fatal("write was not buffered")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"switch"`) {
		t.Fatalf("closed sink lost its buffered tail: %q", out.String())
	}
}

func TestRemoteBufferBatchAndDrops(t *testing.T) {
	b := NewRemoteBuffer(4)
	for i := 0; i < 6; i++ {
		b.Emit(Event{Kind: KindSwitch, N: uint64(i)})
	}
	if b.Len() != 4 || b.Drops() != 2 {
		t.Fatalf("len=%d drops=%d, want 4/2", b.Len(), b.Drops())
	}
	scratch := make([]Event, 3)
	if n := b.PeekBatchInto(scratch); n != 3 || scratch[0].N != 0 || scratch[2].N != 2 {
		t.Fatalf("bad first batch: %d %+v", n, scratch[:n])
	}
	if b.Len() != 4 {
		t.Fatalf("peek consumed: len=%d, want 4", b.Len())
	}
	b.Commit(3)
	if n := b.PeekBatchInto(scratch); n != 1 || scratch[0].N != 3 {
		t.Fatalf("bad final batch: %d %+v", n, scratch[:n])
	}
	b.Commit(1)
	if n := b.PeekBatchInto(scratch); n != 0 || b.Len() != 0 {
		t.Fatalf("empty buffer returned a batch of %d (len %d)", n, b.Len())
	}
}

// TestBatchRelayRoundTrip drives the full relay: runtime-side buffer →
// wire batch → replay into a central hub with node stamping and fresh
// fleet-wide sequence numbers.
func TestBatchRelayRoundTrip(t *testing.T) {
	src := NewRemoteBuffer(0)
	src.Emit(Event{Kind: KindRecovery, Comm: "apache", N: 64})
	src.Emit(Event{Kind: KindSwitch, View: "apache", N: 1})

	scratch := make([]Event, 8)
	wire, err := EncodeBatch(scratch[:src.PeekBatchInto(scratch)])
	if err != nil {
		t.Fatal(err)
	}
	src.Commit(2)
	if src.Len() != 0 {
		t.Fatalf("source buffer holds %d events after commit, want 0", src.Len())
	}
	evs, err := DecodeBatch(wire)
	if err != nil {
		t.Fatal(err)
	}

	sink := &collectSink{}
	central := NewHub(HubConfig{Sinks: []Sink{sink}})
	ReplayInto(central, "node-7", evs)
	central.Drain()

	if len(sink.evs) != 2 {
		t.Fatalf("central hub delivered %d events, want 2", len(sink.evs))
	}
	for i, ev := range sink.evs {
		if ev.Node != "node-7" {
			t.Fatalf("event %d not stamped with node: %+v", i, ev)
		}
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d not re-sequenced by the central hub: seq=%d", i, ev.Seq)
		}
	}
	if sink.evs[0].Comm != "apache" || sink.evs[1].View != "apache" {
		t.Fatalf("payload fields lost in relay: %+v", sink.evs)
	}
}
