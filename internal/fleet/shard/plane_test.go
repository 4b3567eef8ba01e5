package shard

import (
	"fmt"
	"testing"
	"time"

	"facechange/internal/fleet"
	"facechange/internal/kview"
	"facechange/internal/telemetry"
)

func testShards() []fleet.ShardInfo {
	return []fleet.ShardInfo{{ID: "s-a"}, {ID: "s-b"}, {ID: "s-c"}}
}

func testView(name string, nranges int, seed uint32) *kview.View {
	v := kview.NewView(name)
	base := uint32(0x1000) + seed*8
	for i := 0; i < nranges; i++ {
		start := base + uint32(i)*16
		v.Insert(kview.BaseKernel, start, start+8)
	}
	return v
}

func fastNodeCfg(id string, h *Homing) fleet.NodeConfig {
	return fleet.NodeConfig{
		ID:            id,
		Dial:          h.Dial,
		OnShardMap:    h.OnShardMap,
		Backoff:       fleet.BackoffConfig{Base: time.Millisecond, Max: 20 * time.Millisecond},
		FlushInterval: time.Millisecond,
	}
}

// TestPlaneReplication: publishes land on their ring owners but every
// member converges to the full catalog via the mirror mesh.
func TestPlaneReplication(t *testing.T) {
	p, err := NewPlane(PlaneConfig{Shards: testShards()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 9; i++ {
		if err := p.Publish(testView(fmt.Sprintf("app-%d", i), 3, uint32(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	want := p.Digest()
	for _, id := range p.Alive() {
		m, _ := p.Member(id)
		if got := m.Server().Catalog().Manifest().DigestString(); got != want {
			t.Fatalf("shard %q digest %s, want %s", id, got, want)
		}
		if views := len(m.Server().Catalog().Manifest().Views); views != 9 {
			t.Fatalf("shard %q holds %d views, want 9", id, views)
		}
	}
}

// TestPlaneNodeSync: an external node homes onto its ring shard, learns
// the shard map via gossip, and syncs the complete catalog (not just its
// home shard's partition).
func TestPlaneNodeSync(t *testing.T) {
	p, err := NewPlane(PlaneConfig{Shards: testShards()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 6; i++ {
		if err := p.Publish(testView(fmt.Sprintf("app-%d", i), 2, uint32(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	h := p.NodeDialer("node-1")
	n := fleet.NewNode(fastNodeCfg("node-1", h))
	n.Start()
	defer n.Close()
	if err := n.WaitDigest(p.Digest(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if m, ok := n.ShardMap(); ok && m.Epoch == p.Map().Epoch {
			if len(m.Shards) != 3 {
				t.Fatalf("gossiped map has %d shards, want 3", len(m.Shards))
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("node never received the shard map gossip")
		}
		time.Sleep(time.Millisecond)
	}
	if home := h.Home(); home != BuildRing(p.Map()).Owner("node-1") {
		t.Fatalf("node homed on %q, ring owner is %q", home, BuildRing(p.Map()).Owner("node-1"))
	}
}

// TestPlaneFailover: killing a node's home shard re-homes it onto the
// ring successor, where it adopts the successor's catalog despite the
// per-server generation counters (the v2 serverID suspends the stale
// guard), and later publishes still reach it.
func TestPlaneFailover(t *testing.T) {
	p, err := NewPlane(PlaneConfig{Shards: testShards()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 6; i++ {
		if err := p.Publish(testView(fmt.Sprintf("app-%d", i), 2, uint32(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Pick a node ID homed on a non-aggregator shard so we can kill its
	// home.
	ring := BuildRing(p.Map())
	nodeID := ""
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("node-%d", i)
		if ring.Owner(id) != "s-a" {
			nodeID = id
			break
		}
	}
	if nodeID == "" {
		t.Fatal("no node id homes off the aggregator")
	}
	home := ring.Owner(nodeID)

	h := p.NodeDialer(nodeID)
	n := fleet.NewNode(fastNodeCfg(nodeID, h))
	n.Start()
	defer n.Close()
	if err := n.WaitDigest(p.Digest(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if h.Home() != home {
		t.Fatalf("node homed on %q, want %q", h.Home(), home)
	}

	if err := p.Kill(home); err != nil {
		t.Fatal(err)
	}
	// New publishes only exist post-kill; seeing them proves the node
	// re-homed and resumed syncing.
	for i := 6; i < 9; i++ {
		if err := p.Publish(testView(fmt.Sprintf("app-%d", i), 2, uint32(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := n.WaitDigest(p.Digest(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if h.Home() == home {
		t.Fatalf("node still homed on killed shard %q", home)
	}
	if st := n.Status(); st.Server == home || st.Server == "" {
		t.Fatalf("last sync came from %q, want a survivor", st.Server)
	}
}

// TestPlaneTelemetryRelay: events emitted at a node homed on a leaf
// shard arrive — exactly once, node-stamped — at the aggregator hub via
// the hub-to-hub relay.
func TestPlaneTelemetryRelay(t *testing.T) {
	type countSink struct {
		mu     chan struct{}
		counts map[string]int
	}
	sink := &countSink{mu: make(chan struct{}, 1), counts: make(map[string]int)}
	sink.mu <- struct{}{}
	handle := telemetry.EmitterFunc(func(ev telemetry.Event) {
		<-sink.mu
		sink.counts[ev.Node]++
		sink.mu <- struct{}{}
	})
	hub := telemetry.NewHub(telemetry.HubConfig{CPUs: 1, RingSize: 1 << 14, Sinks: []telemetry.Sink{sinkFunc(handle)}})
	p, err := NewPlane(PlaneConfig{Shards: testShards(), Hub: hub})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Publish(testView("app-0", 2, 0)); err != nil {
		t.Fatal(err)
	}

	ring := BuildRing(p.Map())
	nodeID := ""
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("node-%d", i)
		if ring.Owner(id) != "s-a" {
			nodeID = id
			break
		}
	}
	h := p.NodeDialer(nodeID)
	n := fleet.NewNode(fastNodeCfg(nodeID, h))
	n.Start()
	defer n.Close()
	if err := n.WaitDigest(p.Digest(), 5*time.Second); err != nil {
		t.Fatal(err)
	}

	const emitN = 1000
	for i := 0; i < emitN; i++ {
		n.Telemetry().Emit(telemetry.Event{Kind: telemetry.KindSwitch, Cycle: uint64(i)})
	}
	deadline := time.Now().Add(5 * time.Second)
	for n.Telemetry().Len() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("node buffer never drained: %d left", n.Telemetry().Len())
		}
		time.Sleep(time.Millisecond)
	}
	// An empty node buffer means every batch was acknowledged, and the
	// leaf acknowledges only what the aggregator admitted; Drain then
	// delivers it all.
	hub.Drain()
	if got := hub.Emitted(); got != emitN {
		t.Fatalf("aggregator hub emitted %d events, want %d", got, emitN)
	}
	if d := hub.Drops(); d != 0 {
		t.Fatalf("aggregator hub dropped %d events", d)
	}
	<-sink.mu
	got := sink.counts[nodeID]
	sink.mu <- struct{}{}
	if got != emitN {
		t.Fatalf("sink saw %d events from %q, want %d (counts %v)", got, nodeID, emitN, sink.counts)
	}
}

// sinkFunc adapts an EmitterFunc to the Sink interface.
type sinkFunc telemetry.EmitterFunc

func (f sinkFunc) HandleEvent(ev telemetry.Event) { telemetry.EmitterFunc(f)(ev) }
