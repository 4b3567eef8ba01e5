package shard

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"facechange/internal/fleet"
	"facechange/internal/telemetry"
)

// nodeAccountant counts events per origin node as they leave the
// aggregator hub — the ground truth for exact fleet-wide accounting.
type nodeAccountant struct {
	mu     sync.Mutex
	counts map[string]uint64
}

func (a *nodeAccountant) HandleEvent(ev telemetry.Event) {
	a.mu.Lock()
	a.counts[ev.Node]++
	a.mu.Unlock()
}

func (a *nodeAccountant) count(node string) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.counts[node]
}

func (a *nodeAccountant) total() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var t uint64
	for _, c := range a.counts {
		t += c
	}
	return t
}

// TestShardSoak is the plane's survival proof: 110 nodes across a
// 3-shard plane, catalog churn and telemetry in full flight, one
// non-aggregator shard killed mid-run. Afterwards every node has
// converged to the plane's catalog digest, the shard-map gossip epoch
// has propagated to every node, the aggregator's accounting is *exact*
// (every emitted event delivered exactly once, none lost, none
// double-counted), and no node re-downloaded a chunk it already held —
// failover resumed delta sync from interned chunks.
func TestShardSoak(t *testing.T) {
	const (
		nodes        = 110
		eventsPer    = 120
		churnRounds  = 8
		initialViews = 6
	)

	acct := &nodeAccountant{counts: make(map[string]uint64)}
	hub := telemetry.NewHub(telemetry.HubConfig{CPUs: 1, RingSize: 1 << 15, Sinks: []telemetry.Sink{acct}})
	hub.Start()
	defer hub.Close()

	p, err := NewPlane(PlaneConfig{
		Shards: []fleet.ShardInfo{{ID: "s-a"}, {ID: "s-b"}, {ID: "s-c"}},
		Hub:    hub,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	for i := 0; i < initialViews; i++ {
		if err := p.Publish(testView(fmt.Sprintf("app-%d", i), 3, uint32(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Every node gets a PRIVATE chunk store: DupPuts on it then counts
	// this node's own wasted downloads, including any re-download a
	// botched failover resume would cause.
	ns := make([]*fleet.Node, nodes)
	homers := make([]*Homing, nodes)
	stores := make([]*fleet.ChunkStore, nodes)
	for i := range ns {
		id := fmt.Sprintf("node-%03d", i)
		homers[i] = p.NodeDialer(id)
		stores[i] = fleet.NewChunkStore()
		cfg := fastNodeCfg(id, homers[i])
		cfg.Store = stores[i]
		ns[i] = fleet.NewNode(cfg)
		ns[i].Start()
	}
	defer func() {
		for _, n := range ns {
			n.Close()
		}
	}()

	// Drivers: each node emits its quota in small bursts spread across
	// the churn and the kill.
	var drivers sync.WaitGroup
	for i := range ns {
		drivers.Add(1)
		go func(n *fleet.Node, seed int) {
			defer drivers.Done()
			for e := 0; e < eventsPer; e++ {
				n.Telemetry().Emit(telemetry.Event{
					Kind:  telemetry.KindSwitch,
					Cycle: uint64(seed*eventsPer + e),
					CPU:   seed % 4,
				})
				if e%8 == 7 {
					time.Sleep(time.Millisecond)
				}
			}
		}(ns[i], i)
	}

	// Churn: republish evolving views while telemetry flows.
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for r := 0; r < churnRounds; r++ {
			for i := 0; i < initialViews; i++ {
				v := testView(fmt.Sprintf("app-%d", i), 3, uint32(i+100*(r+1)))
				if err := p.Publish(v); err != nil {
					t.Errorf("churn publish: %v", err)
					return
				}
			}
			time.Sleep(3 * time.Millisecond)
		}
	}()

	// Kill a non-aggregator shard mid-churn, while drivers are emitting.
	preKill := BuildRing(p.Map())
	time.Sleep(20 * time.Millisecond)
	if err := p.Kill("s-b"); err != nil {
		t.Fatal(err)
	}

	<-churnDone
	drivers.Wait()

	// Convergence: every shard, then every node, reaches the plane's
	// expected digest.
	if err := p.WaitConverged(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	want := p.Digest()
	for _, n := range ns {
		if err := n.WaitDigest(want, 15*time.Second); err != nil {
			st := n.Status()
			t.Fatalf("%v (status: server=%q gen=%d connected=%v syncs=%d retries=%d staleskips=%d retrystep=%v)",
				err, st.Server, st.Gen, st.Connected, st.Syncs, st.Retries, st.StaleSkips, st.RetryStep)
		}
	}

	// Drain: node relay buffers empty (everything acked end-to-end),
	// shard relay queues empty (everything handed to the aggregator).
	deadline := time.Now().Add(15 * time.Second)
	for {
		pending := 0
		for _, n := range ns {
			pending += n.Telemetry().Len()
		}
		for _, id := range p.Alive() {
			m, _ := p.Member(id)
			pending += m.QueueLen()
		}
		if pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("telemetry never drained: %d events still pending", pending)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Barrier: Drain waits out any round the background consumer is still
	// delivering, then delivers the rest.
	hub.Drain()

	// Exact accounting: every event exactly once, per node and in total.
	const total = nodes * eventsPer
	if got := hub.Emitted(); got != total {
		t.Fatalf("aggregator hub emitted %d events, want exactly %d", got, total)
	}
	if d := hub.Drops(); d != 0 {
		t.Fatalf("aggregator hub dropped %d events", d)
	}
	if got := acct.total(); got != total {
		t.Fatalf("sink accounted %d events, want exactly %d", got, total)
	}
	for i, n := range ns {
		id := fmt.Sprintf("node-%03d", i)
		if got := acct.count(id); got != eventsPer {
			t.Fatalf("node %q: %d events at aggregator, want exactly %d", id, got, eventsPer)
		}
		if d := n.Telemetry().Drops(); d != 0 {
			t.Fatalf("node %q: relay buffer dropped %d events", id, d)
		}
	}

	// Failover economy: no node ever downloaded a chunk it already held —
	// the re-homed third of the fleet resumed delta sync from interned
	// chunks.
	for i := range stores {
		if d := stores[i].DupPuts(); d != 0 {
			t.Fatalf("node-%03d re-downloaded %d resident chunks across failover", i, d)
		}
	}

	// Gossip convergence: every node holds the post-kill epoch and a map
	// without the dead shard.
	epoch := p.Map().Epoch
	for i, n := range ns {
		m, ok := n.ShardMap()
		if !ok || m.Epoch != epoch {
			gotEpoch := uint64(0)
			if ok {
				gotEpoch = m.Epoch
			}
			t.Fatalf("node-%03d shard map epoch %d, want %d", i, gotEpoch, epoch)
		}
		for _, s := range m.Shards {
			if s.ID == "s-b" {
				t.Fatalf("node-%03d still gossips the killed shard", i)
			}
		}
	}

	// The killed shard's nodes left it: no node is homed there, and some
	// had their ring home on it.
	moved := 0
	for i := range homers {
		if homers[i].Home() == "s-b" {
			t.Fatalf("node-%03d still homed on the killed shard", i)
		}
		if preKill.Walk(fmt.Sprintf("node-%03d", i))[0] == "s-b" {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no node was homed on the killed shard — the kill hit an empty shard?")
	}
	t.Logf("soak: %d nodes, %d events, %d re-homed, epoch %d, digest %s", nodes, total, moved, epoch, want)
}
