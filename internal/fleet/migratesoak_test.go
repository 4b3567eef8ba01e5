package fleet_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"facechange"
	"facechange/internal/apps"
	"facechange/internal/core"
	"facechange/internal/fleet"
	"facechange/internal/kview"
	"facechange/internal/migrate"
	"facechange/internal/telemetry"
)

// cloneView copies a profiled view under a new instance name; the clone's
// content is byte-identical per space, so every instance interns onto the
// same catalog chunks.
func cloneView(src *kview.View, name string) *kview.View {
	v := kview.NewView(name)
	for _, sp := range src.SpaceNames() {
		for _, r := range src.Ranges(sp) {
			v.Insert(sp, r.Start, r.End)
		}
	}
	return v
}

// markerSink counts the soak's synthetic telemetry stream, keyed by the
// view marker, so runtime events flowing through the same hub don't blur
// the exactness assertion.
type markerSink struct {
	mu    sync.Mutex
	total int
}

func (s *markerSink) HandleEvent(ev telemetry.Event) {
	if ev.View == "soak-evt" {
		s.mu.Lock()
		s.total++
		s.mu.Unlock()
	}
}

func (s *markerSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// TestMigrateSoakUnderChurn is the -race migration soak: 20 app instances
// over 6 runtime-backed nodes, every instance live-migrated once while the
// catalog churns (rolling re-publishes hot-plugging into every runtime)
// and every node streams telemetry. Afterwards the fleet must agree on one
// digest, the synthetic event count must be exact (zero loss, zero double
// count), every runtime's switch state must verify, and migrated apps must
// still serve on their new homes.
func TestMigrateSoakUnderChurn(t *testing.T) {
	const (
		nNodes        = 6
		nApps         = 20
		eventsPerNode = 300
	)
	baseNames := []string{"apache", "gzip", "vsftpd", "eog"}
	bases := make([]apps.App, len(baseNames))
	for i, name := range baseNames {
		a, ok := apps.ByName(name)
		if !ok {
			t.Fatalf("no %s in the catalog", name)
		}
		bases[i] = a
	}
	views, err := facechange.ProfileAll(bases, facechange.ProfileConfig{Syscalls: 60})
	if err != nil {
		t.Fatal(err)
	}

	// 20 instances round-robined over the base apps, each its own view.
	instApps := make([]apps.App, nApps)
	instViews := make([]*kview.View, nApps)
	for i := 0; i < nApps; i++ {
		base := bases[i%len(bases)]
		inst := base
		inst.Name = fmt.Sprintf("soak-%02d", i)
		instApps[i] = inst
		instViews[i] = cloneView(views[base.Name], inst.Name)
	}

	sink := &markerSink{}
	hub := telemetry.NewHub(telemetry.HubConfig{CPUs: 1, RingSize: 1 << 15, Sinks: []telemetry.Sink{sink}})
	hub.Start()
	defer hub.Close()
	srv := fleet.NewServer(fleet.ServerConfig{Hub: hub})
	for _, v := range instViews {
		if err := srv.Publish(v); err != nil {
			t.Fatal(err)
		}
	}

	store := fleet.NewChunkStore()
	members := make([]*migrateMember, nNodes)
	for i := range members {
		vm, err := facechange.NewVM(facechange.VMConfig{})
		if err != nil {
			t.Fatal(err)
		}
		n := fleet.NewNode(fleet.NodeConfig{
			ID:            fmt.Sprintf("node-%d", i),
			Dial:          pipeDialer(srv),
			Store:         store,
			Runtime:       vm.Runtime,
			Migrate:       migrate.NewAgent(vm.Runtime, nil),
			FlushInterval: 5 * time.Millisecond,
			Logf:          t.Logf,
		})
		n.Start()
		if err := n.WaitDigest(srv.Catalog().Manifest().DigestString(), waitFor); err != nil {
			t.Fatal(err)
		}
		m := &migrateMember{n: n, vm: vm}
		t.Cleanup(func() { m.n.Close() })
		members[i] = m
	}

	// Each instance runs a real workload on its home node so its view
	// accumulates recovered spans and COW pages worth migrating.
	assign := make([]int, nApps)
	for i := range assign {
		assign[i] = i % nNodes
	}
	for ni, m := range members {
		m.vm.Runtime.Enable()
		for i := range instApps {
			if assign[i] == ni {
				m.vm.StartApp(instApps[i], int64(i+1), 30)
			}
		}
		if err := m.vm.RunUntilDead(2_000_000_000); err != nil {
			t.Fatal(err)
		}
	}
	for i := range instApps {
		if members[assign[i]].vm.Runtime.ViewIndex(instApps[i].Name) == core.FullView {
			t.Fatalf("precondition: %s not bound on node-%d", instApps[i].Name, assign[i])
		}
	}

	// Churn: a rolling publisher rewrites three churn views (hot-plugging
	// into every runtime mid-migration) while every node streams a fixed
	// synthetic telemetry load.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 18; i++ {
			v := cloneView(views[baseNames[i%len(baseNames)]], fmt.Sprintf("churn-%d", i%3))
			if err := srv.Publish(v); err != nil {
				t.Errorf("churn publish: %v", err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	for _, m := range members {
		wg.Add(1)
		go func(m *migrateMember) {
			defer wg.Done()
			for i := 0; i < eventsPerNode; i++ {
				m.n.Telemetry().Emit(telemetry.Event{Kind: telemetry.KindSwitch, N: uint64(i), View: "soak-evt"})
				if i%50 == 0 {
					time.Sleep(time.Millisecond)
				}
			}
		}(m)
	}

	// Migrate every instance once, mid-churn. Catalog churn legitimately
	// bounces node sessions ("catalog moved; re-syncing"), so a move that
	// catches a node in its reconnect window fails transiently — every
	// failure path thaws the source (a dead session's teardown may do so
	// after Migrate returns, and the retry is refused until it has),
	// making the retry safe.
	for i := 0; i < nApps; i++ {
		src := assign[i]
		dst := (src + 1 + i%(nNodes-1)) % nNodes
		name := instApps[i].Name
		var mr *fleet.MigrateResult
		var err error
		for deadline := time.Now().Add(waitFor); ; {
			mr, err = fleet.Migrate(srv, srv, name, fmt.Sprintf("node-%d", src), fmt.Sprintf("node-%d", dst), waitFor)
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("migrate %s node-%d>node-%d: %v", name, src, dst, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if mr.ImageBytes == 0 {
			t.Fatalf("migrate %s: empty image", name)
		}
		// The commit has landed on the source; it may legitimately
		// re-load a pristine catalog copy at the next churn sync, so only
		// the target binding is asserted here.
		if members[dst].vm.Runtime.ViewIndex(name) == core.FullView {
			t.Fatalf("%s not bound on target node-%d", name, dst)
		}
		assign[i] = dst
	}
	wg.Wait()

	// Exactness: every synthetic event reaches the hub exactly once. Empty
	// node buffers mean the server admitted every event into the hub, and
	// one Drain then delivers them to the sink.
	nodes := make([]*fleet.Node, len(members))
	for i, m := range members {
		nodes[i] = m.n
	}
	if err := fleet.WaitRelayed(waitFor, nodes...); err != nil {
		t.Fatal(err)
	}
	hub.Drain()
	if got := sink.count(); got != nNodes*eventsPerNode {
		t.Fatalf("hub saw %d soak events, want exactly %d", got, nNodes*eventsPerNode)
	}
	for _, m := range members {
		if d := m.n.Telemetry().Drops(); d != 0 {
			t.Fatalf("node %s dropped %d telemetry events", m.n.Status().ID, d)
		}
	}

	// Convergence: after the churn, every node agrees on the final digest
	// and every runtime's switch state verifies.
	final := srv.Catalog().Manifest().DigestString()
	for i, m := range members {
		if err := m.n.WaitDigest(final, waitFor); err != nil {
			t.Fatalf("node-%d never converged: %v", i, err)
		}
		if err := m.vm.Runtime.CheckSwitchState(); err != nil {
			t.Fatalf("node-%d inconsistent after soak: %v", i, err)
		}
	}

	// Migrated instances keep serving on their new homes.
	for i := 0; i < 3; i++ {
		m := members[assign[i]]
		m.vm.StartApp(instApps[i], int64(100+i), 20)
		if err := m.vm.RunUntilDead(2_000_000_000); err != nil {
			t.Fatalf("%s dead on its new home: %v", instApps[i].Name, err)
		}
	}
}
