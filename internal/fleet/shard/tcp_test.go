package shard

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"facechange"
	"facechange/internal/apps"
	"facechange/internal/core"
	"facechange/internal/fleet"
	"facechange/internal/migrate"
	"facechange/internal/telemetry"
)

// TestTCPTransportCrossHostLoopback runs the whole plane over real TCP
// sockets on loopback — each member on its own listener, exactly the
// wiring cross-host members would use — and proves the fabric carries
// every path: mirror replication, external node sync, and failover via
// refused dials after a member's listener closes.
func TestTCPTransportCrossHostLoopback(t *testing.T) {
	p, err := NewPlane(PlaneConfig{
		Shards:    testShards(),
		Transport: TCPTransport{DialTimeout: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Every member must gossip a real bound address, each its own.
	seen := map[string]bool{}
	for _, si := range p.Map().Shards {
		if !strings.Contains(si.Addr, "127.0.0.1:") {
			t.Fatalf("shard %q gossips %q, want a bound loopback address", si.ID, si.Addr)
		}
		if seen[si.Addr] {
			t.Fatalf("two shards share listener %q", si.Addr)
		}
		seen[si.Addr] = true
	}

	for i := 0; i < 6; i++ {
		if err := p.Publish(testView(fmt.Sprintf("app-%d", i), 2, uint32(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// An external node joins over TCP, homed off the aggregator so its
	// shard can die underneath it.
	ring := BuildRing(p.Map())
	nodeID := ""
	for i := 0; i < 1000; i++ {
		if id := fmt.Sprintf("node-%d", i); ring.Owner(id) != "s-a" {
			nodeID = id
			break
		}
	}
	home := ring.Owner(nodeID)
	h := p.NodeDialer(nodeID)
	n := fleet.NewNode(fastNodeCfg(nodeID, h))
	n.Start()
	defer n.Close()
	if err := n.WaitDigest(p.Digest(), 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// Kill the node's home: its TCP listener closes, dials are refused,
	// and the node must walk the ring to a survivor and keep syncing.
	if err := p.Kill(home); err != nil {
		t.Fatal(err)
	}
	for i := 6; i < 9; i++ {
		if err := p.Publish(testView(fmt.Sprintf("app-%d", i), 2, uint32(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := n.WaitDigest(p.Digest(), 10*time.Second); err != nil {
		t.Fatalf("node never re-synced over TCP after its home died: %v", err)
	}
	if h.Home() == home {
		t.Fatalf("node still homed on killed shard %q", home)
	}
}

// TestPickMigrateTargetRingAlignment: the chosen target is the candidate
// whose ring home owns the view, independent of candidate order, and the
// fallback (no aligned candidate) is the deterministic smallest.
func TestPickMigrateTargetRingAlignment(t *testing.T) {
	p, err := NewPlane(PlaneConfig{Shards: testShards()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Publish(testView("app-0", 2, 0)); err != nil {
		t.Fatal(err)
	}
	if err := p.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	agg, _ := p.Member(p.Aggregator())
	vd := agg.Server().Catalog().Manifest().Views[0].Digest
	owner := p.ring.OwnerDigest(vd)

	var aligned, off1, off2 string
	for i := 0; i < 1000 && (aligned == "" || off1 == "" || off2 == ""); i++ {
		id := fmt.Sprintf("cand-%d", i)
		switch {
		case p.ring.Owner(id) == owner && aligned == "":
			aligned = id
		case p.ring.Owner(id) != owner && off1 == "":
			off1 = id
		case p.ring.Owner(id) != owner && off2 == "":
			off2 = id
		}
	}
	if aligned == "" || off2 == "" {
		t.Fatal("could not synthesize candidates")
	}

	for _, order := range [][]string{
		{aligned, off1, off2},
		{off2, aligned, off1},
		{off1, off2, aligned},
	} {
		got, ok := p.PickMigrateTarget(vd, order)
		if got != aligned || !ok {
			t.Fatalf("order %v picked %q (aligned=%v), want %q", order, got, ok, aligned)
		}
	}
	want := off1
	if off2 < off1 {
		want = off2
	}
	if got, ok := p.PickMigrateTarget(vd, []string{off2, off1}); got != want || ok {
		t.Fatalf("fallback picked %q (aligned=%v), want smallest %q unaligned", got, ok, want)
	}
	if got, ok := p.PickMigrateTarget(vd, nil); got != "" || ok {
		t.Fatalf("empty candidates returned %q %v", got, ok)
	}
}

// TestPlaneMigrateCrossShard moves a live view between two runtime-backed
// nodes homed on different shards: export on one member, import on
// another, directive back through the first — the composed cutover. The
// source has unloaded by the time Migrate returns, and the plane's
// metrics count the commit and a refused second move.
func TestPlaneMigrateCrossShard(t *testing.T) {
	app, ok := apps.ByName("apache")
	if !ok {
		t.Fatal("no apache in the catalog")
	}
	views, err := facechange.ProfileAll([]apps.App{app}, facechange.ProfileConfig{Syscalls: 60})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlane(PlaneConfig{Shards: testShards()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Publish(views[app.Name]); err != nil {
		t.Fatal(err)
	}
	if err := p.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Two node IDs homed on different shards, so the move must compose
	// across members.
	ring := BuildRing(p.Map())
	var srcID, dstID string
	for i := 0; i < 1000 && dstID == ""; i++ {
		id := fmt.Sprintf("node-%d", i)
		switch {
		case srcID == "":
			srcID = id
		case ring.Owner(id) != ring.Owner(srcID):
			dstID = id
		}
	}
	if dstID == "" {
		t.Fatal("could not find nodes homed on distinct shards")
	}

	store := fleet.NewChunkStore()
	mk := func(id string) *facechange.VM {
		vm, err := facechange.NewVM(facechange.VMConfig{Modules: app.Modules})
		if err != nil {
			t.Fatal(err)
		}
		h := p.NodeDialer(id)
		cfg := fastNodeCfg(id, h)
		cfg.Store = store
		cfg.Runtime = vm.Runtime
		cfg.Migrate = migrate.NewAgent(vm.Runtime, nil)
		n := fleet.NewNode(cfg)
		n.Start()
		t.Cleanup(n.Close)
		if err := n.WaitDigest(p.Digest(), 10*time.Second); err != nil {
			t.Fatal(err)
		}
		return vm
	}
	src, dst := mk(srcID), mk(dstID)
	srcM, dstM := p.MemberWithNode(srcID), p.MemberWithNode(dstID)
	if srcM == nil || dstM == nil || srcM == dstM {
		t.Fatal("precondition: the two nodes must have sessions on two different live shards")
	}

	src.Runtime.Enable()
	src.StartApp(app, 1, 40)
	if err := src.RunUntilDead(2_000_000_000); err != nil {
		t.Fatal(err)
	}

	mr, err := p.Migrate(app.Name, srcID, dstID, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if mr.ImageBytes == 0 {
		t.Fatal("empty migration image")
	}
	if got := src.Runtime.ViewIndex(app.Name); got != core.FullView {
		t.Fatalf("source still binds the view (%d)", got)
	}
	if got := dst.Runtime.ViewIndex(app.Name); got == core.FullView {
		t.Fatal("target did not bind the migrated view")
	}
	wantMigrateCounts(t, p, 1, 0)

	// The source no longer holds the app, so it refuses a second move.
	if _, err := p.Migrate(app.Name, srcID, dstID, 10*time.Second); err == nil {
		t.Fatal("a second move of a migrated app succeeded")
	}
	wantMigrateCounts(t, p, 1, 1)
}

// wantMigrateCounts checks the plane's migration counters, summed over the
// live members' metrics.
func wantMigrateCounts(t *testing.T, p *Plane, commits, failures float64) {
	t.Helper()
	sum := map[string]float64{}
	for _, id := range p.Alive() {
		m, _ := p.Member(id)
		var sb strings.Builder
		m.Server().WriteMetrics(telemetry.NewMetricsWriter(&sb))
		for _, line := range strings.Split(sb.String(), "\n") {
			f := strings.Fields(line)
			if len(f) != 2 || strings.HasPrefix(line, "#") {
				continue
			}
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				t.Fatalf("metric line %q: %v", line, err)
			}
			sum[f[0]] += v
		}
	}
	if got := sum["facechange_fleet_migrations_total"]; got != commits {
		t.Errorf("facechange_fleet_migrations_total = %v over the plane, want %v", got, commits)
	}
	if got := sum["facechange_fleet_migrate_failures_total"]; got != failures {
		t.Errorf("facechange_fleet_migrate_failures_total = %v over the plane, want %v", got, failures)
	}
}
