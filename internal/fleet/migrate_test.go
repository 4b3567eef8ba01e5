// An external test package: migrate pulls in evolve, which itself uses
// fleet for publishing — an import cycle from an in-package test.
package fleet_test

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"facechange"
	"facechange/internal/apps"
	"facechange/internal/core"
	"facechange/internal/fleet"
	"facechange/internal/migrate"
)

const waitFor = 10 * time.Second

// pipeDialer joins nodes over in-memory pipes whose server side stalls
// right after the HelloAck: a node that needs no chunks can finish its
// sync inside the stall, so any session state the server sets up after
// writing the HelloAck shows up as a race.
func pipeDialer(srv *fleet.Server) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		c, s := net.Pipe()
		go srv.ServeConn(&ackStallConn{Conn: s, stall: 10 * time.Millisecond})
		return c, nil
	}
}

// ackStallConn sleeps for stall once the session's first frame (the
// HelloAck) has been written in full; a pipe write returns only after the
// peer has read it.
type ackStallConn struct {
	net.Conn
	stall   time.Duration
	head    []byte // the first frame's 4-byte length prefix, as written
	written int
	done    bool
}

func (c *ackStallConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.done {
		return n, err
	}
	c.head = append(c.head, p[:min(n, 4-len(c.head))]...)
	c.written += n
	if len(c.head) == 4 && c.written >= 4+int(binary.BigEndian.Uint32(c.head)) {
		c.done = true
		time.Sleep(c.stall)
	}
	return n, err
}

// migrateMember is one runtime VM joined to the test fleet with a live
// migration agent.
type migrateMember struct {
	n  *fleet.Node
	vm *facechange.VM
}

// migrateFleet profiles one application, publishes it, and joins count
// runtime-backed nodes (node-0, node-1, ...) ready to migrate.
func migrateFleet(t *testing.T, count int) (*fleet.Server, apps.App, []*migrateMember) {
	return migrateFleetWith(t, count, nil)
}

// migrateFleetWith is migrateFleet with node i's agent replaced by
// wrap(i, agent) when wrap is non-nil.
func migrateFleetWith(t *testing.T, count int, wrap func(i int, a *migrate.Agent) fleet.MigrationAgent) (*fleet.Server, apps.App, []*migrateMember) {
	t.Helper()
	app, ok := apps.ByName("apache")
	if !ok {
		t.Fatal("no apache in the catalog")
	}
	views, err := facechange.ProfileAll([]apps.App{app}, facechange.ProfileConfig{Syscalls: 60})
	if err != nil {
		t.Fatal(err)
	}
	srv := fleet.NewServer(fleet.ServerConfig{})
	if err := srv.Publish(views[app.Name]); err != nil {
		t.Fatal(err)
	}
	store := fleet.NewChunkStore()
	var members []*migrateMember
	for i := 0; i < count; i++ {
		vm, err := facechange.NewVM(facechange.VMConfig{Modules: app.Modules})
		if err != nil {
			t.Fatal(err)
		}
		a := migrate.NewAgent(vm.Runtime, nil)
		var agent fleet.MigrationAgent = a
		if wrap != nil {
			agent = wrap(i, a)
		}
		n := fleet.NewNode(fleet.NodeConfig{
			ID:            fmt.Sprintf("node-%d", i),
			Dial:          pipeDialer(srv),
			Store:         store,
			Runtime:       vm.Runtime,
			Migrate:       agent,
			FlushInterval: 5 * time.Millisecond,
		})
		n.Start()
		if err := n.WaitDigest(srv.Catalog().Manifest().DigestString(), waitFor); err != nil {
			t.Fatal(err)
		}
		m := &migrateMember{n: n, vm: vm}
		t.Cleanup(func() { m.n.Close() })
		members = append(members, m)
	}
	return srv, app, members
}

// runWorkload executes the app on a member so its view accumulates real
// state — recovered spans, COW pages, switch history.
func runWorkload(t *testing.T, m *migrateMember, app apps.App, seed int64) {
	t.Helper()
	m.vm.Runtime.Enable()
	m.vm.StartApp(app, seed, 40)
	if err := m.vm.RunUntilDead(2_000_000_000); err != nil {
		t.Fatal(err)
	}
}

// TestServerMigrateEndToEnd drives the full two-phase cutover between two
// runtime-backed nodes: after the move the target binds the view (with
// the source's recovered state shipped as COW deltas) and the source has
// torn it down through the ordinary unload path — by the time Migrate
// returns, with no wait.
func TestServerMigrateEndToEnd(t *testing.T) {
	srv, app, members := migrateFleet(t, 2)
	runWorkload(t, members[0], app, 1)
	rt0, rt1 := members[0].vm.Runtime, members[1].vm.Runtime
	if rt0.ViewIndex(app.Name) == core.FullView {
		t.Fatal("precondition: source has no view bound")
	}

	mr, err := fleet.Migrate(srv, srv, app.Name, "node-0", "node-1", waitFor)
	if err != nil {
		t.Fatal(err)
	}
	if mr.App != app.Name || mr.Src != "node-0" || mr.Dst != "node-1" {
		t.Fatalf("result mislabeled: %+v", mr)
	}
	if mr.ImageBytes == 0 {
		t.Fatal("empty migration image")
	}

	if got := rt0.ViewIndex(app.Name); got != core.FullView {
		t.Fatalf("source still binds the view (%d) after commit", got)
	}
	if got := rt1.ViewIndex(app.Name); got == core.FullView {
		t.Fatal("target did not bind the migrated view")
	}
	for i, rt := range []*core.Runtime{rt0, rt1} {
		if err := rt.CheckSwitchState(); err != nil {
			t.Fatalf("node %d inconsistent after migration: %v", i, err)
		}
	}
	// The target serves the app under the migrated view.
	runWorkload(t, members[1], app, 2)

	// Guard rails.
	if _, err := fleet.Migrate(srv, srv, app.Name, "node-1", "node-1", waitFor); err == nil {
		t.Error("self-migration accepted")
	}
	if _, err := fleet.Migrate(srv, srv, app.Name, "node-1", "no-such-node", time.Second); err == nil {
		t.Error("migration to an unknown node accepted")
	}
}

// TestMigrateRightAfterJoin: a node whose WaitDigest has returned is a
// migration endpoint at once. node-1 joins through the store node-0
// already filled, so its sync references every chunk locally and commits
// inside the dialer's post-HelloAck stall — the server must have
// registered the session before writing the HelloAck.
func TestMigrateRightAfterJoin(t *testing.T) {
	srv, app, members := migrateFleet(t, 2)
	if !srv.HasNode("node-1") {
		t.Fatal("node-1 reports its catalog synced but has no session on the server")
	}
	mr, err := fleet.Migrate(srv, srv, app.Name, "node-1", "node-0", waitFor)
	if err != nil {
		t.Fatal(err)
	}
	if mr.Src != "node-1" || members[1].vm.Runtime.ViewIndex(app.Name) != core.FullView {
		t.Fatalf("source kept its view after the migration: %+v", mr)
	}
}

// TestMigrateAbortRestoresSource kills the target node between the
// checkpoint and the transfer — the mid-migration death ISSUE's satellite
// names. The orchestration aborts, the source thaws, and its view state
// is exactly what it was — same index, same recovered spans, still
// serving — as soon as the abort step returns.
func TestMigrateAbortRestoresSource(t *testing.T) {
	srv, app, members := migrateFleet(t, 2)
	runWorkload(t, members[0], app, 1)
	rt0 := members[0].vm.Runtime
	idx := rt0.ViewIndex(app.Name)
	if idx == core.FullView {
		t.Fatal("precondition: source has no view bound")
	}
	recBefore, _ := rt0.ViewByIndex(idx).Recovered().MarshalBinary()

	req, img, err := srv.RequestExport(app.Name, "node-0", "node-1", waitFor)
	if err != nil {
		t.Fatal(err)
	}
	// Freeze unbinds the name.
	if rt0.ViewIndex(app.Name) != core.FullView {
		t.Fatal("source not frozen after the checkpoint")
	}

	// The target dies mid-migration.
	members[1].n.Close()
	if _, _, err := srv.DeliverImport(req, app.Name, "node-1", img, time.Second); err == nil {
		t.Fatal("import on a dead node succeeded")
	}
	if err := srv.SignalOutcome(req, app.Name, "node-0", false, "target died mid-migration", waitFor); err != nil {
		t.Fatal(err)
	}

	if got := rt0.ViewIndex(app.Name); got != idx {
		t.Fatalf("view index %d after abort, want %d (source not restored)", got, idx)
	}
	recAfter, _ := rt0.ViewByIndex(idx).Recovered().MarshalBinary()
	if string(recBefore) != string(recAfter) {
		t.Fatal("recovered-span set changed across freeze/abort")
	}
	if err := rt0.CheckSwitchState(); err != nil {
		t.Fatalf("source inconsistent after abort: %v", err)
	}
	// The source keeps serving as if nothing happened.
	runWorkload(t, members[0], app, 2)
}

// TestMigrateSourceTeardownThaws covers the other death: the SOURCE's
// session ends while a checkpoint is frozen awaiting its directive. The
// session teardown must thaw it — frozen state never outlives the
// session that froze it, and Node.Close returns only after the thaw.
func TestMigrateSourceTeardownThaws(t *testing.T) {
	srv, app, members := migrateFleet(t, 2)
	runWorkload(t, members[0], app, 1)
	rt0 := members[0].vm.Runtime
	idx := rt0.ViewIndex(app.Name)

	if _, _, err := srv.RequestExport(app.Name, "node-0", "node-1", waitFor); err != nil {
		t.Fatal(err)
	}
	if rt0.ViewIndex(app.Name) != core.FullView {
		t.Fatal("source not frozen after the checkpoint")
	}
	members[0].n.Close()
	if got := rt0.ViewIndex(app.Name); got != idx {
		t.Fatalf("view index %d after teardown thaw, want %d", got, idx)
	}
	if err := rt0.CheckSwitchState(); err != nil {
		t.Fatalf("source inconsistent after teardown thaw: %v", err)
	}
}

// gatedAgent holds the source's Commit or Abort (whichever gate is
// non-nil) until the test closes the gate, signalling entered first.
type gatedAgent struct {
	*migrate.Agent
	commitGate, abortGate chan struct{}
	entered               chan struct{}
	settled               atomic.Bool // the wrapped Commit or Abort returned
}

func (g *gatedAgent) hold(gate chan struct{}) {
	if gate != nil {
		close(g.entered)
		<-gate
	}
}

func (g *gatedAgent) Commit(app string) error {
	g.hold(g.commitGate)
	defer g.settled.Store(true)
	return g.Agent.Commit(app)
}

func (g *gatedAgent) Abort(app string) error {
	g.hold(g.abortGate)
	defer g.settled.Store(true)
	return g.Agent.Abort(app)
}

// TestMigrateWaitsForSourceOutcome pins the directive round trip: with the
// source's Commit (or, when the target is gone, its Abort) held open,
// Migrate does not return; once the call returns, Migrate does too, and
// the source's view state reads settled without a poll — unbound after a
// commit, back at its old index after an abort.
func TestMigrateWaitsForSourceOutcome(t *testing.T) {
	for _, commit := range []bool{true, false} {
		name := map[bool]string{true: "commit", false: "abort"}[commit]
		t.Run(name, func(t *testing.T) {
			gate := make(chan struct{})
			src := &gatedAgent{entered: make(chan struct{})}
			if commit {
				src.commitGate = gate
			} else {
				src.abortGate = gate
			}
			srv, app, members := migrateFleetWith(t, 2, func(i int, a *migrate.Agent) fleet.MigrationAgent {
				if i != 0 {
					return a
				}
				src.Agent = a
				return src
			})
			// Registered after the nodes' cleanups, so it runs first: a
			// failing run must not leave a node's teardown stuck on the gate.
			var release sync.Once
			open := func() { release.Do(func() { close(gate) }) }
			t.Cleanup(open)
			runWorkload(t, members[0], app, 1)
			rt0 := members[0].vm.Runtime
			idx := rt0.ViewIndex(app.Name)
			if idx == core.FullView {
				t.Fatal("precondition: source has no view bound")
			}
			if !commit {
				// The import fails on a vanished target, so Migrate aborts.
				members[1].n.Close()
			}

			done := make(chan error, 1)
			go func() {
				_, err := fleet.Migrate(srv, srv, app.Name, "node-0", "node-1", waitFor)
				done <- err
			}()
			select {
			case <-src.entered:
			case err := <-done:
				t.Fatalf("Migrate returned (%v) before the source's %s began", err, name)
			case <-time.After(waitFor):
				t.Fatalf("the source's %s never began", name)
			}
			select {
			case err := <-done:
				t.Fatalf("Migrate returned (%v) while the source's %s was still running", err, name)
			case <-time.After(50 * time.Millisecond):
			}
			open()
			err := <-done
			if !src.settled.Load() {
				t.Fatalf("Migrate returned before the source's %s did", name)
			}
			if commit {
				if err != nil {
					t.Fatal(err)
				}
				if got := rt0.ViewIndex(app.Name); got != core.FullView {
					t.Fatalf("source binds the view (%d) after the commit", got)
				}
				if rt0.ViewByIndex(idx) != nil {
					t.Fatalf("source still holds view %d after the commit", idx)
				}
			} else {
				if err == nil {
					t.Fatal("migration to a closed node succeeded")
				}
				if got := rt0.ViewIndex(app.Name); got != idx {
					t.Fatalf("view index %d after the abort, want %d", got, idx)
				}
			}
			if err := rt0.CheckSwitchState(); err != nil {
				t.Fatalf("source inconsistent after the %s: %v", name, err)
			}
		})
	}
}

// slowFreezeAgent delays Freeze, so an export can time out before the
// source has frozen.
type slowFreezeAgent struct {
	*migrate.Agent
	delay time.Duration
}

func (s *slowFreezeAgent) Freeze(app string) error {
	time.Sleep(s.delay)
	return s.Agent.Freeze(app)
}

// TestMigrateExportTimeoutThaws: the source freezes only after the export
// has timed out. Migrate still fails, but its abort reaches the source
// behind the offer, so by the time Migrate returns the source has thawed
// and a retry can move the app.
func TestMigrateExportTimeoutThaws(t *testing.T) {
	const timeout = 500 * time.Millisecond
	srv, app, members := migrateFleetWith(t, 2, func(i int, a *migrate.Agent) fleet.MigrationAgent {
		if i != 0 {
			return a
		}
		return &slowFreezeAgent{Agent: a, delay: timeout * 3 / 2}
	})
	runWorkload(t, members[0], app, 1)
	rt0 := members[0].vm.Runtime
	idx := rt0.ViewIndex(app.Name)
	if idx == core.FullView {
		t.Fatal("precondition: source has no view bound")
	}
	if _, err := fleet.Migrate(srv, srv, app.Name, "node-0", "node-1", timeout); err == nil {
		t.Fatal("export outlasting its timeout succeeded")
	}
	if got := rt0.ViewIndex(app.Name); got != idx {
		t.Fatalf("view index %d after the failed export, want %d (source left frozen)", got, idx)
	}
	if _, err := fleet.Migrate(srv, srv, app.Name, "node-0", "node-1", 2*timeout); err != nil {
		t.Fatalf("retry after the failed export: %v", err)
	}
}
