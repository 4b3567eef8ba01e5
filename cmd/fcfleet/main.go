// Command fcfleet runs the FACE-CHANGE view-distribution control plane in
// any of its three roles:
//
//   - demo (default, -nodes N): an in-process fleet — a one-shard control
//     plane, N runtime VMs joined over pipes — profiles the catalog,
//     delta-syncs it to every node, runs per-node workloads, hot-pushes
//     an updated view, and prints per-node convergence digests. With
//     -listen, the fleet-wide /metrics (central hub + control plane)
//     stays served after the run. With -shards N the plane has N shards
//     (ring-partitioned catalog, homing nodes, relayed telemetry);
//     -kill-shard severs one shard mid-run to demo failover, and -ring
//     prints the consistent-hash ownership of every view.
//
//   - server (-serve ADDR): profile the catalog once and serve it to
//     remote nodes over TCP, relaying their telemetry into the central
//     hub exposed on -listen.
//
//   - node (-join ADDR): boot a runtime VM, join a remote server, sync
//     views, run the workload, and keep degrading gracefully to the last
//     synced catalog if the server goes away.
//
//     fcfleet -nodes 4 -listen 127.0.0.1:9140 -hold
//     fcfleet -nodes 6 -shards 3 -kill-shard -ring
//     fcfleet -serve :7200 -listen :9140
//     fcfleet -join server:7200 -app apache
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"facechange"
	"facechange/internal/apps"
	"facechange/internal/eval"
	"facechange/internal/fleet"
	"facechange/internal/telemetry"
)

func main() {
	var (
		nodes    = flag.Int("nodes", 4, "demo mode: in-process fleet size")
		shards   = flag.Int("shards", 1, "demo mode: shard the control plane this many ways (ring-routed catalog, homing nodes, relayed telemetry)")
		killSh   = flag.Bool("kill-shard", false, "demo mode with -shards: sever one non-aggregator shard mid-run (failover demo)")
		ring     = flag.Bool("ring", false, "demo mode with -shards: print the consistent-hash ownership of every catalog view")
		appsFlag = flag.String("apps", "apache,gzip", "catalog applications (csv)")
		migrateF = flag.String("migrate", "", "demo mode: live-migrate an app's view state after the workloads, e.g. apache@node-0>node-1 (dst \"auto\" picks the ring-aligned target)")
		syscalls = flag.Int("syscalls", 150, "workload length per node")
		profile  = flag.Int("profile", 300, "profiling depth per application")
		listen   = flag.String("listen", "", "serve fleet-wide /metrics on this address")
		hold     = flag.Bool("hold", false, "keep serving after the run completes")
		verbose  = flag.Bool("v", false, "log control-plane activity")

		serveAddr = flag.String("serve", "", "server mode: accept fleet nodes on this TCP address")
		joinAddr  = flag.String("join", "", "node mode: join the server at this TCP address")
		nodeID    = flag.String("id", "", "node mode: node identity (default host-pid derived)")
		appName   = flag.String("app", "apache", "node mode: workload to run under the synced views")
	)
	flag.Parse()

	logf := func(string, ...any) {}
	if *verbose {
		logf = log.Printf
	}

	var err error
	switch {
	case *serveAddr != "":
		err = runServer(*serveAddr, *listen, strings.Split(*appsFlag, ","), *profile, logf)
	case *joinAddr != "":
		err = runNode(*joinAddr, *nodeID, *appName, *syscalls, *hold, logf)
	default:
		err = runDemo(demoConfig{
			nodes: *nodes, shards: *shards, killShard: *killSh, ring: *ring,
			apps: strings.Split(*appsFlag, ","), profile: *profile,
			syscalls: *syscalls, listen: *listen, hold: *hold,
			migrate: *migrateF,
		}, logf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fcfleet:", err)
		os.Exit(1)
	}
}

type demoConfig struct {
	nodes, shards     int
	killShard, ring   bool
	apps              []string
	profile, syscalls int
	listen            string
	hold              bool
	migrate           string
}

// runDemo runs the in-process fleet and prints per-node digests — the CI
// smoke asserts every line carries the same catalog digest.
func runDemo(cfg demoConfig, logf func(string, ...any)) error {
	hub := telemetry.NewHub(telemetry.HubConfig{})
	hub.Start()

	res, err := eval.RunFleet(eval.FleetConfig{
		Nodes:     cfg.nodes,
		Apps:      cfg.apps,
		Profile:   facechange.ProfileConfig{Syscalls: cfg.profile},
		Syscalls:  cfg.syscalls,
		Hub:       hub,
		Shards:    cfg.shards,
		KillShard: cfg.killShard,
		Migrate:   cfg.migrate,
		Logf:      logf,
	})
	if err != nil {
		return err
	}
	fmt.Print(res.Summary())
	if cfg.ring {
		fmt.Print(res.RingLayout())
	}
	if !res.Converged {
		return fmt.Errorf("fleet did not converge")
	}
	if err := serveMetrics(cfg.listen, hub, res.Server); err != nil {
		return err
	}
	if cfg.hold {
		select {}
	}
	return nil
}

// runServer profiles the catalog and serves it to TCP nodes until killed.
func runServer(addr, listen string, appNames []string, profile int, logf func(string, ...any)) error {
	fmt.Fprintf(os.Stderr, "fcfleet: profiling %d applications...\n", len(appNames))
	var list []apps.App
	for _, name := range appNames {
		app, ok := apps.ByName(name)
		if !ok {
			return fmt.Errorf("unknown app %q", name)
		}
		list = append(list, app)
	}
	views, err := facechange.ProfileAll(list, facechange.ProfileConfig{Syscalls: profile})
	if err != nil {
		return err
	}

	hub := telemetry.NewHub(telemetry.HubConfig{})
	hub.Start()
	srv := fleet.NewServer(fleet.ServerConfig{Hub: hub, Logf: logf})
	for _, app := range list {
		if err := srv.Publish(views[app.Name]); err != nil {
			return err
		}
	}
	if err := serveMetrics(listen, hub, srv); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("fcfleet: serving catalog %s (%d views) on %s\n",
		srv.Catalog().Manifest().DigestString(), len(srv.Catalog().Manifest().Views), ln.Addr())
	return srv.Serve(ln)
}

// runNode boots a runtime VM, joins the server, runs the workload under
// the synced views, and reports its final catalog digest.
func runNode(addr, id, appName string, syscalls int, hold bool, logf func(string, ...any)) error {
	app, ok := apps.ByName(appName)
	if !ok {
		return fmt.Errorf("unknown app %q", appName)
	}
	vm, err := facechange.NewVM(facechange.VMConfig{Modules: app.Modules})
	if err != nil {
		return err
	}
	if id == "" {
		id = fmt.Sprintf("node-%d", os.Getpid())
	}
	n := fleet.NewNode(fleet.NodeConfig{
		ID:      id,
		Dial:    fleet.TCPDialer(addr, 2*time.Second),
		Runtime: vm.Runtime,
		Logf:    logf,
	})
	n.Start()
	defer n.Close()

	// Wait for the first complete sync (any non-empty catalog).
	deadline := time.Now().Add(30 * time.Second)
	for n.Status().Syncs == 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("no catalog from %s after 30s (last error: %s)", addr, n.Status().LastErr)
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := n.Status()
	fmt.Printf("fcfleet: %s synced catalog %s (%d views, %d bytes)\n", id, st.Digest, st.Views, st.BytesIn)

	vm.Runtime.Enable()
	vm.StartApp(app, 1, syscalls)
	if err := vm.RunUntilDead(4_000_000_000); err != nil {
		return err
	}
	st = n.Status()
	fmt.Printf("fcfleet: %s done: digest=%s syncs=%d retries=%d connected=%v\n",
		id, st.Digest, st.Syncs, st.Retries, st.Connected)
	if hold {
		select {}
	}
	return nil
}

// serveMetrics binds synchronously and serves the fleet-wide metrics
// (central hub + control plane) in the background.
func serveMetrics(listen string, m1, m2 telemetry.MetricSource) error {
	if listen == "" {
		return nil
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", telemetry.MetricsHandler(m1, m2))
	fmt.Printf("fcfleet: serving fleet /metrics on http://%s\n", ln.Addr())
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			log.Printf("fcfleet: serve: %v", err)
		}
	}()
	return nil
}
