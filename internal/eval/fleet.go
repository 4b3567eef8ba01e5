// Fleet-scale run: the control-plane experiment the single-machine eval
// cannot express. One fleet.Server holds the catalog of profiled kernel
// views; N runtime VMs join as fleet nodes over in-process pipes, delta-
// sync the catalog through one shared host chunk store, run their
// workloads under the synced views, and relay telemetry into one central
// hub. The result quantifies the fleet properties the paper's production
// story needs: convergence (identical catalog digest on every node),
// delta-sync savings (later joins transfer fewer bytes and ride the
// interned-page cache), and hot push (an updated view reaches every node
// mid-flight).
package eval

import (
	"fmt"
	"net"
	"sort"
	"strings"
	"time"

	"facechange"
	"facechange/internal/apps"
	"facechange/internal/fleet"
	fleetshard "facechange/internal/fleet/shard"
	"facechange/internal/kview"
	"facechange/internal/migrate"
	"facechange/internal/telemetry"
)

// fleetBudget bounds each fleet node's runtime phase: 2e9 simulated
// cycles.
const fleetBudget = 2_000_000_000

// FleetConfig parameterizes RunFleet.
type FleetConfig struct {
	// Nodes is the fleet size (default 4).
	Nodes int
	// Apps are the profiled applications whose views seed the catalog
	// (default apache + gzip); node i runs Apps[i%len(Apps)].
	Apps []string
	// Profile controls the per-app profiling sessions.
	Profile facechange.ProfileConfig
	// Syscalls bounds each node's runtime workload (default 150).
	Syscalls int
	// Hub is the central telemetry hub. One is created (and started) when
	// nil; either way RunFleet does not close it — the caller may keep
	// serving /metrics from it after the run.
	Hub *telemetry.Hub
	// Shards, when >1, runs the control plane as a sharded multi-region
	// plane: the catalog partitions onto a consistent-hash ring (mirrored
	// everywhere, so any shard serves any chunk), nodes auto-discover the
	// topology and home onto their ring shard, and telemetry relays
	// shard-local then hub-to-hub into the aggregator shard.
	Shards int
	// KillShard, in sharded mode, severs one non-aggregator shard while
	// the node workloads (and their telemetry) are in flight — the
	// failover demo: its nodes walk the ring to the successor, resume
	// delta sync from interned chunks, and the final convergence and
	// telemetry accounting must hold regardless.
	KillShard bool
	// Migrate, when non-empty, live-migrates an app's view state between
	// nodes after the workloads ran (so real recovered spans and COW
	// deltas travel): "app@node-0>node-1" ("→" also accepted). A dst of
	// "auto" picks the target whose ring home matches the view's owner
	// shard (any other node on unsharded planes).
	Migrate string
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

func (c *FleetConfig) defaults() {
	if c.Nodes <= 0 {
		c.Nodes = 4
	}
	if len(c.Apps) == 0 {
		c.Apps = []string{"apache", "gzip"}
	}
	if c.Syscalls <= 0 {
		c.Syscalls = 150
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// FleetNodeResult is one node's outcome.
type FleetNodeResult struct {
	ID       string `json:"id"`
	App      string `json:"app"`
	Digest   string `json:"digest"`
	Views    int    `json:"views"`
	BytesIn  uint64 `json:"bytes_in"`
	BytesOut uint64 `json:"bytes_out"`
	Syncs    uint64 `json:"syncs"`
	Retries  uint64 `json:"retries"`
	Drops    uint64 `json:"telemetry_drops"`
	// Home is the shard the node's last session reached (sharded planes).
	Home string `json:"home,omitempty"`
}

// FleetResult aggregates a fleet run.
type FleetResult struct {
	Digest    string            `json:"digest"` // server catalog content digest
	Views     int               `json:"views"`
	Converged bool              `json:"converged"`
	Nodes     []FleetNodeResult `json:"nodes"`

	// Delta-sync evidence: bytes the first and the last sequential join
	// transferred, and the shared store's interned-page savings.
	FirstJoinBytes  uint64 `json:"first_join_bytes"`
	LastJoinBytes   uint64 `json:"last_join_bytes"`
	DeltaCacheHits  uint64 `json:"delta_cache_hits"`
	DeltaBytesSaved uint64 `json:"delta_bytes_saved"`

	// Events relayed into the central hub across the whole fleet.
	Events uint64 `json:"events"`

	// Sharded-plane topology: shard count, the telemetry aggregation
	// shard, the shard severed by KillShard (empty otherwise), and the
	// ring ownership of every catalog view at the end of the run.
	Shards      int               `json:"shards,omitempty"`
	Aggregator  string            `json:"aggregator,omitempty"`
	KilledShard string            `json:"killed_shard,omitempty"`
	RingOwners  map[string]string `json:"ring_owners,omitempty"`

	// Migration describes the live view-state move, when one was requested.
	Migration *MigrationSummary `json:"migration,omitempty"`

	// Server stays queryable after the run (catalog, WriteMetrics). On a
	// sharded plane it is the aggregator shard's server.
	Server *fleet.Server `json:"-"`
}

// MigrationSummary is the outcome of a FleetConfig.Migrate move.
type MigrationSummary struct {
	App           string `json:"app"`
	Src           string `json:"src"`
	Dst           string `json:"dst"`
	ImageBytes    int    `json:"image_bytes"`
	DeltasApplied int    `json:"deltas_applied"`
	DeltasSkipped int    `json:"deltas_skipped"`
	// RingAligned reports whether the target's ring home owns the view's
	// digest (always false on unsharded planes).
	RingAligned bool `json:"ring_aligned,omitempty"`
}

// Summary renders the run for terminals.
func (r *FleetResult) Summary() string {
	s := fmt.Sprintf("fleet: catalog %s (%d views), converged=%v\n", r.Digest, r.Views, r.Converged)
	if r.Shards > 1 {
		s += fmt.Sprintf("fleet: %d shards, aggregator %s", r.Shards, r.Aggregator)
		if r.KilledShard != "" {
			s += fmt.Sprintf(", killed %s mid-run (failover)", r.KilledShard)
		}
		s += "\n"
	}
	for _, n := range r.Nodes {
		home := ""
		if n.Home != "" {
			home = " home=" + n.Home
		}
		s += fmt.Sprintf("  %-8s app=%-8s digest=%s views=%d in=%dB out=%dB syncs=%d retries=%d%s\n",
			n.ID, n.App, n.Digest, n.Views, n.BytesIn, n.BytesOut, n.Syncs, n.Retries, home)
	}
	s += fmt.Sprintf("fleet: delta sync: first join %dB, last join %dB, %d interned-page hits (%dB saved)\n",
		r.FirstJoinBytes, r.LastJoinBytes, r.DeltaCacheHits, r.DeltaBytesSaved)
	if m := r.Migration; m != nil {
		aligned := ""
		if m.RingAligned {
			aligned = ", ring-aligned target"
		}
		s += fmt.Sprintf("fleet: migrated %s %s>%s: %dB image (deltas only), %d deltas applied, %d skipped%s\n",
			m.App, m.Src, m.Dst, m.ImageBytes, m.DeltasApplied, m.DeltasSkipped, aligned)
	}
	s += fmt.Sprintf("fleet: %d telemetry events relayed to the central hub\n", r.Events)
	return s
}

// ParseMigrateSpec parses a FleetConfig.Migrate spec: "app@src>dst", with
// "→" accepted in place of ">".
func ParseMigrateSpec(spec string) (app, src, dst string, err error) {
	at := strings.IndexByte(spec, '@')
	if at < 0 {
		return "", "", "", fmt.Errorf("eval: migrate spec %q: want app@src>dst", spec)
	}
	app, rest := spec[:at], strings.ReplaceAll(spec[at+1:], "→", ">")
	gt := strings.IndexByte(rest, '>')
	if gt < 0 {
		return "", "", "", fmt.Errorf("eval: migrate spec %q: want app@src>dst", spec)
	}
	src, dst = strings.TrimSpace(rest[:gt]), strings.TrimSpace(rest[gt+1:])
	if app == "" || src == "" || dst == "" {
		return "", "", "", fmt.Errorf("eval: migrate spec %q: empty app or node", spec)
	}
	return app, src, dst, nil
}

// RingLayout renders the consistent-hash ownership of every catalog view
// — which shard a publish of each view routes to. Empty on unsharded
// runs.
func (r *FleetResult) RingLayout() string {
	if len(r.RingOwners) == 0 {
		return ""
	}
	names := make([]string, 0, len(r.RingOwners))
	for n := range r.RingOwners {
		names = append(names, n)
	}
	sort.Strings(names)
	s := fmt.Sprintf("ring: %d views over %d shards:\n", len(names), r.Shards)
	for _, n := range names {
		s += fmt.Sprintf("  %-12s -> %s\n", n, r.RingOwners[n])
	}
	return s
}

// RunFleet profiles the configured applications, publishes their views to
// a control-plane server, joins Nodes runtime VMs sequentially (so the
// delta-sync saving of each later join is measurable), runs every node's
// workload under its synced views, hot-pushes a union view mid-fleet, and
// reports convergence.
func RunFleet(cfg FleetConfig) (*FleetResult, error) {
	cfg.defaults()

	// Phase 1: profiling (the catalog's content).
	cfg.Logf("fleet: profiling %d applications...", len(cfg.Apps))
	var list []apps.App
	moduleSet := map[string]bool{}
	for _, name := range cfg.Apps {
		app, ok := apps.ByName(name)
		if !ok {
			return nil, fmt.Errorf("eval: unknown app %q", name)
		}
		list = append(list, app)
		for _, m := range app.Modules {
			moduleSet[m] = true
		}
	}
	views, err := facechange.ProfileAll(list, cfg.Profile)
	if err != nil {
		return nil, fmt.Errorf("eval: fleet profiling: %w", err)
	}
	modules := make([]string, 0, len(moduleSet))
	for m := range moduleSet {
		modules = append(modules, m)
	}
	sort.Strings(modules)

	// Phase 2: control plane — one server, or a sharded plane.
	hub := cfg.Hub
	if hub == nil {
		hub = telemetry.NewHub(telemetry.HubConfig{})
		hub.Start()
	}
	var (
		srv     *fleet.Server           // metrics/catalog handle (aggregator on a plane)
		plane   *fleetshard.Plane       // nil unless sharded
		publish func(*kview.View) error // routes to the owner
		digest  func() string           // expected convergence digest
		wiring  func(nodeID string) (*fleetshard.Homing, func() (net.Conn, error), func(fleet.ShardMap))
	)
	if cfg.Shards > 1 {
		infos := make([]fleet.ShardInfo, cfg.Shards)
		for i := range infos {
			infos[i] = fleet.ShardInfo{ID: fmt.Sprintf("s-%d", i)}
		}
		var err error
		plane, err = fleetshard.NewPlane(fleetshard.PlaneConfig{Shards: infos, Hub: hub, Logf: cfg.Logf})
		if err != nil {
			return nil, fmt.Errorf("eval: plane: %w", err)
		}
		defer plane.Close()
		agg, _ := plane.Member(plane.Aggregator())
		srv = agg.Server()
		publish = plane.Publish
		digest = plane.Digest
		wiring = func(id string) (*fleetshard.Homing, func() (net.Conn, error), func(fleet.ShardMap)) {
			h := plane.NodeDialer(id)
			return h, h.Dial, h.OnShardMap
		}
	} else {
		srv = fleet.NewServer(fleet.ServerConfig{Hub: hub, Logf: cfg.Logf})
		dial := func() (net.Conn, error) {
			c, s := net.Pipe()
			go srv.ServeConn(s)
			return c, nil
		}
		publish = srv.Publish
		digest = func() string { return srv.Catalog().Manifest().DigestString() }
		wiring = func(string) (*fleetshard.Homing, func() (net.Conn, error), func(fleet.ShardMap)) {
			return nil, dial, nil
		}
	}
	for _, name := range cfg.Apps {
		if err := publish(views[name]); err != nil {
			return nil, fmt.Errorf("eval: publish %s: %w", name, err)
		}
	}
	if plane != nil {
		if err := plane.WaitConverged(30 * time.Second); err != nil {
			return nil, fmt.Errorf("eval: %w", err)
		}
	}

	// Phase 3: sequential joins through one shared host chunk store.
	store := fleet.NewChunkStore()
	initial := digest()
	type member struct {
		node  *fleet.Node
		vm    *facechange.VM
		app   apps.App
		homer *fleetshard.Homing
		agent *migrate.Agent
	}
	var members []member
	defer func() {
		for _, m := range members {
			m.node.Close()
		}
	}()
	var firstJoin, lastJoin uint64
	for i := 0; i < cfg.Nodes; i++ {
		vm, err := facechange.NewVM(facechange.VMConfig{Modules: modules})
		if err != nil {
			return nil, fmt.Errorf("eval: node %d: %w", i, err)
		}
		id := fmt.Sprintf("node-%d", i)
		homer, dial, onMap := wiring(id)
		agent := migrate.NewAgent(vm.Runtime, nil)
		n := fleet.NewNode(fleet.NodeConfig{
			ID:            id,
			Dial:          dial,
			OnShardMap:    onMap,
			Store:         store,
			Runtime:       vm.Runtime,
			Migrate:       agent,
			FlushInterval: 5 * time.Millisecond,
			Logf:          cfg.Logf,
		})
		n.Start()
		if err := n.WaitDigest(initial, 30*time.Second); err != nil {
			n.Close()
			return nil, fmt.Errorf("eval: node %d join: %w", i, err)
		}
		in := n.Status().BytesIn
		if i == 0 {
			firstJoin = in
		}
		lastJoin = in
		cfg.Logf("fleet: node-%d joined: %d bytes, digest %s", i, in, n.Digest())
		members = append(members, member{node: n, vm: vm, app: list[i%len(list)], homer: homer, agent: agent})
	}

	// Phase 4: per-node workloads under the synced views, concurrently.
	// In sharded mode with KillShard, one non-aggregator shard dies while
	// these workloads stream telemetry: its nodes fail over along the
	// ring, and nothing downstream of here is allowed to notice.
	killed := ""
	if plane != nil && cfg.KillShard {
		for _, id := range plane.Alive() {
			if id != plane.Aggregator() {
				killed = id
				break
			}
		}
	}
	errs := make(chan error, len(members))
	for i := range members {
		m := members[i]
		go func(seed int64) {
			m.vm.Runtime.Enable()
			m.vm.StartApp(m.app, seed, cfg.Syscalls)
			errs <- m.vm.RunUntilDead(fleetBudget)
		}(int64(i) + 1)
	}
	if killed != "" {
		if err := plane.Kill(killed); err != nil {
			return nil, fmt.Errorf("eval: kill shard: %w", err)
		}
		cfg.Logf("fleet: killed shard %s mid-run", killed)
	}
	for range members {
		if err := <-errs; err != nil {
			return nil, fmt.Errorf("eval: fleet workload: %w", err)
		}
	}

	// Phase 4.5: live migration — after the workloads, so the moved view
	// carries real recovered spans and COW deltas, not a pristine image.
	var migration *MigrationSummary
	if cfg.Migrate != "" {
		app, src, dst, err := ParseMigrateSpec(cfg.Migrate)
		if err != nil {
			return nil, err
		}
		aligned := false
		if dst == "auto" {
			var candidates []string
			for i := range members {
				if id := fmt.Sprintf("node-%d", i); id != src {
					candidates = append(candidates, id)
				}
			}
			if len(candidates) == 0 {
				return nil, fmt.Errorf("eval: migrate %s: no target candidates", app)
			}
			if plane != nil {
				var vd fleet.Hash
				found := false
				for _, vm := range srv.Catalog().Manifest().Views {
					if vm.Name == app {
						vd, found = vm.Digest, true
						break
					}
				}
				if !found {
					return nil, fmt.Errorf("eval: migrate %s: not in the catalog", app)
				}
				dst, aligned = plane.PickMigrateTarget(vd, candidates)
			} else {
				dst = candidates[0]
			}
		}
		var mr *fleet.MigrateResult
		if plane != nil {
			mr, err = plane.Migrate(app, src, dst, 15*time.Second)
		} else {
			mr, err = srv.Migrate(app, src, dst, 15*time.Second)
		}
		if err != nil {
			return nil, fmt.Errorf("eval: migrate %s %s>%s: %w", app, src, dst, err)
		}
		// The commit directive lands on the source asynchronously; wait for
		// the teardown so the hot-push resync below starts from a settled
		// source.
		var srcAgent *migrate.Agent
		for i := range members {
			if fmt.Sprintf("node-%d", i) == src {
				srcAgent = members[i].agent
			}
		}
		if srcAgent != nil {
			deadline := time.Now().Add(10 * time.Second)
			for srcAgent.Frozen(app) {
				if time.Now().After(deadline) {
					return nil, fmt.Errorf("eval: migrate %s: source commit never landed", app)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
		migration = &MigrationSummary{
			App: app, Src: src, Dst: dst,
			ImageBytes:    mr.ImageBytes,
			DeltasApplied: mr.DeltasApplied,
			DeltasSkipped: mr.DeltasSkipped,
			RingAligned:   aligned,
		}
		cfg.Logf("fleet: migrated %s %s>%s (%dB image, %d deltas)", app, src, dst, mr.ImageBytes, mr.DeltasApplied)
	}

	// Phase 5: hot push mid-fleet — a union view reaches every node (on a
	// plane: routed to its ring owner, mirrored everywhere, discovered by
	// each node from whichever shard it now homes on).
	var all []*kview.View
	for _, name := range cfg.Apps {
		all = append(all, views[name])
	}
	union := kview.UnionViews("fleetwide", all...)
	if err := publish(union); err != nil {
		return nil, fmt.Errorf("eval: hot push: %w", err)
	}
	final := digest()
	for _, m := range members {
		if err := m.node.WaitDigest(final, 30*time.Second); err != nil {
			return nil, fmt.Errorf("eval: hot push convergence: %w", err)
		}
	}

	// Drain each node's relay buffer — and, on a plane, the shard relay
	// queues — before reading the central counters.
	for _, m := range members {
		deadline := time.Now().Add(10 * time.Second)
		for m.node.Telemetry().Len() > 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	if plane != nil {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			queued := 0
			for _, id := range plane.Alive() {
				if m, ok := plane.Member(id); ok {
					queued += m.QueueLen()
				}
			}
			if queued == 0 {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}

	res := &FleetResult{
		Digest:         final,
		Views:          len(srv.Catalog().Manifest().Views),
		Converged:      true,
		FirstJoinBytes: firstJoin,
		LastJoinBytes:  lastJoin,
		Migration:      migration,
		Server:         srv,
	}
	if plane != nil {
		res.Shards = cfg.Shards
		res.Aggregator = plane.Aggregator()
		res.KilledShard = killed
		res.RingOwners = make(map[string]string)
		ring := fleetshard.BuildRing(plane.Map())
		for _, vm := range srv.Catalog().Manifest().Views {
			res.RingOwners[vm.Name] = ring.OwnerDigest(vm.Digest)
		}
	}
	st := store.Stats()
	res.DeltaCacheHits = st.Hits
	res.DeltaBytesSaved = st.BytesSavedTotal
	for _, m := range members {
		s := m.node.Status()
		if s.Digest != final {
			res.Converged = false
		}
		nr := FleetNodeResult{
			ID:       s.ID,
			App:      m.app.Name,
			Digest:   s.Digest,
			Views:    s.Views,
			BytesIn:  s.BytesIn,
			BytesOut: s.BytesOut,
			Syncs:    s.Syncs,
			Retries:  s.Retries,
			Drops:    s.Drops,
		}
		if m.homer != nil {
			nr.Home = m.homer.Home()
		}
		res.Nodes = append(res.Nodes, nr)
		m.node.Close()
	}
	members = nil
	res.Events = hub.Emitted()
	return res, nil
}
