package shard

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"facechange/internal/fleet"
	"facechange/internal/kview"
	"facechange/internal/telemetry"
)

func errShard(format string, args ...any) error {
	return fmt.Errorf("shard: "+format, args...)
}

// PlaneConfig parameterizes a sharded control plane.
type PlaneConfig struct {
	// Shards lists the members. IDs must be unique; VNodes weights the
	// ring (DefaultVNodes when 0). With a Transport, Addr is the member's
	// listen address ("127.0.0.1:0" when empty; the bound address is
	// written back and gossiped — the ring hashes IDs only, so ephemeral
	// ports never move ownership).
	// The first shard by ID is the telemetry aggregation point; it cannot
	// be killed.
	Shards []fleet.ShardInfo
	// Hub receives the fleet-wide telemetry stream at the aggregator. A
	// plane-owned hub (started, closed with the plane) is created when
	// nil.
	Hub *telemetry.Hub
	// Transport, when non-nil, carries every shard-to-shard and
	// node-to-shard connection over real listeners and dials (TCPTransport
	// for cross-host members) instead of the default in-process net.Pipe.
	Transport Transport
	// Logf, when non-nil, receives plane lifecycle lines.
	Logf func(format string, args ...any)
}

// Transport is the plane's pluggable connection fabric: how a member
// accepts sessions and how anyone (peers, external nodes) reaches it by
// the address it gossips. The in-process default needs neither; a
// cross-host plane plugs TCPTransport (or anything socket-like) in.
type Transport interface {
	Listen(shardID, addr string) (net.Listener, error)
	Dial(addr string) (net.Conn, error)
}

// TCPTransport runs the plane over TCP sockets, so members can live on
// different hosts. A killed member closes its listener and sessions, and
// refused dials are exactly the failover signal ring walks expect.
type TCPTransport struct {
	// DialTimeout bounds each connection attempt (default 2s).
	DialTimeout time.Duration
}

// Listen binds the member's listener.
func (t TCPTransport) Listen(_, addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}

// Dial connects to a member's gossiped address.
func (t TCPTransport) Dial(addr string) (net.Conn, error) {
	d := t.DialTimeout
	if d <= 0 {
		d = 2 * time.Second
	}
	return net.DialTimeout("tcp", addr, d)
}

// Plane is an in-process sharded control plane: N fleet.Servers, one per
// shard, each serving any node that homes onto it. The view catalog is
// partitioned by consistent hashing of view content digests — a publish
// lands on the owning shard — and fully replicated: every member runs a
// mirror node against each peer, re-publishing the peer's views into its
// own catalog, so any replica serves any chunk and a node can sync the
// complete catalog from whichever shard it homes onto. Telemetry flows
// shard-local first, then relays hub-to-hub into the aggregator shard
// with per-node sequence dedup, so the fleet-wide accounting is exact
// even when batches are re-sent across a failover.
//
// Kill severs one shard mid-flight: its sessions drop, the survivors
// gossip an epoch-bumped map, homed nodes walk the ring to the
// successor, and the plane re-publishes the catalog onto the new ring —
// membership changes move ownership, never content.
type Plane struct {
	logf      func(string, ...any)
	hub       *telemetry.Hub
	ownHub    bool
	agg       string
	transport Transport // nil: in-process net.Pipe fabric

	// pubMu serializes publishes (churn, kill re-homing): the last call
	// to Publish must also be the last write into the owning catalog, or
	// an interleaved re-publish could roll a view back. Ordered before
	// p.mu; never taken while holding it.
	pubMu sync.Mutex

	mu        sync.Mutex
	members   map[string]*Member
	killed    map[string]bool
	ring      *Ring
	epoch     uint64
	published map[string]pubView
	closed    bool
}

type pubView struct {
	cfg    *kview.View
	digest fleet.Hash
}

// NewPlane builds and starts a plane: one server per shard, the mirror
// mesh between them, and the relay loops into the aggregator.
func NewPlane(cfg PlaneConfig) (*Plane, error) {
	if len(cfg.Shards) == 0 {
		return nil, errShard("plane needs at least one shard")
	}
	p := &Plane{
		logf:      cfg.Logf,
		transport: cfg.Transport,
		members:   make(map[string]*Member, len(cfg.Shards)),
		killed:    make(map[string]bool),
		epoch:     1,
		published: make(map[string]pubView),
	}
	if p.logf == nil {
		p.logf = func(string, ...any) {}
	}
	ids := make([]string, 0, len(cfg.Shards))
	for _, si := range cfg.Shards {
		if si.ID == "" {
			return nil, errShard("shard with empty ID")
		}
		if _, dup := p.members[si.ID]; dup {
			return nil, errShard("duplicate shard ID %q", si.ID)
		}
		p.members[si.ID] = &Member{info: si, plane: p}
		ids = append(ids, si.ID)
	}
	sort.Strings(ids)
	p.agg = ids[0]
	p.hub = cfg.Hub
	if p.hub == nil {
		p.hub = telemetry.NewHub(telemetry.HubConfig{CPUs: 1, RingSize: 1 << 15})
		p.hub.Start()
		p.ownHub = true
	}
	p.ring = BuildRing(p.mapLocked())
	for _, id := range ids {
		if err := p.members[id].init(); err != nil {
			for _, mid := range ids {
				p.members[mid].shutdown()
			}
			if p.ownHub {
				p.hub.Close()
			}
			return nil, err
		}
	}
	for _, id := range ids {
		p.members[id].start()
	}
	p.logf("shard: plane up: %d shards, aggregator %q", len(ids), p.agg)
	return p, nil
}

// mapLocked snapshots the live topology. Callers hold p.mu.
func (p *Plane) mapLocked() fleet.ShardMap {
	m := fleet.ShardMap{Epoch: p.epoch, Aggregator: p.agg}
	for id, mem := range p.members {
		if !p.killed[id] {
			m.Shards = append(m.Shards, mem.info)
		}
	}
	sort.Slice(m.Shards, func(i, j int) bool { return m.Shards[i].ID < m.Shards[j].ID })
	return m
}

// Map returns the current epoch-stamped shard map (what the members
// gossip).
func (p *Plane) Map() fleet.ShardMap {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.mapLocked()
}

// Aggregator returns the aggregator shard's ID.
func (p *Plane) Aggregator() string { return p.agg }

// Member returns a shard member by ID (killed members included, for
// post-mortem inspection).
func (p *Plane) Member(id string) (*Member, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m, ok := p.members[id]
	return m, ok
}

// Alive returns the live shard IDs, sorted.
func (p *Plane) Alive() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.members))
	for id := range p.members {
		if !p.killed[id] {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// DialShard connects to a live shard member — in-process (net.Pipe) by
// default, or through the plane's Transport by the member's gossiped
// address. It is the dial primitive Homing and the mirror mesh ride; a
// killed shard refuses (its listener is closed), which is exactly the
// signal that advances a ring walk.
func (p *Plane) DialShard(id string) (net.Conn, error) {
	p.mu.Lock()
	m, ok := p.members[id]
	dead := !ok || p.killed[id] || p.closed
	p.mu.Unlock()
	if !ok {
		return nil, errShard("unknown shard %q", id)
	}
	if dead {
		return nil, errShard("shard %q is down", id)
	}
	if p.transport != nil {
		return p.transport.Dial(m.info.Addr)
	}
	return m.dialIn()
}

// NodeDialer returns a Homing dialer for one external node, seeded with
// the plane's current live shards.
func (p *Plane) NodeDialer(nodeID string) *Homing {
	return NewHoming(nodeID, p.Alive(), p.DialShard)
}

// Publish registers a view fleet-wide: hash its canonical encoding, route
// to the owning shard on the ring, and let the mirror mesh replicate it
// everywhere. If the owner dies around the publish, the successor is
// retried — a publish returns nil only once a live shard has it.
func (p *Plane) Publish(v *kview.View) error {
	d, err := fleet.ViewDigest(v)
	if err != nil {
		return err
	}
	p.pubMu.Lock()
	defer p.pubMu.Unlock()
	return p.publishSerialized(v, d)
}

// publishSerialized routes one publish. Callers hold p.pubMu.
func (p *Plane) publishSerialized(v *kview.View, d fleet.Hash) error {
	p.mu.Lock()
	prev, had := p.published[v.App]
	p.mu.Unlock()
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return errShard("plane closed")
		}
		owner := p.ring.OwnerDigest(d)
		m := p.members[owner]
		if m == nil {
			p.mu.Unlock()
			return errShard("no live shard owns view %q", v.App)
		}
		// Mark the version current before the owner has it: a peer's
		// mirror may sync the owner's new manifest before Publish
		// returns, and its stale-echo gate must already let it through.
		p.published[v.App] = pubView{cfg: v, digest: d}
		p.mu.Unlock()
		if err := m.srv.Publish(v); err != nil {
			p.mu.Lock()
			if had {
				p.published[v.App] = prev
			} else {
				delete(p.published, v.App)
			}
			p.mu.Unlock()
			return err
		}
		p.mu.Lock()
		dead := p.killed[owner]
		p.mu.Unlock()
		if !dead {
			return nil
		}
		// The owner was killed while we were publishing; the ring has
		// already moved — go around and land on the successor.
	}
}

// publishIfCurrent re-publishes a mirrored view on member m only if d is
// the plane's current published version of it — the gate that keeps the
// mirror mesh loop-free: a member lagging behind re-exposes old versions
// in its manifest, and without the gate a peer would re-publish them over
// its newer copy (content-addressed ownership carries no ordering of its
// own). The check and the publish run under one lock, and
// publishSerialized marks a new version current under it before the
// owner has the version, so a mirror cannot pass the check with a
// version that a newer publish then supersedes and overwrite it.
func (p *Plane) publishIfCurrent(m *Member, v *kview.View, d fleet.Hash) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pv, ok := p.published[v.App]; !ok || pv.digest != d {
		return nil
	}
	return m.srv.Publish(v)
}

// Digest returns the expected catalog content digest: what every live
// member (and every synced node) converges to. Same algorithm as
// fleet.Manifest.Digest, so the strings compare directly.
func (p *Plane) Digest() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.expectedLocked().DigestString()
}

func (p *Plane) expectedLocked() fleet.Manifest {
	m := fleet.Manifest{Views: make([]fleet.ViewManifest, 0, len(p.published))}
	for name, pv := range p.published {
		m.Views = append(m.Views, fleet.ViewManifest{Name: name, Digest: pv.digest})
	}
	sort.Slice(m.Views, func(i, j int) bool { return m.Views[i].Name < m.Views[j].Name })
	return m
}

// WaitConverged blocks until every live member's catalog digest equals
// the plane's expected digest, or the timeout passes.
func (p *Plane) WaitConverged(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		want := p.Digest()
		lagging := ""
		for _, id := range p.Alive() {
			m, _ := p.Member(id)
			if got := m.srv.Catalog().Manifest().DigestString(); got != want {
				lagging = fmt.Sprintf("shard %q at %s (want %s)", id, got, want)
				break
			}
		}
		if lagging == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return errShard("not converged after %v: %s", timeout, lagging)
		}
		time.Sleep(time.Millisecond)
	}
}

// Kill severs one shard: sessions drop, survivors gossip the bumped map,
// and the published catalog is re-routed onto the shrunken ring (every
// view the dead shard owned gets a live owner; replication makes the
// re-publish a content no-op on members that already mirror it). The
// aggregator cannot be killed, and at least one shard must survive.
func (p *Plane) Kill(id string) error {
	p.mu.Lock()
	m, ok := p.members[id]
	if !ok {
		p.mu.Unlock()
		return errShard("unknown shard %q", id)
	}
	if p.killed[id] {
		p.mu.Unlock()
		return errShard("shard %q already killed", id)
	}
	if id == p.agg {
		p.mu.Unlock()
		return errShard("cannot kill the aggregator shard %q", id)
	}
	alive := 0
	for sid := range p.members {
		if !p.killed[sid] {
			alive++
		}
	}
	if alive <= 1 {
		p.mu.Unlock()
		return errShard("cannot kill the last shard")
	}
	p.killed[id] = true
	p.epoch++
	p.ring = BuildRing(p.mapLocked())
	var survivors []*Member
	for sid, sm := range p.members {
		if !p.killed[sid] {
			survivors = append(survivors, sm)
		}
	}
	repub := make([]string, 0, len(p.published))
	for name := range p.published {
		repub = append(repub, name)
	}
	epoch := p.epoch
	p.mu.Unlock()

	m.shutdown()
	for _, s := range survivors {
		s.dropMirror(id)
		s.srv.PushShardMap()
	}
	// Re-home ownership: publishes the dead shard owned move to their
	// ring successors. Each view's *current* version is re-routed under
	// the publish serialization (a concurrent publish may supersede a
	// name between iterations — re-reading under pubMu keeps the
	// last-writer-wins order intact). Members that already mirrored the
	// content take the re-publish as a digest no-op.
	for _, name := range repub {
		p.pubMu.Lock()
		p.mu.Lock()
		pv, ok := p.published[name]
		p.mu.Unlock()
		var err error
		if ok {
			err = p.publishSerialized(pv.cfg, pv.digest)
		}
		p.pubMu.Unlock()
		if err != nil {
			return err
		}
	}
	p.logf("shard: killed %q (epoch %d, %d survivors)", id, epoch, len(survivors))
	return nil
}

// MemberWithNode returns the live member holding a control-plane session
// for the given node (nil when the node is not connected anywhere) — how
// migration locates its endpoints on a sharded plane, where each node
// homes by its own ring position.
func (p *Plane) MemberWithNode(node string) *Member {
	for _, id := range p.Alive() {
		if m, ok := p.Member(id); ok && m.srv.HasNode(node) {
			return m
		}
	}
	return nil
}

// Migrate moves app's view state from node src to node dst, wherever on
// the plane their sessions live: the export phase runs on the source's
// shard, the import on the target's, and the commit-or-abort directive
// goes back through the source's shard — the same two-phase cutover
// fleet.Server.Migrate runs single-shard, composed across members.
func (p *Plane) Migrate(app, src, dst string, timeout time.Duration) (*fleet.MigrateResult, error) {
	if src == dst {
		return nil, errShard("migrate %q: source and target are both %q", app, src)
	}
	srcM := p.MemberWithNode(src)
	if srcM == nil {
		return nil, errShard("migrate %q: source node %q has no session on any live shard", app, src)
	}
	dstM := p.MemberWithNode(dst)
	if dstM == nil {
		return nil, errShard("migrate %q: target node %q has no session on any live shard", app, dst)
	}
	if srcM == dstM {
		return srcM.srv.Migrate(app, src, dst, timeout)
	}
	req, img, err := srcM.srv.RequestExport(app, src, dst, timeout)
	if err != nil {
		return nil, err
	}
	applied, skipped, err := dstM.srv.DeliverImport(req, app, dst, img, timeout)
	if err != nil {
		srcM.srv.SignalOutcome(req, app, src, false, err.Error())
		return nil, err
	}
	srcM.srv.SignalOutcome(req, app, src, true, "")
	p.logf("shard: migrated %q %s(%s)→%s(%s), %d image bytes", app, src, srcM.ID(), dst, dstM.ID(), len(img))
	return &fleet.MigrateResult{
		App: app, Src: src, Dst: dst,
		ImageBytes:    len(img),
		DeltasApplied: int(applied),
		DeltasSkipped: int(skipped),
	}, nil
}

// PickMigrateTarget chooses among candidate target nodes the one whose
// ring home coincides with the view's owner shard — the move that lands
// the app's telemetry on the shard already owning its view's catalog
// entry. Candidates are considered in sorted order so selection is
// deterministic; when none is ring-aligned the smallest candidate is
// returned with aligned=false.
func (p *Plane) PickMigrateTarget(viewDigest fleet.Hash, candidates []string) (target string, aligned bool) {
	if len(candidates) == 0 {
		return "", false
	}
	sorted := append([]string(nil), candidates...)
	sort.Strings(sorted)
	p.mu.Lock()
	ring := p.ring
	p.mu.Unlock()
	owner := ring.OwnerDigest(viewDigest)
	for _, c := range sorted {
		if ring.Owner(c) == owner {
			return c, true
		}
	}
	return sorted[0], false
}

// Close shuts the whole plane down.
func (p *Plane) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	members := make([]*Member, 0, len(p.members))
	for _, m := range p.members {
		members = append(members, m)
	}
	p.mu.Unlock()
	for _, m := range members {
		m.shutdown()
	}
	if p.ownHub {
		p.hub.Close()
	}
}

// Member is one shard of the plane: a fleet.Server plus the machinery
// that makes it a replica — mirror nodes pulling every peer's partition
// into its catalog, and (on non-aggregator shards) the relay loop
// draining shard-local telemetry into the aggregator.
type Member struct {
	plane    *Plane
	info     fleet.ShardInfo
	srv      *fleet.Server
	store    *fleet.ChunkStore
	localHub *telemetry.Hub        // shard-local tee; nil on the aggregator
	queue    *telemetry.RelayQueue // nil on the aggregator

	mu      sync.Mutex
	killed  bool
	conns   map[net.Conn]struct{}
	mirrors map[string]*fleet.Node
	ln      net.Listener // transport fabric only; nil in-process

	stop     chan struct{}
	wg       sync.WaitGroup
	stopOnce sync.Once
}

// init builds the member's server (phase one: every member must exist —
// and, on a transport fabric, be listening at its gossiped address —
// before any mirror dials a peer).
func (m *Member) init() error {
	p := m.plane
	m.store = fleet.NewChunkStore()
	m.conns = make(map[net.Conn]struct{})
	m.mirrors = make(map[string]*fleet.Node)
	m.stop = make(chan struct{})
	if p.transport != nil {
		addr := m.info.Addr
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		ln, err := p.transport.Listen(m.info.ID, addr)
		if err != nil {
			return errShard("shard %q listen on %q: %w", m.info.ID, addr, err)
		}
		m.ln = ln
		// The bound address (ephemeral port resolved) is what peers and
		// nodes gossip and dial.
		m.info.Addr = ln.Addr().String()
	}
	hub := p.hub
	var relay fleet.RelayFunc
	if m.info.ID != p.agg {
		m.localHub = telemetry.NewHub(telemetry.HubConfig{CPUs: 1, RingSize: 1 << 12})
		m.localHub.Start()
		hub = m.localHub
		m.queue = telemetry.NewRelayQueue()
		relay = func(node string, first uint64, evs []telemetry.Event, ack func()) {
			m.queue.Append(telemetry.Batch{Node: node, First: first, Events: evs}, ack)
		}
	}
	m.srv = fleet.NewServer(fleet.ServerConfig{
		ID:       m.info.ID,
		Hub:      hub,
		ShardMap: p.Map,
		Relay:    relay,
		Logf:     p.logf,
	})
	return nil
}

// start wires the member into the mesh (phase two).
func (m *Member) start() {
	p := m.plane
	if m.ln != nil {
		m.wg.Add(1)
		go m.acceptLoop()
	}
	for id := range p.members {
		if id == m.info.ID {
			continue
		}
		m.mirrors[id] = m.newMirror(id)
		m.mirrors[id].Start()
	}
	if m.queue != nil {
		m.wg.Add(1)
		go m.relayLoop()
	}
}

// acceptLoop serves transport sessions until the listener closes,
// tracking each conn so shutdown can sever live sessions, not just stop
// accepting new ones.
func (m *Member) acceptLoop() {
	defer m.wg.Done()
	for {
		c, err := m.ln.Accept()
		if err != nil {
			return
		}
		m.mu.Lock()
		if m.killed {
			m.mu.Unlock()
			c.Close()
			continue
		}
		m.conns[c] = struct{}{}
		m.wg.Add(1)
		m.mu.Unlock()
		go func() {
			defer m.wg.Done()
			m.srv.ServeConn(c)
			m.mu.Lock()
			delete(m.conns, c)
			m.mu.Unlock()
		}()
	}
}

// newMirror builds the node that replicates one peer's catalog into this
// member: every view the peer's manifest carries is re-published locally
// (a content no-op once caught up). Chunks land in the member's shared
// store, so re-mirroring after churn never re-downloads resident pages.
func (m *Member) newMirror(peer string) *fleet.Node {
	return fleet.NewNode(fleet.NodeConfig{
		ID:    "mirror:" + m.info.ID + "<-" + peer,
		Dial:  func() (net.Conn, error) { return m.plane.DialShard(peer) },
		Store: m.store,
		Backoff: fleet.BackoffConfig{
			Base: 2 * time.Millisecond,
			Max:  100 * time.Millisecond,
		},
		Apply: func(man fleet.Manifest, views []*kview.View) error {
			for i, v := range views {
				// Stale-echo gate: only the plane's current version of a
				// view propagates; an old version surfacing from a lagging
				// peer's manifest is dropped, never re-published.
				if err := m.plane.publishIfCurrent(m, v, man.Views[i].Digest); err != nil {
					return err
				}
			}
			return nil
		},
	})
}

// dialIn opens one in-process session against this member's server.
func (m *Member) dialIn() (net.Conn, error) {
	client, server := net.Pipe()
	m.mu.Lock()
	if m.killed {
		m.mu.Unlock()
		client.Close()
		server.Close()
		return nil, errShard("shard %q is down", m.info.ID)
	}
	m.conns[client] = struct{}{}
	m.conns[server] = struct{}{}
	m.wg.Add(1)
	m.mu.Unlock()
	go func() {
		defer m.wg.Done()
		m.srv.ServeConn(server)
		client.Close()
		m.mu.Lock()
		delete(m.conns, client)
		delete(m.conns, server)
		m.mu.Unlock()
	}()
	return client, nil
}

// relayLoop drains the shard's relay queue into the aggregator,
// committing (and thereby firing the deferred node acks) only after the
// aggregator admitted the whole peeked run. A dead relay conn is replaced
// with backoff; unacknowledged batches stay queued and are re-sent, and
// the aggregator's sequence dedup absorbs the overlap.
func (m *Member) relayLoop() {
	defer m.wg.Done()
	batches := make([]telemetry.Batch, 16)
	var rc *fleet.RelayClient
	defer func() {
		if rc != nil {
			rc.Close()
		}
	}()
	for {
		n := m.queue.PeekInto(batches)
		if n == 0 {
			select {
			case <-m.stop:
				return
			case <-time.After(500 * time.Microsecond):
			}
			continue
		}
		if rc == nil {
			var err error
			rc, err = fleet.DialRelay("relay:"+m.info.ID, func() (net.Conn, error) {
				return m.plane.DialShard(m.plane.agg)
			})
			if err != nil {
				select {
				case <-m.stop:
					return
				case <-time.After(2 * time.Millisecond):
				}
				continue
			}
		}
		ok := true
		for i := 0; i < n; i++ {
			if err := rc.Send(batches[i].Node, batches[i].First, batches[i].Events); err != nil {
				ok = false
				break
			}
		}
		if !ok {
			rc.Close()
			rc = nil
			continue
		}
		m.queue.Commit(n)
	}
}

// dropMirror stops this member's mirror of a (dead) peer.
func (m *Member) dropMirror(peer string) {
	m.mu.Lock()
	n := m.mirrors[peer]
	delete(m.mirrors, peer)
	m.mu.Unlock()
	if n != nil {
		n.Close()
	}
}

// shutdown severs the member: relay loop stopped, mirrors closed, every
// live session's conn closed. The catalog and chunk store are left
// intact — a killed shard keeps its last complete state, it just stops
// answering.
func (m *Member) shutdown() {
	m.stopOnce.Do(func() {
		m.mu.Lock()
		m.killed = true
		conns := make([]net.Conn, 0, len(m.conns))
		for c := range m.conns {
			conns = append(conns, c)
		}
		mirrors := m.mirrors
		m.mirrors = make(map[string]*fleet.Node)
		m.mu.Unlock()
		close(m.stop)
		if m.ln != nil {
			m.ln.Close()
		}
		for _, n := range mirrors {
			n.Close()
		}
		for _, c := range conns {
			c.Close()
		}
		m.wg.Wait()
		if m.localHub != nil {
			m.localHub.Close()
		}
	})
}

// ID returns the shard's ID.
func (m *Member) ID() string { return m.info.ID }

// Server returns the member's control-plane server.
func (m *Member) Server() *fleet.Server { return m.srv }

// QueueLen returns the depth of the member's relay queue (0 on the
// aggregator).
func (m *Member) QueueLen() int {
	if m.queue == nil {
		return 0
	}
	return m.queue.Len()
}
