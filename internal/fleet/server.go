package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"facechange/internal/kview"
	"facechange/internal/telemetry"
)

// RelayFunc forwards one node telemetry batch toward the fleet's
// aggregator shard. first is the node's cumulative relay sequence of the
// batch's first event; ack must be called once the batch is durably
// relayed — it sends the deferred telemetry acknowledgement that lets
// the node commit its buffer.
type RelayFunc func(nodeID string, first uint64, evs []telemetry.Event, ack func())

// ServerConfig parameterizes a control-plane server.
type ServerConfig struct {
	// ID identifies this server to clients (the HelloAck carries it so a
	// re-homing node can tell shards apart). Default "server".
	ID string
	// Hub, when non-nil, receives every node's relayed telemetry stream,
	// stamped with the node's identity — the fleet-wide event pipeline
	// (or, on a shard member, the shard-local one).
	Hub *telemetry.Hub
	// ShardMap, when non-nil, marks this server as part of a sharded
	// plane: the current map is pushed to every session right after the
	// handshake, and again via PushShardMap whenever it changes.
	ShardMap func() ShardMap
	// Relay, when non-nil, forwards node batches toward the aggregator
	// shard and owns the deferred acknowledgement. When nil, batches are
	// final here (this server *is* the aggregation point, or a standalone
	// plane) and are acked as soon as the hub has them.
	Relay RelayFunc
	// Logf, when non-nil, receives connection lifecycle lines.
	Logf func(format string, args ...any)
}

// Server is the control plane: it owns the catalog, serves the sync
// protocol to any number of nodes, pushes generation notices on publish,
// and fans node telemetry into the central hub.
type Server struct {
	id       string
	catalog  *Catalog
	hub      *telemetry.Hub
	shardMap func() ShardMap
	relay    RelayFunc
	logf     func(string, ...any)

	// seqs dedupes per-node telemetry across sessions and relay paths: a
	// node re-sending an unacknowledged batch after a shard death must
	// not be double-counted at the aggregation point.
	seqs *telemetry.SeqTracker
	// intakeMu serializes intake: every session goroutine replays into the
	// same hub, whose rings take one producer at a time.
	intakeMu sync.Mutex

	mu    sync.Mutex
	conns map[*serverConn]struct{}

	// migrateReq numbers migration exchanges; replies route back to the
	// waiting orchestration by this id.
	migrateReq atomic.Uint64

	// Counters (exposed on /metrics via WriteMetrics).
	chunksServed  atomic.Uint64
	chunkBytes    atomic.Uint64
	eventsRelayed atomic.Uint64
	batches       atomic.Uint64
	sessions      atomic.Uint64
	relayBatches  atomic.Uint64
	migrations    atomic.Uint64
	migrateFails  atomic.Uint64
}

// NewServer creates a server with an empty catalog.
func NewServer(cfg ServerConfig) *Server {
	if cfg.ID == "" {
		cfg.ID = "server"
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Server{
		id:       cfg.ID,
		catalog:  NewCatalog(),
		hub:      cfg.Hub,
		shardMap: cfg.ShardMap,
		relay:    cfg.Relay,
		logf:     cfg.Logf,
		seqs:     telemetry.NewSeqTracker(),
		conns:    make(map[*serverConn]struct{}),
	}
}

// Catalog returns the server's catalog.
func (s *Server) Catalog() *Catalog { return s.catalog }

// Publish (re)registers a view in the catalog and hot-pushes a generation
// notice to every connected node.
func (s *Server) Publish(v *kview.View) error {
	old := s.catalog.Gen()
	gen, err := s.catalog.Put(v)
	if err != nil {
		return err
	}
	if gen != old {
		s.notifyAll(gen)
	}
	return nil
}

// remove unregisters a view and pushes the change.
func (s *Server) remove(name string) bool {
	gen, ok := s.catalog.Remove(name)
	if ok {
		s.notifyAll(gen)
	}
	return ok
}

func (s *Server) notifyAll(gen uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		c.notify(gen)
	}
}

// PushShardMap pushes the current shard map to every connected session
// (a no-op without a ShardMap provider). Call after the plane's topology
// changes — a shard death, a new shard joining.
func (s *Server) PushShardMap() {
	if s.shardMap == nil {
		return
	}
	payload := encodeShardMap(s.shardMap())
	s.mu.Lock()
	conns := make([]*serverConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		// A failed write means the session is dying anyway; its read loop
		// surfaces the error.
		_ = c.write(msgShardMap, payload)
	}
}

// Nodes returns the number of connected nodes.
func (s *Server) Nodes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// HasNode reports whether a node with the given ID has a live session on
// this server — the shard plane uses it to locate migration endpoints.
func (s *Server) HasNode(node string) bool { return s.connFor(node) != nil }

// connFor finds the live session for a node (nil when not connected).
func (s *Server) connFor(node string) *serverConn {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		if c.nodeID == node {
			return c
		}
	}
	return nil
}

// MigrateResult summarizes one completed live migration.
type MigrateResult struct {
	App, Src, Dst string
	// ImageBytes is the wire size of the canonical image — COW deltas,
	// recovered set and bookkeeping only, never catalog chunks.
	ImageBytes int
	// DeltasApplied / DeltasSkipped count COW pages the target overlaid
	// vs. dropped (pages its reassembled view does not cover).
	DeltasApplied, DeltasSkipped int
}

// Migrate moves app's view state from node src to node dst through a
// two-phase cutover: offer→checkpoint on the source, digest-verified
// transfer, import on the target, then the commit directive back to the
// source (which unloads) — or, on any failure or timeout past the
// checkpoint, an abort directive (the source thaws, restoring its state
// exactly). Both endpoints must be connected sessions on this server;
// cross-shard moves compose RequestExport/DeliverImport/SignalOutcome
// across servers instead.
func (s *Server) Migrate(app, src, dst string, timeout time.Duration) (*MigrateResult, error) {
	if src == dst {
		return nil, fmt.Errorf("fleet: migrate %q: source and target are both %q", app, src)
	}
	req, img, err := s.RequestExport(app, src, dst, timeout)
	if err != nil {
		s.migrateFails.Add(1)
		return nil, err
	}
	applied, skipped, err := s.DeliverImport(req, app, dst, img, timeout)
	if err != nil {
		s.SignalOutcome(req, app, src, false, err.Error())
		s.migrateFails.Add(1)
		return nil, err
	}
	s.SignalOutcome(req, app, src, true, "")
	s.migrations.Add(1)
	s.logf("fleet: server: migrated %q %s→%s (%d image bytes, %d deltas applied, %d skipped)",
		app, src, dst, len(img), applied, skipped)
	return &MigrateResult{
		App: app, Src: src, Dst: dst,
		ImageBytes:    len(img),
		DeltasApplied: int(applied),
		DeltasSkipped: int(skipped),
	}, nil
}

// RequestExport runs the checkpoint phase against the source node: push a
// migrate offer, await the state reply, verify the wire digest pin. On
// success the source holds the app frozen until SignalOutcome decides
// commit or abort. The returned req correlates the rest of the exchange.
func (s *Server) RequestExport(app, src, dst string, timeout time.Duration) (req uint64, img []byte, err error) {
	c := s.connFor(src)
	if c == nil {
		return 0, nil, fmt.Errorf("fleet: migrate %q: source node %q not connected", app, src)
	}
	req = s.migrateReq.Add(1)
	f, err := c.roundTrip(req, msgMigrateOffer, encodeMigrateOffer(req, app, dst), timeout)
	if err != nil {
		return req, nil, fmt.Errorf("fleet: migrate %q: export from %q: %w", app, src, err)
	}
	if f.typ != msgMigrateState {
		return req, nil, errProto("migrate %q: expected migrate-state from %q, got %s", app, src, msgName(f.typ))
	}
	_, digest, img, refusal, err := decodeMigrateState(f.payload)
	if err != nil {
		return req, nil, err
	}
	if refusal != "" {
		return req, nil, fmt.Errorf("fleet: migrate %q: source %q refused: %s", app, src, refusal)
	}
	if sha256.Sum256(img) != digest {
		return req, nil, errProto("migrate %q: image digest mismatch from source %q", app, src)
	}
	return req, img, nil
}

// DeliverImport runs the restore phase against the target node: push the
// digest-pinned image, await the import verdict.
func (s *Server) DeliverImport(req uint64, app, dst string, img []byte, timeout time.Duration) (applied, skipped uint32, err error) {
	c := s.connFor(dst)
	if c == nil {
		return 0, 0, fmt.Errorf("fleet: migrate %q: target node %q not connected", app, dst)
	}
	f, err := c.roundTrip(req, msgMigrateState, encodeMigrateState(req, sha256.Sum256(img), img), timeout)
	if err != nil {
		return 0, 0, fmt.Errorf("fleet: migrate %q: import on %q: %w", app, dst, err)
	}
	if f.typ != msgMigrateAck {
		return 0, 0, errProto("migrate %q: expected migrate-ack from %q, got %s", app, dst, msgName(f.typ))
	}
	_, _, ok, applied, skipped, detail, err := decodeMigrateAck(f.payload)
	if err != nil {
		return 0, 0, err
	}
	if !ok {
		return 0, 0, fmt.Errorf("fleet: migrate %q: target %q rejected import: %s", app, dst, detail)
	}
	return applied, skipped, nil
}

// SignalOutcome sends the source its commit (ok) or abort directive. Best
// effort: if the source session is gone, its own teardown already thawed
// any frozen state.
func (s *Server) SignalOutcome(req uint64, app, src string, ok bool, detail string) {
	c := s.connFor(src)
	if c == nil {
		return
	}
	_ = c.write(msgMigrateAck, encodeMigrateAck(req, app, ok, 0, 0, detail))
}

// Serve accepts connections until the listener closes, handling each in
// its own goroutine.
func (s *Server) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go s.ServeConn(conn)
	}
}

// ServeConn runs the protocol on one established connection (the in-proc
// entry point for net.Pipe fleets) and blocks until it ends. The server
// closes the conn on exit.
func (s *Server) ServeConn(conn net.Conn) {
	s.sessions.Add(1)
	c := &serverConn{srv: s, conn: conn, updates: make(chan uint64, 1), pend: make(map[uint64]chan frame)}
	defer conn.Close()

	if err := c.handshake(); err != nil {
		s.logf("fleet: server: handshake: %v", err)
		return
	}
	s.logf("fleet: server: node %q joined", c.nodeID)

	// Close the missed-update window: a Publish that landed between the
	// HelloAck's manifest snapshot and the registration notified
	// only the conns registered at the time — not this one. If the
	// catalog moved past what the handshake sent, the node must hear
	// about it or it will idle on the stale manifest until the next
	// publish (which may never come).
	if gen := s.catalog.Gen(); gen > c.ackGen {
		c.notify(gen)
	}

	// Topology gossip: any single live seed teaches a node the plane.
	// Pushed only after the conn is registered, so a concurrent
	// PushShardMap (a shard death racing this handshake) can never fall
	// between the two and leave the node with a stale epoch — it either
	// lands here or in the broadcast, and the client keeps the newest.
	if s.shardMap != nil {
		if err := c.write(msgShardMap, encodeShardMap(s.shardMap())); err != nil {
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
			return
		}
	}

	// The pusher forwards publish notices; it owns no state and exits when
	// the updates channel closes after the read loop ends.
	var pushers sync.WaitGroup
	pushers.Add(1)
	go func() {
		defer pushers.Done()
		for gen := range c.updates {
			if err := c.write(msgUpdate, encodeUpdate(gen)); err != nil {
				return
			}
		}
	}()

	err := c.readLoop()
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.failPending()
	close(c.updates)
	pushers.Wait()
	if err != nil {
		s.logf("fleet: server: node %q left: %v", c.nodeID, err)
	}
}

// WriteMetrics implements telemetry.MetricSource: control-plane health for
// the fleet-wide /metrics endpoint.
func (s *Server) WriteMetrics(w *telemetry.Writer) {
	w.Gauge("facechange_fleet_nodes_connected", "nodes with a live control-plane session", float64(s.Nodes()))
	w.Gauge("facechange_fleet_catalog_generation", "catalog mutation generation", float64(s.catalog.Gen()))
	w.Gauge("facechange_fleet_catalog_views", "views in the canonical catalog", float64(len(s.catalog.Manifest().Views)))
	w.Counter("facechange_fleet_sessions_total", "node sessions accepted", float64(s.sessions.Load()))
	w.Counter("facechange_fleet_chunks_served_total", "content-addressed chunks served", float64(s.chunksServed.Load()))
	w.Counter("facechange_fleet_chunk_bytes_total", "chunk payload bytes served", float64(s.chunkBytes.Load()))
	w.Counter("facechange_fleet_telemetry_batches_total", "node telemetry batches relayed", float64(s.batches.Load()))
	w.Counter("facechange_fleet_telemetry_events_total", "node telemetry events relayed into the hub", float64(s.eventsRelayed.Load()))
	w.Counter("facechange_fleet_relay_batches_total", "shard-to-shard relay batches accepted", float64(s.relayBatches.Load()))
	w.Counter("facechange_fleet_telemetry_dup_events_total", "re-sent telemetry events deduplicated", float64(s.seqs.Dups()))
	w.Counter("facechange_fleet_telemetry_gap_events_total", "telemetry sequence holes (events lost upstream)", float64(s.seqs.Gaps()))
	w.Counter("facechange_fleet_migrations_total", "live migrations committed", float64(s.migrations.Load()))
	w.Counter("facechange_fleet_migrate_failures_total", "live migrations aborted", float64(s.migrateFails.Load()))
}

// serverConn is one node session.
type serverConn struct {
	srv    *Server
	conn   net.Conn
	nodeID string
	ackGen uint64 // catalog generation snapshotted into the HelloAck
	// relayed counts relay frames admitted on this session (read loop
	// only); each is acknowledged with the running count.
	relayed uint64

	writeMu sync.Mutex
	updates chan uint64

	// pend routes migrate replies (state, ack) back to the orchestration
	// goroutine waiting in roundTrip, keyed by exchange id. The read loop
	// is the conn's only reader, so request/reply must thread through it.
	pendMu     sync.Mutex
	pend       map[uint64]chan frame
	pendClosed bool
}

// roundTrip pushes one migrate frame and waits for the correlated reply,
// failing on timeout or session death.
func (c *serverConn) roundTrip(req uint64, typ byte, payload []byte, timeout time.Duration) (frame, error) {
	ch := make(chan frame, 1)
	c.pendMu.Lock()
	if c.pendClosed {
		c.pendMu.Unlock()
		return frame{}, fmt.Errorf("session with node %q closed", c.nodeID)
	}
	c.pend[req] = ch
	c.pendMu.Unlock()
	defer func() {
		c.pendMu.Lock()
		delete(c.pend, req)
		c.pendMu.Unlock()
	}()
	if err := c.write(typ, payload); err != nil {
		return frame{}, err
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case f, ok := <-ch:
		if !ok {
			return frame{}, fmt.Errorf("session with node %q died mid-exchange", c.nodeID)
		}
		return f, nil
	case <-t.C:
		return frame{}, fmt.Errorf("timeout waiting for reply to %s from node %q", msgName(typ), c.nodeID)
	}
}

// failPending closes every in-flight migrate exchange on session
// teardown, so orchestration waiting on a dead node fails fast instead of
// riding out the timeout.
func (c *serverConn) failPending() {
	c.pendMu.Lock()
	c.pendClosed = true
	for req, ch := range c.pend {
		close(ch)
		delete(c.pend, req)
	}
	c.pendMu.Unlock()
}

// write sends one frame under the connection's write lock (responses and
// pushes interleave on the same conn).
func (c *serverConn) write(typ byte, payload []byte) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return writeFrame(c.conn, typ, payload)
}

// notify enqueues a generation notice, collapsing bursts: the channel
// holds one pending notice and the newest generation wins.
func (c *serverConn) notify(gen uint64) {
	for {
		select {
		case c.updates <- gen:
			return
		default:
			select {
			case <-c.updates:
			default:
			}
		}
	}
}

// handshake expects Hello and answers HelloAck carrying the session
// version and the full manifest (saving the common case a round trip).
// A node advertising a newer version runs the session at ProtoVersion;
// older versions are rejected. An accepted session is registered with
// the server; on error it is not.
func (c *serverConn) handshake() error {
	f, err := readFrame(c.conn)
	if err != nil {
		return err
	}
	if f.typ != msgHello {
		return errProto("expected hello, got %s", msgName(f.typ))
	}
	proto, nodeID, err := decodeHello(f.payload)
	if err != nil {
		return err
	}
	if proto < ProtoVersion {
		_ = c.write(msgError, appendStr(nil, errProto("protocol version %d unsupported (server speaks %d)", proto, ProtoVersion).Error()))
		return errProto("node %q speaks protocol %d", nodeID, proto)
	}
	c.nodeID = nodeID
	// Register before the HelloAck goes out, holding the write lock across
	// both: a node that has its HelloAck (and so may already report its
	// catalog synced) is visible to HasNode and Migrate, and no shard-map
	// push, migrate frame or outcome can reach it ahead of the HelloAck.
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	m := c.srv.catalog.Manifest()
	c.ackGen = m.Gen
	c.srv.mu.Lock()
	c.srv.conns[c] = struct{}{}
	c.srv.mu.Unlock()
	if err := writeFrame(c.conn, msgHelloAck, encodeHelloAck(c.srv.id, m)); err != nil {
		c.srv.mu.Lock()
		delete(c.srv.conns, c)
		c.srv.mu.Unlock()
		return err
	}
	return nil
}

// handleTelemetry processes one sequence-numbered node batch. The
// acknowledgement that lets the node commit is deferred until the batch
// is durable at its final hop: immediately when this server is the
// aggregation point (no Relay configured), or once the relay has
// committed the batch upstream. On a relaying shard the local hub is an
// observability tee; the lossless stream is the relay.
func (c *serverConn) handleTelemetry(payload []byte) error {
	first, batch, err := decodeTelemetry(payload)
	if err != nil {
		return err
	}
	evs, err := telemetry.DecodeBatch(batch)
	if err != nil {
		return err
	}
	c.srv.batches.Add(1)
	c.srv.intake(c.nodeID, first, evs)
	upTo := first + uint64(len(evs))
	ack := func() { _ = c.write(msgTelemetryAck, encodeTelemetryAck(upTo)) }
	if c.srv.relay != nil {
		c.srv.relay(c.nodeID, first, evs, ack)
		return nil
	}
	ack()
	return nil
}

// intake is the server's one telemetry entry point, for node batches and
// shard relays alike: dedupe against the node's cumulative sequence,
// count, and replay the fresh suffix into the hub stamped with the origin
// node's identity. One lock spans all three, so concurrent sessions never
// push into the hub's single-producer rings at once, and each node's
// events reach the hub in sequence order. Hub.Emit never blocks, so the
// lock is held only for the copy into the rings.
func (s *Server) intake(node string, first uint64, evs []telemetry.Event) {
	s.intakeMu.Lock()
	defer s.intakeMu.Unlock()
	skip := s.seqs.Admit(node, first, len(evs))
	if skip >= len(evs) {
		return
	}
	s.eventsRelayed.Add(uint64(len(evs) - skip))
	if s.hub != nil {
		telemetry.ReplayInto(s.hub, node, evs[skip:])
	}
}

// readLoop serves requests until the connection errors or closes.
func (c *serverConn) readLoop() error {
	for {
		f, err := readFrame(c.conn)
		if err != nil {
			return err
		}
		switch f.typ {
		case msgGetCatalog:
			if err := c.write(msgCatalog, encodeManifest(c.srv.catalog.Manifest())); err != nil {
				return err
			}
		case msgWant:
			hashes, err := decodeWant(f.payload)
			if err != nil {
				return err
			}
			chunks := make([]Chunk, 0, len(hashes))
			for _, h := range hashes {
				if data, ok := c.srv.catalog.Chunk(h); ok {
					chunks = append(chunks, Chunk{Hash: h, Data: data})
					c.srv.chunksServed.Add(1)
					c.srv.chunkBytes.Add(uint64(len(data)))
				}
			}
			// Absent hashes (a publish raced the manifest) are simply not
			// included; the node detects the gap and re-syncs against the
			// newer manifest it is about to be notified of.
			if err := c.write(msgChunks, encodeChunks(chunks)); err != nil {
				return err
			}
		case msgTelemetry:
			if err := c.handleTelemetry(f.payload); err != nil {
				return err
			}
		case msgMigrateState, msgMigrateAck:
			// Replies to server-initiated migrate pushes: route to the
			// orchestration waiting on the exchange id.
			if len(f.payload) < 8 {
				return errProto("truncated %s from node %q", msgName(f.typ), c.nodeID)
			}
			req := binary.BigEndian.Uint64(f.payload)
			c.pendMu.Lock()
			ch := c.pend[req]
			delete(c.pend, req)
			c.pendMu.Unlock()
			if ch != nil {
				ch <- f
			}
			// No waiter: a stale reply after the orchestration timed out —
			// dropped; the source's abort directive handles the rest.
		case msgMigrateOffer:
			// Offers only flow server→node; a client sending one is broken.
			return errProto("unexpected migrate-offer from node %q", c.nodeID)
		case msgRelay:
			// Shard→aggregator forwarding: a peer shard relays one of its
			// nodes' batches, origin identity and sequence preserved.
			node, first, batch, err := decodeRelay(f.payload)
			if err != nil {
				return err
			}
			evs, err := telemetry.DecodeBatch(batch)
			if err != nil {
				return err
			}
			c.srv.relayBatches.Add(1)
			c.srv.intake(node, first, evs)
			// Acknowledge only after intake: the relaying shard commits
			// the batch, and acks its node, once it is in the hub.
			c.relayed++
			if err := c.write(msgTelemetryAck, encodeTelemetryAck(c.relayed)); err != nil {
				return err
			}
		default:
			return errProto("unexpected %s from node %q", msgName(f.typ), c.nodeID)
		}
	}
}
