package fleet

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"facechange/internal/core"
	"facechange/internal/kview"
	"facechange/internal/telemetry"
)

// ErrClosed is returned by operations on a node after Close.
var ErrClosed = errors.New("fleet: node closed")

// wantBatch bounds one Want request so a large catalog streams in
// several round trips instead of one giant frame.
const wantBatch = 64

// NodeConfig parameterizes a fleet node.
type NodeConfig struct {
	// ID identifies the node to the server (and stamps its telemetry).
	ID string
	// Dial establishes one control-plane connection (TCPDialer, or a
	// net.Pipe injector in tests).
	Dial func() (net.Conn, error)
	// Store is the host-level chunk store shared by co-located nodes. A
	// private store is created when nil.
	Store *ChunkStore
	// Runtime, when non-nil, receives synced views via LoadView/AssignView
	// (and UnloadView on removal or replacement), and its telemetry is
	// relayed to the server.
	Runtime *core.Runtime
	// readTimeout bounds each handshake or request round trip (default
	// 5s). The idle wait for push notices is unbounded.
	readTimeout time.Duration
	// Backoff shapes the reconnect schedule.
	Backoff BackoffConfig
	// FlushInterval paces telemetry relay batches (default 50ms).
	FlushInterval time.Duration
	// TelemetryBuf caps the relay buffer (default
	// telemetry.DefaultRemoteBufferSize).
	TelemetryBuf int
	// OnShardMap, when non-nil, receives every shard-map gossip frame the
	// server pushes (protocol v2). A Homing dialer hooks in here so the
	// node re-homes onto the ring successor when a shard dies.
	OnShardMap func(ShardMap)
	// Apply, when non-nil, is called at each sync commit with the new
	// manifest and its fully assembled views — the hook a shard member
	// uses to mirror a peer's partition into its own catalog. An error
	// aborts the sync (the previous complete catalog stays in place).
	Apply func(m Manifest, views []*kview.View) error
	// Migrate, when non-nil, lets this node act as a live-migration
	// endpoint: the server's offer/state pushes drive it to checkpoint,
	// commit, abort or import view state. A node without an agent refuses
	// offers gracefully.
	Migrate MigrationAgent
	// Logf, when non-nil, receives node lifecycle lines.
	Logf func(format string, args ...any)
}

// loadedView tracks one view the node has applied to its runtime.
type loadedView struct {
	idx    int
	digest Hash
}

// ResolveViewFunc reassembles a view configuration from the node's own
// content-addressed store by digest — the migration import path's only
// source of catalog content (chunks the target already mirrors are never
// re-sent; an unmirrored digest fails the resolve and the import). An
// alias, so agents implement MigrationAgent without importing fleet.
type ResolveViewFunc = func(digest Hash) (*kview.View, error)

// MigrationAgent is the node-side hook live migration drives. The
// standard implementation lives in internal/migrate (backed by a
// core.Runtime and optionally an evolve.Evolver); fleet only needs the
// byte-level contract, keeping wire and runtime layers decoupled.
//
// Freeze quiesces the app on this node (its view detaches from vCPUs,
// which revert to the full kernel view) but keeps all state; Export
// renders the canonical image. Commit releases the frozen state (the
// migration landed elsewhere); Abort restores it exactly. Import applies
// an image on this node, resolving the pinned view configuration through
// the supplied resolver, and reports the app plus the runtime view index
// and how many COW deltas applied or were skipped.
type MigrationAgent interface {
	Freeze(app string) error
	Export(app, srcNode string, finalSeq uint64) ([]byte, error)
	Commit(app string) error
	Abort(app string) error
	Import(img []byte, resolve ResolveViewFunc) (app string, idx, applied, skipped int, err error)
}

// Node is one fleet runtime's control-plane client. It keeps a session to
// the server (reconnecting with exponential backoff and jitter), delta-
// syncs the view catalog through the shared ChunkStore, applies changes to
// its runtime, and relays the runtime's telemetry. A sync commits
// atomically: until every chunk of the new catalog is resident, verified
// and applied, the node keeps serving its previous complete catalog.
type Node struct {
	cfg   NodeConfig
	store *ChunkStore
	buf   *telemetry.RemoteBuffer
	logf  func(string, ...any)

	mu        sync.Mutex
	conn      net.Conn // live session conn, for Close to interrupt
	refs      map[Hash]struct{}
	loaded    map[string]loadedView
	last      Manifest // last completely synced catalog
	synced    bool     // n.last is a real catalog, not the zero value
	connected bool
	lastErr   error
	// lastServer is the identity of the server the last committed sync
	// came from. Generation counters are per-server, so the
	// stale-generation guard is suspended until the first commit on a
	// *different* server — re-homing onto a ring successor adopts its
	// catalog whatever its generation counter says.
	lastServer string
	// relayNext is the node's cumulative telemetry relay sequence: events
	// committed out of the relay buffer so far. Batches carry it so
	// the aggregation point can dedupe re-sends after a shard death.
	relayNext uint64
	// inflight is the size of the one unacknowledged batch (0 when the
	// relay pipe is idle). The single-batch window keeps the peek/commit
	// bookkeeping trivial; the ack turnaround, not batching depth, paces
	// the relay.
	inflight int
	// smap is the latest shard-map gossip received, newest epoch wins.
	smap   ShardMap
	smapOK bool

	bytesIn  atomic.Uint64
	bytesOut atomic.Uint64
	syncs    atomic.Uint64
	retries  atomic.Uint64
	stale    atomic.Uint64 // catalogs ignored because an older gen arrived
	// boStep mirrors the reconnect backoff's current step for Status —
	// and pins the reset-only-after-complete-sync rule in tests without
	// racing the run loop.
	boStep atomic.Int64

	done    chan struct{}
	wg      sync.WaitGroup
	started bool
	closed  sync.Once
}

// NewNode creates a node. When cfg.Runtime is set, the runtime's telemetry
// emitter is pointed at the node's relay buffer.
func NewNode(cfg NodeConfig) *Node {
	if cfg.readTimeout <= 0 {
		cfg.readTimeout = 5 * time.Second
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = 50 * time.Millisecond
	}
	if cfg.TelemetryBuf <= 0 {
		cfg.TelemetryBuf = telemetry.DefaultRemoteBufferSize
	}
	if cfg.Store == nil {
		cfg.Store = NewChunkStore()
	}
	n := &Node{
		cfg:    cfg,
		store:  cfg.Store,
		buf:    telemetry.NewRemoteBuffer(cfg.TelemetryBuf),
		logf:   cfg.Logf,
		refs:   make(map[Hash]struct{}),
		loaded: make(map[string]loadedView),
		done:   make(chan struct{}),
	}
	if n.logf == nil {
		n.logf = func(string, ...any) {}
	}
	if cfg.Runtime != nil {
		cfg.Runtime.SetEmitter(n.buf)
	}
	return n
}

// Telemetry returns the node's relay buffer (its runtime's emitter).
func (n *Node) Telemetry() *telemetry.RemoteBuffer { return n.buf }

// ShardMap returns the latest shard-map gossip the node has received,
// and whether one has arrived at all (v2 sessions against a sharded
// plane only).
func (n *Node) ShardMap() (ShardMap, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.smap.Clone(), n.smapOK
}

// Start launches the connection loop.
func (n *Node) Start() {
	n.mu.Lock()
	if n.started {
		n.mu.Unlock()
		return
	}
	n.started = true
	n.mu.Unlock()
	n.wg.Add(1)
	go n.run()
}

// Close ends the session, stops reconnecting and releases every chunk
// reference the node holds. Views already applied to the runtime stay
// loaded — shutting down the control plane must not disturb a serving
// runtime. The session gets a short grace window to flush any buffered
// telemetry before its connection is forced shut, so a clean shutdown
// loses no events.
func (n *Node) Close() {
	n.closed.Do(func() {
		close(n.done)
		n.mu.Lock()
		if n.conn != nil {
			// Deadline rather than Close: the session's teardown path runs a
			// final telemetry flush, then closes the conn itself. The
			// deadline is only the backstop against a wedged peer.
			n.conn.SetDeadline(time.Now().Add(500 * time.Millisecond))
		}
		n.mu.Unlock()
		n.wg.Wait()
		n.mu.Lock()
		for h := range n.refs {
			n.store.Unref(h)
		}
		n.refs = make(map[Hash]struct{})
		n.mu.Unlock()
	})
}

// Manifest returns the last completely synced catalog.
func (n *Node) Manifest() Manifest {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.last
}

// Digest returns the content digest of the last complete catalog.
func (n *Node) Digest() string { return n.Manifest().DigestString() }

// NodeStatus is a point-in-time snapshot of a node.
type NodeStatus struct {
	ID         string
	Connected  bool
	Gen        uint64
	Digest     string
	Views      int
	Syncs      uint64
	Retries    uint64
	StaleSkips uint64
	BytesIn    uint64
	BytesOut   uint64
	Drops      uint64
	// RetryStep is the backoff's current step: Backoff.Base after a
	// complete catalog sync committed, grown exponentially otherwise.
	RetryStep time.Duration
	// Server identifies the server (shard) the last committed sync came
	// from (v2 sessions).
	Server  string
	LastErr string
}

// Status snapshots the node.
func (n *Node) Status() NodeStatus {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := NodeStatus{
		ID:         n.cfg.ID,
		Connected:  n.connected,
		Gen:        n.last.Gen,
		Digest:     n.last.DigestString(),
		Views:      len(n.last.Views),
		Syncs:      n.syncs.Load(),
		Retries:    n.retries.Load(),
		StaleSkips: n.stale.Load(),
		BytesIn:    n.bytesIn.Load(),
		BytesOut:   n.bytesOut.Load(),
		Drops:      n.buf.Drops(),
		RetryStep:  time.Duration(n.boStep.Load()),
		Server:     n.lastServer,
	}
	if n.lastErr != nil {
		st.LastErr = n.lastErr.Error()
	}
	return st
}

// WaitDigest blocks until the node's last complete catalog matches the
// given content digest, or the timeout passes.
func (n *Node) WaitDigest(digest string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if n.Digest() == digest {
			return nil
		}
		select {
		case <-n.done:
			return ErrClosed
		default:
		}
		if time.Now().After(deadline) {
			return errProto("node %q: digest %s after %v (want %s)", n.cfg.ID, n.Digest(), timeout, digest)
		}
		time.Sleep(time.Millisecond)
	}
}

// WaitRelayed blocks until every node's telemetry relay buffer is empty,
// or fails once the timeout passes, naming the nodes still holding
// events. A node commits its buffer only on the aggregation point's
// acknowledgement, and a relaying shard defers that until the aggregator
// has admitted the batch, so empty buffers mean every event is in the
// aggregator's hub.
func WaitRelayed(timeout time.Duration, nodes ...*Node) error {
	deadline := time.Now().Add(timeout)
	for {
		var held []string
		for _, n := range nodes {
			if k := n.buf.Len(); k > 0 {
				held = append(held, fmt.Sprintf("%s (%d events)", n.cfg.ID, k))
			}
		}
		if len(held) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet: telemetry not relayed after %v: %s", timeout, strings.Join(held, ", "))
		}
		time.Sleep(time.Millisecond)
	}
}

// run is the reconnect loop: dial, run a session, and on failure retry
// with exponential backoff plus jitter. The last complete catalog keeps
// serving throughout outages.
//
// The backoff resets only after a session commits a *complete* catalog
// sync — not after any session that merely dialed. A flapping server
// that accepts connections and handshakes but never finishes serving a
// catalog would otherwise be hammered at the base delay forever.
func (n *Node) run() {
	defer n.wg.Done()
	bo := newBackoff(n.cfg.Backoff, n.cfg.ID)
	n.boStep.Store(int64(bo.next))
	for {
		select {
		case <-n.done:
			return
		default:
		}
		conn, err := n.cfg.Dial()
		if err == nil {
			before := n.syncs.Load()
			err = n.session(conn)
			if n.syncs.Load() > before {
				bo.reset()
			}
		}
		n.mu.Lock()
		n.connected = false
		n.conn = nil
		if err != nil {
			n.lastErr = err
		}
		n.mu.Unlock()
		select {
		case <-n.done:
			return
		default:
		}
		n.retries.Add(1)
		d := bo.delay()
		n.boStep.Store(int64(bo.next))
		n.logf("fleet: node %q: session ended (%v), retrying in %v", n.cfg.ID, err, d)
		select {
		case <-n.done:
			return
		case <-time.After(d):
		}
	}
}

// clientHandshake is the client side of session setup, shared by nodes and
// shard relays: send hello as id, read the reply within timeout (the only
// read outside a session's read loop), and decode the hello-ack. A
// msgError reply is the server's rejection.
func clientHandshake(conn net.Conn, id string, timeout time.Duration) (serverID string, m Manifest, err error) {
	if err := writeFrame(conn, msgHello, encodeHello(id)); err != nil {
		return "", Manifest{}, err
	}
	conn.SetReadDeadline(time.Now().Add(timeout))
	f, err := readFrame(conn)
	conn.SetReadDeadline(time.Time{})
	if err != nil {
		return "", Manifest{}, err
	}
	if f.typ == msgError {
		r := &wireReader{b: f.payload}
		msg, _ := r.str()
		return "", Manifest{}, errProto("server rejected session: %s", msg)
	}
	if f.typ != msgHelloAck {
		return "", Manifest{}, errProto("expected hello-ack, got %s", msgName(f.typ))
	}
	proto, serverID, m, err := decodeHelloAck(f.payload)
	if err != nil {
		return "", Manifest{}, err
	}
	if proto != ProtoVersion {
		return "", Manifest{}, errProto("server answered protocol %d (this build speaks %d)", proto, ProtoVersion)
	}
	return serverID, m, nil
}

// session is one connected epoch: handshake, initial sync, then serve
// push notices and relay telemetry until the connection dies.
type session struct {
	node     *Node
	conn     net.Conn
	serverID string // the server's identity from the HelloAck
	writeMu  sync.Mutex
	frames   chan frame
	readErr  error
	pending  bool // an update notice arrived while a round trip was in flight
	// frozen tracks apps checkpointed for migration and awaiting the
	// server's commit-or-abort directive. Session-goroutine-only. Teardown
	// aborts every entry, so a node that loses its control-plane session
	// mid-migration restores its own state instead of stranding it.
	// Each entry holds the exchange that froze the app; only a directive
	// for that exchange settles it.
	frozen map[string]uint64

	// telScratch is the relay's batch buffer, reused across flushes so the
	// steady-state peek is allocation-free.
	telScratch [relayBatch]telemetry.Event
}

// relayBatch is the telemetry relay's per-flush batch size.
const relayBatch = 256

func (n *Node) session(raw net.Conn) error {
	conn := &countingConn{Conn: raw, in: &n.bytesIn, out: &n.bytesOut}
	defer raw.Close()
	n.mu.Lock()
	select {
	case <-n.done:
		n.mu.Unlock()
		return ErrClosed
	default:
	}
	n.conn = raw
	n.mu.Unlock()

	s := &session{node: n, conn: conn, frames: make(chan frame, 64), frozen: make(map[string]uint64)}
	defer func() {
		for app := range s.frozen {
			if err := n.cfg.Migrate.Abort(app); err != nil {
				n.logf("fleet: node %q: abort frozen %q on session end: %v", n.cfg.ID, app, err)
			} else {
				n.logf("fleet: node %q: session died mid-migration, thawed %q", n.cfg.ID, app)
			}
		}
	}()
	serverID, manifest, err := clientHandshake(conn, n.cfg.ID, n.cfg.readTimeout)
	if err != nil {
		return err
	}
	s.serverID = serverID
	n.mu.Lock()
	n.connected = true
	n.lastErr = nil
	n.inflight = 0 // any unacked batch from a prior session is re-sent
	n.mu.Unlock()
	n.logf("fleet: node %q: connected (catalog gen %d, %d views)", n.cfg.ID, manifest.Gen, len(manifest.Views))

	// Dedicated read loop: the only reader after the handshake. It always
	// drains the conn into a buffered channel, so a server interleaving a
	// push notice with a response never deadlocks an unbuffered transport
	// (net.Pipe) against our own pending write.
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			f, err := readFrame(conn)
			if err != nil {
				s.readErr = err
				close(s.frames)
				return
			}
			select {
			case s.frames <- f:
			case <-n.done:
				s.readErr = ErrClosed
				close(s.frames)
				return
			}
		}
	}()
	defer readers.Wait()
	defer raw.Close() // unblocks the read loop before readers.Wait

	// Telemetry flusher: ships buffered runtime events in batches.
	flusher := make(chan struct{})
	var flushers sync.WaitGroup
	flushers.Add(1)
	go func() {
		defer flushers.Done()
		tick := time.NewTicker(n.cfg.FlushInterval)
		defer tick.Stop()
		for {
			select {
			case <-flusher:
				s.flushTelemetry() // final flush so a clean teardown loses nothing
				return
			case <-n.done:
				s.flushTelemetry()
				return
			case <-tick.C:
				s.flushTelemetry()
			}
		}
	}()
	defer flushers.Wait()
	defer close(flusher)

	if err := s.sync(manifest); err != nil {
		return err
	}
	for {
		if s.pending {
			s.pending = false
			if err := s.resync(); err != nil {
				return err
			}
			continue
		}
		select {
		case <-n.done:
			return ErrClosed
		case f, ok := <-s.frames:
			if !ok {
				return s.readErr
			}
			switch f.typ {
			case msgUpdate:
				if _, err := decodeUpdate(f.payload); err != nil {
					return err
				}
				if err := s.resync(); err != nil {
					return err
				}
			case msgTelemetryAck:
				if err := s.handleAck(f.payload); err != nil {
					return err
				}
			case msgShardMap:
				if err := s.handleShardMap(f.payload); err != nil {
					return err
				}
			case msgMigrateOffer:
				if err := s.handleMigrateOffer(f.payload); err != nil {
					return err
				}
			case msgMigrateState:
				if err := s.handleMigrateImport(f.payload); err != nil {
					return err
				}
			case msgMigrateAck:
				if err := s.handleMigrateDirective(f.payload); err != nil {
					return err
				}
			case msgError:
				r := &wireReader{b: f.payload}
				msg, _ := r.str()
				return errProto("server error: %s", msg)
			default:
				return errProto("unexpected %s", msgName(f.typ))
			}
		}
	}
}

// handleMigrateOffer checkpoints an app for migration: freeze, drain the
// relay rings so the telemetry watermark is final, export the canonical
// image, and answer with its digest-pinned bytes. Any failure thaws and
// answers a refusal — the server aborts, the source keeps serving.
func (s *session) handleMigrateOffer(payload []byte) error {
	req, app, dst, err := decodeMigrateOffer(payload)
	if err != nil {
		return err
	}
	n := s.node
	refuse := func(msg string) error {
		n.logf("fleet: node %q: refusing migration of %q to %q: %s", n.cfg.ID, app, dst, msg)
		return s.write(msgMigrateState, encodeMigrateRefuse(req, msg))
	}
	agent := n.cfg.Migrate
	if agent == nil {
		return refuse("no migration agent configured")
	}
	if err := agent.Freeze(app); err != nil {
		return refuse(err.Error())
	}
	// Freeze first, then drain: every event the app emitted on this node
	// is now behind the watermark. The flush ships what the in-flight
	// window allows; what stays buffered is still counted — relayNext plus
	// the buffer length is the node's total emitted sequence, and the
	// peek/commit discipline guarantees everything below it is delivered.
	s.flushTelemetry()
	n.mu.Lock()
	finalSeq := n.relayNext + uint64(n.buf.Len())
	n.mu.Unlock()
	img, err := agent.Export(app, n.cfg.ID, finalSeq)
	if err != nil {
		if aerr := agent.Abort(app); aerr != nil {
			n.logf("fleet: node %q: thaw %q after export failure: %v", n.cfg.ID, app, aerr)
		}
		return refuse(err.Error())
	}
	s.frozen[app] = req
	n.logf("fleet: node %q: exported %q for migration to %q (%d bytes, final seq %d)",
		n.cfg.ID, app, dst, len(img), finalSeq)
	return s.write(msgMigrateState, encodeMigrateState(req, sha256.Sum256(img), img))
}

// handleMigrateImport restores a pushed migration image on this node,
// reassembling the pinned view configuration from the local chunk store.
func (s *session) handleMigrateImport(payload []byte) error {
	req, digest, img, refusal, err := decodeMigrateState(payload)
	if err != nil {
		return err
	}
	n := s.node
	fail := func(app, msg string) error {
		n.logf("fleet: node %q: migration import failed: %s", n.cfg.ID, msg)
		return s.write(msgMigrateAck, encodeMigrateAck(req, app, false, 0, 0, msg))
	}
	if refusal != "" {
		return fail("", "refusal frame pushed to import target")
	}
	if n.cfg.Migrate == nil {
		return fail("", "no migration agent configured")
	}
	if sha256.Sum256(img) != digest {
		return fail("", "image bytes do not match their digest pin")
	}
	// Remember which view digest the agent resolved so the node's applied-
	// view bookkeeping can adopt the imported instance.
	var resolved struct {
		d  Hash
		ok bool
	}
	resolve := func(d Hash) (*kview.View, error) {
		resolved.d, resolved.ok = d, true
		return n.resolveView(d)
	}
	app, idx, applied, skipped, err := n.cfg.Migrate.Import(img, resolve)
	if err != nil {
		return fail(app, err.Error())
	}
	// The imported instance supersedes any catalog-synced load of the same
	// app: adopt it in the loaded map (so future syncs with an unchanged
	// digest keep it) and retire the superseded index.
	if resolved.ok {
		n.mu.Lock()
		old, had := n.loaded[app]
		n.loaded[app] = loadedView{idx: idx, digest: resolved.d}
		n.mu.Unlock()
		if had && old.idx != idx && n.cfg.Runtime != nil {
			if uerr := n.cfg.Runtime.UnloadView(old.idx); uerr != nil {
				n.logf("fleet: node %q: retire superseded view %d for %q: %v", n.cfg.ID, old.idx, app, uerr)
			}
		}
	}
	n.logf("fleet: node %q: imported %q (%d deltas applied, %d skipped)", n.cfg.ID, app, applied, skipped)
	return s.write(msgMigrateAck, encodeMigrateAck(req, app, true, uint32(applied), uint32(skipped), ""))
}

// handleMigrateDirective resolves a frozen checkpoint: commit (the
// migration landed on the target — unload here) or abort (restore the
// app exactly as it was). It answers with a migrate-ack for the same
// exchange once Commit or Abort has returned, so the server's migration
// returns only after the source has settled.
func (s *session) handleMigrateDirective(payload []byte) error {
	req, app, commit, _, _, detail, err := decodeMigrateAck(payload)
	if err != nil {
		return err
	}
	n := s.node
	settled := func(err error) error {
		if err != nil {
			n.logf("fleet: node %q: settle migration of %q: %v", n.cfg.ID, app, err)
			return s.write(msgMigrateAck, encodeMigrateAck(req, app, false, 0, 0, err.Error()))
		}
		return s.write(msgMigrateAck, encodeMigrateAck(req, app, true, 0, 0, ""))
	}
	if froze, ok := s.frozen[app]; !ok || froze != req {
		// This exchange froze nothing here (the offer was refused, or the
		// app is frozen for another exchange): an abort has nothing to
		// thaw, and a commit has nothing to unload.
		if commit {
			return settled(fmt.Errorf("%q is not frozen for exchange %d on this session", app, req))
		}
		return settled(nil)
	}
	delete(s.frozen, app)
	if !commit {
		if err := n.cfg.Migrate.Abort(app); err != nil {
			return settled(err)
		}
		n.logf("fleet: node %q: migration of %q aborted (%s), state restored", n.cfg.ID, app, detail)
		return settled(nil)
	}
	if err := n.cfg.Migrate.Commit(app); err != nil {
		return settled(err)
	}
	// The app's state now lives on the target; drop the applied-view
	// entry so a future catalog sync reloads the view pristine.
	n.mu.Lock()
	delete(n.loaded, app)
	n.mu.Unlock()
	n.logf("fleet: node %q: migration of %q committed, view unloaded", n.cfg.ID, app)
	return settled(nil)
}

// resolveView reassembles the catalog view with the given content digest
// from the node's own chunk store.
func (n *Node) resolveView(d Hash) (*kview.View, error) {
	n.mu.Lock()
	m := n.last
	n.mu.Unlock()
	for _, vm := range m.Views {
		if vm.Digest == d {
			return AssembleView(vm, n.store.Get)
		}
	}
	return nil, fmt.Errorf("fleet: node %q mirrors no view with digest %x (sync the catalog before migrating)", n.cfg.ID, d[:8])
}

// handleAck commits the relay buffer up to the acknowledged cumulative
// sequence and reopens the in-flight window — events are durable at the
// aggregation point, so they may finally leave the node. The immediate
// re-flush keeps the relay streaming at ack turnaround rate rather than
// once per FlushInterval.
func (s *session) handleAck(payload []byte) error {
	upTo, err := decodeTelemetryAck(payload)
	if err != nil {
		return err
	}
	n := s.node
	n.mu.Lock()
	base := n.relayNext
	infl := n.inflight
	n.mu.Unlock()
	if upTo > base {
		n.buf.Commit(int(upTo - base))
	}
	n.mu.Lock()
	if upTo > n.relayNext {
		n.relayNext = upTo
	}
	// Reopen the window only when this ack covers the claimed batch. A
	// stale or duplicate ack must not clear a claim another flush is
	// still encoding — the claim is also the scratch buffer's lock.
	if infl > 0 && upTo >= base+uint64(infl) {
		n.inflight = 0
	}
	n.mu.Unlock()
	s.flushTelemetry()
	return nil
}

// handleShardMap records shard-map gossip (newest epoch wins) and
// forwards it to the configured hook.
func (s *session) handleShardMap(payload []byte) error {
	m, err := decodeShardMap(payload)
	if err != nil {
		return err
	}
	n := s.node
	n.mu.Lock()
	if n.smapOK && m.Epoch < n.smap.Epoch {
		n.mu.Unlock()
		return nil
	}
	n.smap = m
	n.smapOK = true
	n.mu.Unlock()
	n.logf("fleet: node %q: shard map epoch %d (%d shards, aggregator %q)", n.cfg.ID, m.Epoch, len(m.Shards), m.Aggregator)
	if n.cfg.OnShardMap != nil {
		n.cfg.OnShardMap(m)
	}
	return nil
}

// write sends one frame under the session's write lock (requests and
// telemetry batches interleave on the same conn).
func (s *session) write(typ byte, payload []byte) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	return writeFrame(s.conn, typ, payload)
}

// await reads frames until one of the wanted type arrives, stashing push
// notices that interleave with the response. Bounded by readTimeout.
func (s *session) await(want byte) (frame, error) {
	timer := time.NewTimer(s.node.cfg.readTimeout)
	defer timer.Stop()
	for {
		select {
		case <-s.node.done:
			return frame{}, ErrClosed
		case f, ok := <-s.frames:
			if !ok {
				return frame{}, s.readErr
			}
			switch f.typ {
			case want:
				return f, nil
			case msgUpdate:
				s.pending = true
			case msgTelemetryAck:
				if err := s.handleAck(f.payload); err != nil {
					return frame{}, err
				}
			case msgShardMap:
				if err := s.handleShardMap(f.payload); err != nil {
					return frame{}, err
				}
			case msgMigrateOffer:
				if err := s.handleMigrateOffer(f.payload); err != nil {
					return frame{}, err
				}
			case msgMigrateState:
				if err := s.handleMigrateImport(f.payload); err != nil {
					return frame{}, err
				}
			case msgMigrateAck:
				if err := s.handleMigrateDirective(f.payload); err != nil {
					return frame{}, err
				}
			case msgError:
				r := &wireReader{b: f.payload}
				msg, _ := r.str()
				return frame{}, errProto("server error: %s", msg)
			default:
				return frame{}, errProto("expected %s, got %s", msgName(want), msgName(f.typ))
			}
		case <-timer.C:
			return frame{}, errProto("timed out awaiting %s", msgName(want))
		}
	}
}

// flushTelemetry ships at most one sequence-numbered batch and leaves it
// in the buffer until the server's telemetry-ack arrives (handleAck
// commits and immediately re-flushes). Committing on an explicit
// end-to-end ack rather than on write success is what makes the
// accounting exact through a *shard* death: a shard that dies holding
// our batch never acked it, so the batch is re-sent — at the same
// sequence — to the ring successor, and the aggregator dedupes any
// double delivery.
func (s *session) flushTelemetry() {
	node := s.node
	node.mu.Lock()
	if node.inflight > 0 {
		node.mu.Unlock()
		return
	}
	// Peek only after winning the claim: telScratch is shared between the
	// ticker flusher and the ack-path re-flush, and the in-flight window
	// is what keeps the loser's hands off it while the winner encodes.
	cnt := node.buf.PeekBatchInto(s.telScratch[:])
	if cnt == 0 {
		node.mu.Unlock()
		return
	}
	node.inflight = cnt
	first := node.relayNext
	node.mu.Unlock()
	payload, err := telemetry.EncodeBatch(s.telScratch[:cnt])
	if err == nil {
		err = s.write(msgTelemetry, encodeTelemetry(first, payload))
	}
	if err != nil {
		node.mu.Lock()
		node.inflight = 0
		node.mu.Unlock()
	}
}

// resync pulls the current manifest and syncs to it.
func (s *session) resync() error {
	if err := s.write(msgGetCatalog, nil); err != nil {
		return err
	}
	f, err := s.await(msgCatalog)
	if err != nil {
		return err
	}
	m, err := decodeManifest(f.payload)
	if err != nil {
		return err
	}
	return s.sync(m)
}

// sync brings the node to the given catalog: reference every chunk already
// resident in the shared store (the delta-sync fast path — an interned-page
// cache hit, no bytes on the wire), download only the missing ones, verify
// and decode every view, apply the changes to the runtime, and only then
// commit the manifest as the node's catalog. A failure anywhere leaves the
// previous complete catalog in place; chunk references taken so far are
// kept so the eventual resume transfers only what is still missing.
func (s *session) sync(m Manifest) error {
	n := s.node

	// Newest wins: generations move forward only. A manifest older than
	// the committed catalog (a slow server response racing a push, or a
	// replayed frame) is ignored rather than applied — rolling a runtime
	// back to a stale view set would silently shrink or regress its
	// kernel views. Skipping generations forward (G to G+2) is fine: a
	// sync carries the complete catalog, not a delta from G+1.
	//
	// Generation counters are per-server, so the guard only applies while
	// talking to the server the committed catalog came from. A re-homed
	// node (shard failover, serverID differs) adopts the successor's
	// catalog whatever its counter says; content digests, not generations,
	// are the cross-shard convergence check.
	n.mu.Lock()
	if n.synced && n.lastServer == s.serverID && m.Gen < n.last.Gen {
		have := n.last.Gen
		n.mu.Unlock()
		n.stale.Add(1)
		n.logf("fleet: node %q: ignoring stale catalog gen %d (have gen %d)", n.cfg.ID, m.Gen, have)
		return nil
	}
	n.mu.Unlock()

	needed := m.ChunkSet()

	var want []Hash
	n.mu.Lock()
	for h := range needed {
		if _, ok := n.refs[h]; ok {
			continue
		}
		if n.store.Ref(h) {
			n.refs[h] = struct{}{}
		} else {
			want = append(want, h)
		}
	}
	n.mu.Unlock()

	for len(want) > 0 {
		batch := want[:min(len(want), wantBatch)]
		want = want[len(batch):]
		if err := s.write(msgWant, encodeWant(batch)); err != nil {
			return err
		}
		f, err := s.await(msgChunks)
		if err != nil {
			return err
		}
		chunks, err := decodeChunks(f.payload)
		if err != nil {
			return err
		}
		got := make(map[Hash]struct{}, len(chunks))
		for _, ch := range chunks {
			if sha256.Sum256(ch.Data) != ch.Hash {
				return errProto("chunk content does not match its hash")
			}
			if _, ok := needed[ch.Hash]; !ok {
				return errProto("server sent unrequested chunk")
			}
			if _, err := n.store.Put(ch.Data); err != nil {
				return err
			}
			n.mu.Lock()
			if _, dup := n.refs[ch.Hash]; dup {
				// Already referenced (concurrent path); drop the extra ref.
				n.store.Unref(ch.Hash)
			} else {
				n.refs[ch.Hash] = struct{}{}
			}
			n.mu.Unlock()
			got[ch.Hash] = struct{}{}
		}
		for _, h := range batch {
			if _, ok := got[h]; !ok {
				// The server no longer has this chunk: a publish raced our
				// manifest. Abort this sync; the pending update notice (or
				// reconnect) re-syncs against the newer catalog.
				return errProto("server is missing a catalog chunk (catalog moved); re-syncing")
			}
		}
	}

	// Assemble and decode every view before touching the runtime.
	views := make([]*kview.View, len(m.Views))
	for i, vm := range m.Views {
		v, err := AssembleView(vm, n.store.Get)
		if err != nil {
			return err
		}
		views[i] = v
	}

	// Apply: load new or changed views, retire removed or replaced ones.
	if rt := n.cfg.Runtime; rt != nil {
		inManifest := make(map[string]struct{}, len(m.Views))
		for i, vm := range m.Views {
			inManifest[vm.Name] = struct{}{}
			n.mu.Lock()
			cur, ok := n.loaded[vm.Name]
			n.mu.Unlock()
			if ok && cur.digest == vm.Digest {
				continue
			}
			idx, err := rt.LoadView(views[i])
			if err != nil {
				return err
			}
			if err := rt.AssignView(vm.Name, idx); err != nil {
				return err
			}
			if ok {
				if err := rt.UnloadView(cur.idx); err != nil {
					return err
				}
			}
			n.mu.Lock()
			n.loaded[vm.Name] = loadedView{idx: idx, digest: vm.Digest}
			n.mu.Unlock()
		}
		n.mu.Lock()
		stale := make(map[string]loadedView)
		for name, lv := range n.loaded {
			if _, ok := inManifest[name]; !ok {
				stale[name] = lv
			}
		}
		n.mu.Unlock()
		for name, lv := range stale {
			if err := rt.UnloadView(lv.idx); err != nil {
				return err
			}
			n.mu.Lock()
			delete(n.loaded, name)
			n.mu.Unlock()
		}
	}

	// Mirror hook: a shard member replicating a peer's partition gets the
	// assembled views before commit — an error aborts the sync with the
	// previous complete catalog intact.
	if n.cfg.Apply != nil {
		if err := n.cfg.Apply(m, views); err != nil {
			return err
		}
	}

	// Commit: the new catalog becomes the node's catalog, and references on
	// chunks it no longer needs are released.
	n.mu.Lock()
	for h := range n.refs {
		if _, ok := needed[h]; !ok {
			n.store.Unref(h)
			delete(n.refs, h)
		}
	}
	n.last = m
	n.synced = true
	n.lastServer = s.serverID
	n.mu.Unlock()
	n.syncs.Add(1)
	n.logf("fleet: node %q: synced catalog gen %d (%d views, digest %s)", n.cfg.ID, m.Gen, len(m.Views), m.DigestString())
	return nil
}
