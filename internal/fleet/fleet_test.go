package fleet

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"facechange/internal/core"
	"facechange/internal/kernel"
	"facechange/internal/kview"
	"facechange/internal/telemetry"
)

const waitFor = 10 * time.Second

// pipeDialer wires every dial attempt to the server over an in-process
// net.Pipe, optionally transforming the client end (fault injection).
func pipeDialer(srv *Server, wrap func(net.Conn) net.Conn) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		c, s := net.Pipe()
		go srv.ServeConn(s)
		if wrap != nil {
			return wrap(c), nil
		}
		return c, nil
	}
}

func fastCfg(id string, srv *Server, store *ChunkStore) NodeConfig {
	return NodeConfig{
		ID:            id,
		Dial:          pipeDialer(srv, nil),
		Store:         store,
		Backoff:       BackoffConfig{Base: time.Millisecond, Max: 20 * time.Millisecond},
		FlushInterval: 2 * time.Millisecond,
		readTimeout:   2 * time.Second,
	}
}

func TestCatalogPutRemoveGenerations(t *testing.T) {
	c := NewCatalog()
	g1, err := c.Put(testView("a", 100, 0))
	if err != nil || g1 != 1 {
		t.Fatalf("first put: gen %d err %v", g1, err)
	}
	// Identical content: no generation move.
	g2, err := c.Put(testView("a", 100, 0))
	if err != nil || g2 != g1 {
		t.Fatalf("idempotent put moved gen to %d (%v)", g2, err)
	}
	// Changed content: new generation, old chunks dropped.
	g3, _ := c.Put(testView("a", 120, 0))
	if g3 != g1+1 {
		t.Fatalf("changed put: gen %d", g3)
	}
	m := c.Manifest()
	for _, h := range m.Views[0].Chunks {
		if _, ok := c.Chunk(h); !ok {
			t.Fatal("live chunk missing")
		}
	}
	if gen, ok := c.Remove("a"); !ok || gen != g3+1 {
		t.Fatalf("remove: gen %d ok %v", gen, ok)
	}
	if len(c.Manifest().Views) != 0 {
		t.Fatal("view survived removal")
	}
	if _, ok := c.Chunk(m.Views[0].Chunks[0]); ok {
		t.Fatal("chunk survived last unref")
	}
}

func TestChunkStoreRefPutUnref(t *testing.T) {
	s := NewChunkStore()
	data := []byte("fleet chunk payload")
	h, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(h); !ok || string(got) != string(data) {
		t.Fatalf("get: %q ok=%v", got, ok)
	}
	if s.Stats().Hits != 0 {
		t.Fatal("first put counted as a hit")
	}
	// Second reference rides the interned-page hit path.
	if !s.Ref(h) {
		t.Fatal("ref of resident chunk failed")
	}
	st := s.Stats()
	if st.Hits != 1 || st.BytesSavedTotal == 0 {
		t.Fatalf("ref did not hit the page cache: %+v", st)
	}
	if s.Ref(Hash{0xEE}) {
		t.Fatal("ref of absent chunk succeeded")
	}
	s.Unref(h)
	if len(s.entries) != 1 {
		t.Fatal("chunk freed while referenced")
	}
	s.Unref(h)
	if len(s.entries) != 0 {
		t.Fatal("chunk survived last unref")
	}
}

// TestDeltaSyncSecondNodeTransfersFewerBytes is the headline delta-sync
// property: with a shared host-level chunk store, the second node joining
// an already-synced server moves strictly fewer bytes over the wire and
// takes its chunks from the interned-page cache instead.
func TestDeltaSyncSecondNodeTransfersFewerBytes(t *testing.T) {
	srv := NewServer(ServerConfig{})
	if err := srv.Publish(testView("apache", 1500, 0)); err != nil {
		t.Fatal(err)
	}
	if err := srv.Publish(testView("nginx", 900, 7)); err != nil {
		t.Fatal(err)
	}
	want := srv.Catalog().Manifest().DigestString()

	store := NewChunkStore()
	n1 := NewNode(fastCfg("node-1", srv, store))
	n1.Start()
	defer n1.Close()
	if err := n1.WaitDigest(want, waitFor); err != nil {
		t.Fatal(err)
	}
	b1 := n1.Status().BytesIn
	hits1 := store.Stats().Hits

	n2 := NewNode(fastCfg("node-2", srv, store))
	n2.Start()
	defer n2.Close()
	if err := n2.WaitDigest(want, waitFor); err != nil {
		t.Fatal(err)
	}
	b2 := n2.Status().BytesIn

	if b2 >= b1 {
		t.Fatalf("second node transferred %d bytes, first %d — delta sync saved nothing", b2, b1)
	}
	st := store.Stats()
	if st.Hits <= hits1 {
		t.Fatalf("second join did not ride the interned-page hit path: hits %d -> %d", hits1, st.Hits)
	}
	if st.BytesSavedTotal == 0 {
		t.Fatal("BytesSavedTotal flat after deduplicated join")
	}
	if n1.Digest() != n2.Digest() {
		t.Fatalf("catalog digests diverge: %s vs %s", n1.Digest(), n2.Digest())
	}
}

// TestHotPushAppliesToRuntime drives the full hot-plug path: publishing a
// view loads it into a connected node's runtime, updating it swaps the
// loaded view, and removing it reverts the app to the full kernel view.
func TestHotPushAppliesToRuntime(t *testing.T) {
	k, err := kernel.New(kernel.Config{Clock: kernel.ClockKVM})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.New(core.Setup{Machine: k.M, Symbols: k.Syms, TextSize: k.Img.TextSize()})
	if err != nil {
		t.Fatal(err)
	}

	srv := NewServer(ServerConfig{})
	getpid, ok := k.Syms.ByName("sys_getpid")
	if !ok {
		t.Fatal("no sys_getpid symbol")
	}
	v1 := kview.NewView("tool")
	v1.Insert(kview.BaseKernel, getpid.Addr, getpid.Addr+4)
	if err := srv.Publish(v1); err != nil {
		t.Fatal(err)
	}

	cfg := fastCfg("rt-node", srv, nil)
	cfg.Runtime = rt
	n := NewNode(cfg)
	n.Start()
	defer n.Close()
	if err := n.WaitDigest(srv.Catalog().Manifest().DigestString(), waitFor); err != nil {
		t.Fatal(err)
	}
	idx1 := rt.ViewIndex("tool")
	if idx1 == core.FullView {
		t.Fatal("published view not assigned after sync")
	}
	if got := rt.ViewByIndex(idx1).Cfg; len(got.Ranges(kview.BaseKernel)) != 1 {
		t.Fatalf("loaded view has %d ranges", len(got.Ranges(kview.BaseKernel)))
	}

	// Hot push an updated view: the node must load the new one, reassign,
	// and unload the old.
	pipe, ok := k.Syms.ByName("pipe_poll")
	if !ok {
		t.Fatal("no pipe_poll symbol")
	}
	v2 := kview.NewView("tool")
	v2.Insert(kview.BaseKernel, getpid.Addr, getpid.Addr+4)
	v2.Insert(kview.BaseKernel, pipe.Addr, pipe.Addr+4)
	if err := srv.Publish(v2); err != nil {
		t.Fatal(err)
	}
	if err := n.WaitDigest(srv.Catalog().Manifest().DigestString(), waitFor); err != nil {
		t.Fatal(err)
	}
	idx2 := rt.ViewIndex("tool")
	if idx2 == core.FullView {
		t.Fatal("app lost its view across hot push")
	}
	if got := rt.ViewByIndex(idx2).Cfg; len(got.Ranges(kview.BaseKernel)) != 2 {
		t.Fatalf("updated view has %d ranges, want 2", len(got.Ranges(kview.BaseKernel)))
	}
	if rt.ViewByIndex(idx1) != nil && idx1 != idx2 {
		t.Fatal("replaced view still loaded")
	}

	// Removal reverts the app to the full kernel view.
	if !srv.remove("tool") {
		t.Fatal("remove failed")
	}
	if err := n.WaitDigest(srv.Catalog().Manifest().DigestString(), waitFor); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(waitFor)
	for rt.ViewIndex("tool") != core.FullView {
		if time.Now().After(deadline) {
			t.Fatal("app still assigned after catalog removal")
		}
		time.Sleep(time.Millisecond)
	}
}

// budgetConn fails reads after a byte budget — a connection that dies
// mid-transfer.
type budgetConn struct {
	net.Conn
	left int64
}

func (c *budgetConn) Read(p []byte) (int, error) {
	if atomic.LoadInt64(&c.left) <= 0 {
		c.Conn.Close()
		return 0, io.ErrUnexpectedEOF
	}
	if l := atomic.LoadInt64(&c.left); int64(len(p)) > l {
		p = p[:l]
	}
	n, err := c.Conn.Read(p)
	atomic.AddInt64(&c.left, -int64(n))
	return n, err
}

// TestKilledMidSyncResumesFromLastCompleteCatalog kills a node's
// connection partway through syncing a catalog update. Until the update
// transfers completely, the node must keep serving its previous complete
// catalog (never a half-applied one); on reconnect it resumes, and chunks
// already transferred before the kill are not downloaded again.
func TestKilledMidSyncResumesFromLastCompleteCatalog(t *testing.T) {
	viewA := testView("apache", 1500, 0)

	// Probe: measure the bytes a full sync of catalog {A} needs.
	probeSrv := NewServer(ServerConfig{})
	if err := probeSrv.Publish(testView("apache", 1500, 0)); err != nil {
		t.Fatal(err)
	}
	probe := NewNode(fastCfg("probe", probeSrv, nil))
	probe.Start()
	if err := probe.WaitDigest(probeSrv.Catalog().Manifest().DigestString(), waitFor); err != nil {
		t.Fatal(err)
	}
	bytesA := int64(probe.Status().BytesIn)
	probe.Close()

	// Probe 2: bytes for a cold full sync of catalog {A, bulk}.
	probe2Srv := NewServer(ServerConfig{})
	if err := probe2Srv.Publish(testView("apache", 1500, 0)); err != nil {
		t.Fatal(err)
	}
	if err := probe2Srv.Publish(testView("bulk", 3000, 11)); err != nil {
		t.Fatal(err)
	}
	probe2 := NewNode(fastCfg("probe2", probe2Srv, nil))
	probe2.Start()
	if err := probe2.WaitDigest(probe2Srv.Catalog().Manifest().DigestString(), waitFor); err != nil {
		t.Fatal(err)
	}
	bytesFull := int64(probe2.Status().BytesIn)
	probe2.Close()

	srv := NewServer(ServerConfig{})
	if err := srv.Publish(viewA); err != nil {
		t.Fatal(err)
	}
	digestA := srv.Catalog().Manifest().DigestString()

	// Dial script: attempt 1 gets a connection that dies a few hundred
	// bytes after catalog {A} is synced — mid-transfer of the update.
	// Attempt 2+ waits for the test's go-ahead, then connects cleanly.
	var attempts atomic.Int32
	gate := make(chan struct{})
	base := pipeDialer(srv, nil)
	dial := func() (net.Conn, error) {
		switch attempts.Add(1) {
		case 1:
			c, err := base()
			if err != nil {
				return nil, err
			}
			return &budgetConn{Conn: c, left: bytesA + 256}, nil
		default:
			<-gate
			return base()
		}
	}
	cfg := fastCfg("victim", srv, nil)
	cfg.Dial = dial
	n := NewNode(cfg)
	n.Start()
	defer n.Close()
	if err := n.WaitDigest(digestA, waitFor); err != nil {
		t.Fatal(err)
	}
	syncedBytes := int64(n.Status().BytesIn)

	// Publish the update; the node's sync of it dies on the byte budget.
	if err := srv.Publish(testView("bulk", 3000, 11)); err != nil {
		t.Fatal(err)
	}
	digestB := srv.Catalog().Manifest().DigestString()

	deadline := time.Now().Add(waitFor)
	for n.Status().Retries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("budgeted connection never died")
		}
		time.Sleep(time.Millisecond)
	}
	// Graceful degradation: with the server unreachable mid-update, the
	// node still serves the last complete catalog.
	if got := n.Digest(); got != digestA {
		t.Fatalf("mid-outage digest %s, want last complete %s", got, digestA)
	}
	if st := n.Status(); st.Views != 1 || st.LastErr == "" {
		t.Fatalf("mid-outage status %+v", st)
	}

	// Let it reconnect: it must converge, re-downloading only what the
	// killed session had not already transferred.
	close(gate)
	if err := n.WaitDigest(digestB, waitFor); err != nil {
		t.Fatal(err)
	}
	resumeBytes := int64(n.Status().BytesIn) - syncedBytes
	if resumeBytes >= bytesFull {
		t.Fatalf("resume transferred %d bytes, a cold full sync takes %d — nothing was retained", resumeBytes, bytesFull)
	}
}

// nodeCountSink counts relayed events per origin node.
type nodeCountSink struct {
	mu     sync.Mutex
	total  int
	byNode map[string]int
}

func (s *nodeCountSink) HandleEvent(ev telemetry.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total++
	if s.byNode == nil {
		s.byNode = make(map[string]int)
	}
	s.byNode[ev.Node]++
}

func (s *nodeCountSink) snapshot() (int, map[string]int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.byNode))
	for k, v := range s.byNode {
		out[k] = v
	}
	return s.total, out
}

// TestFleetSoak runs 8 nodes against one server under concurrent view
// publishing, node churn (two nodes killed mid-run and replaced) and a
// telemetry load, asserting full convergence and zero telemetry drops.
// Run under -race in tier-2 CI.
func TestFleetSoak(t *testing.T) {
	sink := &nodeCountSink{}
	hub := telemetry.NewHub(telemetry.HubConfig{CPUs: 1, RingSize: 1 << 15, Sinks: []telemetry.Sink{sink}})
	hub.Start()
	defer hub.Close()

	srv := NewServer(ServerConfig{Hub: hub})
	if err := srv.Publish(testView("seed", 400, 99)); err != nil {
		t.Fatal(err)
	}

	shared := NewChunkStore()
	const eventsPerNode = 300
	start := func(i int) *Node {
		var store *ChunkStore
		if i%2 == 0 {
			store = shared // half the fleet shares one host store
		}
		n := NewNode(fastCfg(fmt.Sprintf("node-%d", i), srv, store))
		n.Start()
		return n
	}
	nodes := make([]*Node, 8)
	for i := range nodes {
		nodes[i] = start(i)
	}

	var wg sync.WaitGroup
	// Publisher: a rolling stream of new and updated views.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			name := fmt.Sprintf("app-%d", i%5)
			if err := srv.Publish(testView(name, 150+i*13, uint32(i))); err != nil {
				t.Errorf("publish %s: %v", name, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
		srv.remove("app-4")
	}()

	// Telemetry: every node emits a fixed number of events. The returned
	// channel closes when the node's emitter has produced everything — the
	// churn goroutine must not kill a node that is still emitting.
	emit := func(n *Node, id int) chan struct{} {
		wg.Add(1)
		emitted := make(chan struct{})
		go func() {
			defer wg.Done()
			defer close(emitted)
			for i := 0; i < eventsPerNode; i++ {
				n.Telemetry().Emit(telemetry.Event{Kind: telemetry.KindSwitch, N: uint64(i), View: fmt.Sprintf("soak-%d", id)})
				if i%50 == 0 {
					time.Sleep(time.Millisecond)
				}
			}
		}()
		return emitted
	}
	emitted := make([]chan struct{}, 8)
	for i, n := range nodes {
		emitted[i] = emit(n, i)
	}

	// Churn: kill two nodes mid-run — once each has emitted and relayed its
	// whole stream (Len()==0 only after the wire write is committed) — and
	// bring up replacements.
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(20 * time.Millisecond)
		for i := 6; i <= 7; i++ {
			<-emitted[i]
			drain := time.Now().Add(waitFor)
			for nodes[i].Telemetry().Len() > 0 {
				if time.Now().After(drain) {
					t.Errorf("node %d relay never drained (%d events left)", i, nodes[i].Telemetry().Len())
					break
				}
				time.Sleep(time.Millisecond)
			}
			nodes[i].Close()
			repl := start(i + 2)
			emit(repl, i+2)
			nodes[i] = repl
		}
	}()

	wg.Wait()
	final := srv.Catalog().Manifest().DigestString()
	for _, n := range nodes {
		if err := n.WaitDigest(final, waitFor); err != nil {
			t.Fatal(err)
		}
		if d := n.Telemetry().Drops(); d != 0 {
			t.Fatalf("node %s dropped %d telemetry events", n.Status().ID, d)
		}
	}

	// Every emitted event — including those from the two killed nodes —
	// must reach the central hub exactly once, stamped with its origin.
	const totalEvents = 10 * eventsPerNode // 8 originals + 2 replacements
	deadline := time.Now().Add(waitFor)
	for {
		total, _ := sink.snapshot()
		if total >= totalEvents {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("central hub saw %d/%d events", total, totalEvents)
		}
		time.Sleep(time.Millisecond)
	}
	total, byNode := sink.snapshot()
	if total != totalEvents {
		t.Fatalf("central hub saw %d events, want exactly %d", total, totalEvents)
	}
	if hub.Drops() != 0 {
		t.Fatalf("central hub dropped %d events", hub.Drops())
	}
	for node, c := range byNode {
		if node == "" {
			t.Fatal("relayed events missing node identity")
		}
		if c != eventsPerNode {
			t.Fatalf("node %s relayed %d events, want %d", node, c, eventsPerNode)
		}
	}
	for _, n := range nodes {
		n.Close()
	}
	if srv.Nodes() != 0 {
		// Sessions unwind asynchronously after node close.
		deadline := time.Now().Add(waitFor)
		for srv.Nodes() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%d server sessions leaked", srv.Nodes())
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestServerRejectsProtocolMismatch covers the version gate: a client
// below ProtoVersion — including a protocol-1 node — is rejected; a
// client advertising a *future* version is answered with the server's
// version, not rejected, so newer nodes can roll out against it.
func TestServerRejectsProtocolMismatch(t *testing.T) {
	srv := NewServer(ServerConfig{})

	for _, proto := range []byte{0, 1} {
		c, s := net.Pipe()
		done := make(chan struct{})
		go func() { srv.ServeConn(s); close(done) }()
		bad := encodeHello("old-node")
		bad[0] = proto
		if err := writeFrame(c, msgHello, bad); err != nil {
			t.Fatal(err)
		}
		f, err := readFrame(c)
		if err != nil {
			t.Fatal(err)
		}
		if f.typ != msgError {
			t.Fatalf("proto %d: got %s, want error", proto, msgName(f.typ))
		}
		<-done
		c.Close()
	}

	c, s := net.Pipe()
	done := make(chan struct{})
	go func() { srv.ServeConn(s); close(done) }()
	future := encodeHello("new-node")
	future[0] = ProtoVersion + 1
	if err := writeFrame(c, msgHello, future); err != nil {
		t.Fatal(err)
	}
	f, err := readFrame(c)
	if err != nil {
		t.Fatal(err)
	}
	if f.typ != msgHelloAck {
		t.Fatalf("got %s, want hello-ack", msgName(f.typ))
	}
	proto, _, _, err := decodeHelloAck(f.payload)
	if err != nil {
		t.Fatal(err)
	}
	if proto != ProtoVersion {
		t.Fatalf("negotiated protocol %d, want %d", proto, ProtoVersion)
	}
	c.Close()
	<-done
}

// TestBackoffResetsOnlyAfterCompleteSync pins the reconnect policy: a
// flapping server that accepts connections and completes the handshake —
// but never finishes serving the catalog — must not reset the backoff, so
// the retry step climbs all the way to Backoff.Max. Only a session that
// commits a complete catalog sync restarts the schedule at Base.
func TestBackoffResetsOnlyAfterCompleteSync(t *testing.T) {
	srv := NewServer(ServerConfig{ID: "real"})
	if err := srv.Publish(testView("apache", 1500, 0)); err != nil {
		t.Fatal(err)
	}
	man := srv.Catalog().Manifest()

	const base = time.Millisecond
	const max = 32 * time.Millisecond

	// Dial script, three phases: 0 = flap (handshake with a non-empty
	// manifest, then hang up before any chunk is served, so the sync can
	// never commit), 1 = one clean connection to the real server,
	// 2 = block until the test tears down (freezes the retry step).
	var mode atomic.Int32
	gate := make(chan struct{})
	var connMu sync.Mutex
	var goodConn net.Conn
	good := pipeDialer(srv, nil)
	dial := func() (net.Conn, error) {
		switch mode.Load() {
		case 0:
			c, s := net.Pipe()
			go func() {
				defer s.Close()
				if _, err := readFrame(s); err != nil {
					return
				}
				writeFrame(s, msgHelloAck, encodeHelloAck("flappy", man))
			}()
			return c, nil
		case 1:
			c, err := good()
			if err != nil {
				return nil, err
			}
			connMu.Lock()
			goodConn = c
			connMu.Unlock()
			mode.Store(2)
			return c, nil
		default:
			<-gate
			return nil, fmt.Errorf("dialer closed")
		}
	}

	n := NewNode(NodeConfig{
		ID:            "victim",
		Dial:          dial,
		Backoff:       BackoffConfig{Base: base, Max: max},
		FlushInterval: 2 * time.Millisecond,
		readTimeout:   2 * time.Second,
	})
	n.Start()
	defer n.Close()
	defer close(gate)

	// Phase 0: every session dials and handshakes fine, yet the step must
	// still grow exponentially to Max — dialing is not syncing.
	waitStep := func(want time.Duration) {
		t.Helper()
		deadline := time.Now().Add(waitFor)
		for {
			if st := n.Status(); st.RetryStep == want {
				return
			}
			if time.Now().After(deadline) {
				st := n.Status()
				t.Fatalf("retry step %v (retries=%d syncs=%d), want %v", st.RetryStep, st.Retries, st.Syncs, want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitStep(max)
	if got := n.Status().Syncs; got != 0 {
		t.Fatalf("flapping server let %d syncs commit, want 0", got)
	}

	// Phase 1: a real server serves the full catalog; the sync commits.
	mode.Store(1)
	if err := n.WaitDigest(man.DigestString(), waitFor); err != nil {
		t.Fatal(err)
	}

	// End the clean session: the commit resets the schedule, so the very
	// next step is 2*Base (one doubling past Base), not Max.
	connMu.Lock()
	goodConn.Close()
	connMu.Unlock()
	waitStep(2 * base)
}
