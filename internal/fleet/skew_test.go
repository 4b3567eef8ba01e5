package fleet

import (
	"net"
	"testing"
	"time"

	"facechange/internal/core"
	"facechange/internal/kernel"
	"facechange/internal/kview"
)

// scriptServer speaks the wire protocol by hand so tests control exactly
// which manifest generation a sync response carries — the real server
// always answers with its newest catalog, which is precisely what a
// generation-skew test cannot use.
type scriptServer struct {
	t         *testing.T
	cat       *Catalog
	conn      net.Conn
	manifests chan Manifest // queued msgGetCatalog responses
	pushGen   chan uint64   // msgUpdate notices to send
}

func startScript(t *testing.T, conn net.Conn, cat *Catalog, initial Manifest) *scriptServer {
	s := &scriptServer{
		t:         t,
		cat:       cat,
		conn:      conn,
		manifests: make(chan Manifest, 4),
		pushGen:   make(chan uint64, 4),
	}
	go s.run(initial)
	return s
}

func (s *scriptServer) run(initial Manifest) {
	frames := make(chan frame)
	go func() {
		defer close(frames)
		for {
			f, err := readFrame(s.conn)
			if err != nil {
				return
			}
			frames <- f
		}
	}()
	f, ok := <-frames
	if !ok || f.typ != msgHello {
		return
	}
	if err := writeFrame(s.conn, msgHelloAck, encodeHelloAck("script", initial)); err != nil {
		return
	}
	for {
		select {
		case gen := <-s.pushGen:
			if err := writeFrame(s.conn, msgUpdate, encodeUpdate(gen)); err != nil {
				return
			}
		case f, ok := <-frames:
			if !ok {
				return
			}
			switch f.typ {
			case msgWant:
				hashes, err := decodeWant(f.payload)
				if err != nil {
					s.t.Errorf("script: bad want: %v", err)
					return
				}
				var chunks []Chunk
				for _, h := range hashes {
					if data, ok := s.cat.Chunk(h); ok {
						chunks = append(chunks, Chunk{Hash: h, Data: data})
					}
				}
				if err := writeFrame(s.conn, msgChunks, encodeChunks(chunks)); err != nil {
					return
				}
			case msgGetCatalog:
				m := <-s.manifests
				if err := writeFrame(s.conn, msgCatalog, encodeManifest(m)); err != nil {
					return
				}
			case msgTelemetry:
				// The relay flusher rides the same conn; drop it.
			default:
				s.t.Errorf("script: unexpected %s", msgName(f.typ))
				return
			}
		}
	}
}

// skewFixture: a runtime, three single-function views over real kernel
// symbols, and the manifests of the catalog after each publish —
// generations 1 {alpha}, 2 {alpha,beta}, 3 {alpha,beta,gamma}.
func skewFixture(t *testing.T) (*core.Runtime, *Catalog, [3]Manifest) {
	t.Helper()
	k, err := kernel.New(kernel.Config{Clock: kernel.ClockKVM})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.New(core.Setup{Machine: k.M, Symbols: k.Syms, TextSize: k.Img.TextSize()})
	if err != nil {
		t.Fatal(err)
	}
	var fns []*kernel.Func
	for _, f := range k.Syms.Funcs() {
		if f.Size > 0 && f.Module == "" {
			fns = append(fns, f)
		}
		if len(fns) == 3 {
			break
		}
	}
	if len(fns) < 3 {
		t.Fatal("kernel image has fewer than 3 core functions")
	}
	cat := NewCatalog()
	var ms [3]Manifest
	for i, name := range []string{"alpha", "beta", "gamma"} {
		v := kview.NewView(name)
		v.Insert(kview.BaseKernel, fns[i].Addr, fns[i].End())
		if _, err := cat.Put(v); err != nil {
			t.Fatal(err)
		}
		ms[i] = cat.Manifest()
	}
	return rt, cat, ms
}

func scriptedNode(t *testing.T, rt *core.Runtime, cat *Catalog, initial Manifest) (*Node, *scriptServer) {
	t.Helper()
	var script *scriptServer
	cfg := NodeConfig{
		ID: "skew-node",
		Dial: func() (net.Conn, error) {
			c, srvEnd := net.Pipe()
			script = startScript(t, srvEnd, cat, initial)
			return c, nil
		},
		Runtime:       rt,
		Backoff:       BackoffConfig{Base: time.Millisecond, Max: 20 * time.Millisecond},
		FlushInterval: 2 * time.Millisecond,
		readTimeout:   2 * time.Second,
	}
	n := NewNode(cfg)
	n.Start()
	if err := n.WaitDigest(initial.DigestString(), waitFor); err != nil {
		t.Fatalf("initial sync: %v", err)
	}
	return n, script
}

// TestSyncSkipsGenerationsForward: a node that synced generation G and
// then receives G+2 (it never saw G+1) applies it cleanly — manifests
// carry the complete catalog, so skipping generations needs no
// intermediate state.
func TestSyncSkipsGenerationsForward(t *testing.T) {
	rt, cat, ms := skewFixture(t)
	n, script := scriptedNode(t, rt, cat, ms[0])
	defer n.Close()

	script.pushGen <- ms[2].Gen
	script.manifests <- ms[2] // G=1 node served G=3 directly
	if err := n.WaitDigest(ms[2].DigestString(), waitFor); err != nil {
		t.Fatalf("skip-forward sync: %v", err)
	}
	st := n.Status()
	if st.Gen != ms[2].Gen {
		t.Fatalf("node at gen %d, want %d", st.Gen, ms[2].Gen)
	}
	if st.StaleSkips != 0 {
		t.Fatalf("forward skip miscounted as stale: %d", st.StaleSkips)
	}
	for _, app := range []string{"alpha", "beta", "gamma"} {
		if rt.ViewIndex(app) == core.FullView {
			t.Fatalf("%s not applied after skipping to gen %d", app, ms[2].Gen)
		}
	}
}

// TestSyncIgnoresStaleGeneration is the newest-wins pin: a manifest older
// than the node's committed catalog (a slow response racing a push, or a
// replayed frame) must be ignored — not applied, not an error — and the
// session must keep serving newer catalogs afterwards.
func TestSyncIgnoresStaleGeneration(t *testing.T) {
	rt, cat, ms := skewFixture(t)
	n, script := scriptedNode(t, rt, cat, ms[1])
	defer n.Close()

	script.pushGen <- ms[2].Gen
	script.manifests <- ms[0] // stale: gen 1 after the node committed gen 2

	deadline := time.Now().Add(waitFor)
	for n.Status().StaleSkips == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stale catalog never skipped")
		}
		time.Sleep(time.Millisecond)
	}
	st := n.Status()
	if st.Gen != ms[1].Gen {
		t.Fatalf("stale catalog rolled the node back: gen %d, want %d", st.Gen, ms[1].Gen)
	}
	if rt.ViewIndex("beta") == core.FullView {
		t.Fatal("stale sync unloaded a committed view")
	}
	if rt.ViewIndex("gamma") != core.FullView {
		t.Fatal("stale sync was partially applied")
	}

	// The session survives the skip: the next (newer) catalog applies.
	script.pushGen <- ms[2].Gen
	script.manifests <- ms[2]
	if err := n.WaitDigest(ms[2].DigestString(), waitFor); err != nil {
		t.Fatalf("post-skip sync: %v", err)
	}
	if got := n.Status().Gen; got != ms[2].Gen {
		t.Fatalf("node at gen %d after recovery, want %d", got, ms[2].Gen)
	}
	if rt.ViewIndex("gamma") == core.FullView {
		t.Fatal("gamma not applied after recovery sync")
	}
}
