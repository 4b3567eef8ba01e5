// Package fleet is the view-distribution control plane: the subsystem that
// turns FACE-CHANGE from a single-hypervisor prototype into a fleet of
// runtimes sharing one canonical kernel-view catalog.
//
// One Server holds the catalog — kernel views in their canonical binary
// configuration form (kview.MarshalBinary), split into content-addressed
// chunks — and N runtime Nodes sync it over a versioned, length-prefixed
// binary wire protocol (TCP in production, net.Pipe in-process for tests
// and the fcfleet demo). Three properties make the plane fleet-shaped
// rather than a file copier:
//
//   - Delta sync. Chunks are addressed by sha256 content hash and interned
//     in a host-level ChunkStore backed by the same page interning the
//     runtime's shadow-page cache uses. A node never downloads a chunk the
//     store already holds: the second node joining a warm host transfers
//     only the manifest, and its chunk references land on the
//     interned-page hit path (mem.CacheStats.Hits, BytesSavedTotal).
//
//   - Hot push. Publishing an updated view bumps the catalog generation
//     and notifies every connected node; nodes re-sync the delta and apply
//     it to their runtime via LoadView/UnloadView — the paper's dynamic
//     hot-plug (Section III-B4), fleet-wide.
//
//   - Central telemetry. Each node relays its runtime's event stream in
//     batches; the server replays them — stamped with the node identity —
//     into one central telemetry.Hub, so fleet-wide sinks, /metrics and
//     detect verdicts cover every runtime.
//
// Nodes embed retry with exponential backoff and jitter, dial and
// read timeouts, and graceful degradation: when the server is unreachable
// a node keeps serving its last *complete* synced catalog — a sync is
// applied atomically or not at all, so a node killed mid-transfer resumes
// from the previous catalog, never a half-written one.
package fleet

import (
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"time"
)

// ProtoVersion is the wire protocol version this build speaks, and the
// only one it accepts. The Hello carries the client's version; the server
// rejects anything older and answers HelloAck with ProtoVersion, so a
// newer client runs its session at this version. Version 2 carries
// shard-map gossip, sequence-numbered telemetry with deferred
// acknowledgement, shard→aggregator relay and live migration; version 1
// (unsequenced telemetry, committed on write) is no longer served.
const ProtoVersion = 2

// BackoffConfig shapes a node's reconnect schedule: exponential from Base
// to Max with uniform jitter in [0, step) added to each delay. The jitter
// is seeded from the node ID, so it is deterministic per node and a fleet
// of nodes losing the same server does not reconnect in lockstep.
type BackoffConfig struct {
	// Base is the first retry delay (default 20ms).
	Base time.Duration
	// Max caps the exponential growth (default 2s).
	Max time.Duration
}

func (b *BackoffConfig) defaults() {
	if b.Base <= 0 {
		b.Base = 20 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 2 * time.Second
	}
}

// backoff produces the retry delay sequence.
type backoff struct {
	cfg  BackoffConfig
	rng  *rand.Rand
	next time.Duration
}

func newBackoff(cfg BackoffConfig, id string) *backoff {
	cfg.defaults()
	var seed int64
	for _, c := range id {
		seed = seed*131 + int64(c)
	}
	seed++
	return &backoff{cfg: cfg, rng: rand.New(rand.NewSource(seed)), next: cfg.Base}
}

// delay returns the next retry delay: the current exponential step plus
// jitter, then doubles the step up to Max.
func (b *backoff) delay() time.Duration {
	step := b.next
	b.next *= 2
	if b.next > b.cfg.Max {
		b.next = b.cfg.Max
	}
	return step + time.Duration(b.rng.Int63n(int64(step)+1))
}

// reset restarts the schedule after a successful session.
func (b *backoff) reset() { b.next = b.cfg.Base }

// TCPDialer returns a Dial function for NodeConfig connecting to addr with
// the given timeout per attempt.
func TCPDialer(addr string, timeout time.Duration) func() (net.Conn, error) {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	return func() (net.Conn, error) {
		return net.DialTimeout("tcp", addr, timeout)
	}
}

// countingConn wraps a net.Conn with byte accounting — the ground truth
// for the delta-sync tests ("the second node transfers strictly fewer
// bytes than the first"). Reads and writes happen on different goroutines,
// so the counters are atomic.
type countingConn struct {
	net.Conn
	in, out *atomic.Uint64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(uint64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(uint64(n))
	return n, err
}

func errProto(format string, args ...any) error {
	return fmt.Errorf("fleet: "+format, args...)
}
