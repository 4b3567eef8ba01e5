package shard

import (
	"net"
	"sync"

	"facechange/internal/fleet"
)

// Homing is a fleet.NodeConfig dialer that auto-discovers and follows a
// sharded plane. It starts from a seed list of shard IDs, learns the full
// topology from the shard-map gossip the first session pushes, and on
// every (re)dial walks the consistent-hash ring from the node's own
// position: home shard first, ring successor next. A dead shard is
// skipped by dial failure alone, so failover works even before the
// post-death gossip arrives; the epoch-bumped map that follows makes the
// new topology sticky.
//
// Wire a Homing into a node as both NodeConfig.Dial and
// NodeConfig.OnShardMap.
type Homing struct {
	nodeID string
	dial   func(shardID string) (net.Conn, error)

	mu    sync.Mutex
	ring  *Ring
	seeds []string
	home  string // shard of the last successful dial
}

// NewHoming creates a homing dialer for one node. seeds is the initial
// candidate list (any single live shard bootstraps discovery); dial
// resolves a shard ID to a connection — Plane.DialShard for in-process
// planes, a TCP dialer keyed off ShardInfo.Addr for real ones.
//
// The seeds are laid onto a provisional ring immediately, so even the
// first dial is ring-ordered: a node given the full shard list lands on
// its home shard straight away, and a node given one seed homes there
// until gossip teaches it the real topology.
func NewHoming(nodeID string, seeds []string, dial func(shardID string) (net.Conn, error)) *Homing {
	h := &Homing{nodeID: nodeID, dial: dial, seeds: append([]string(nil), seeds...)}
	if len(seeds) > 0 {
		var m fleet.ShardMap
		for _, id := range seeds {
			m.Shards = append(m.Shards, fleet.ShardInfo{ID: id})
		}
		h.ring = BuildRing(m)
	}
	return h
}

// OnShardMap adopts gossiped topology: the ring is rebuilt from the map,
// replacing the seed list as the candidate source. fleet.Node already
// orders maps by epoch (newest wins) before invoking this hook.
func (h *Homing) OnShardMap(m fleet.ShardMap) {
	r := BuildRing(m)
	h.mu.Lock()
	h.ring = r
	h.mu.Unlock()
}

// Dial connects to the first live candidate: the ring walk from the
// node's position when a map has been learned, the seed list before
// then.
func (h *Homing) Dial() (net.Conn, error) {
	h.mu.Lock()
	var candidates []string
	if h.ring != nil {
		candidates = h.ring.Walk(h.nodeID)
	} else {
		candidates = append([]string(nil), h.seeds...)
	}
	h.mu.Unlock()
	var lastErr error
	for _, id := range candidates {
		conn, err := h.dial(id)
		if err != nil {
			lastErr = err
			continue
		}
		h.mu.Lock()
		h.home = id
		h.mu.Unlock()
		return conn, nil
	}
	if lastErr == nil {
		lastErr = errShard("node %q: no shard candidates", h.nodeID)
	}
	return nil, lastErr
}

// Home returns the shard of the last successful dial.
func (h *Homing) Home() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.home
}
