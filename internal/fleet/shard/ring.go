// Package shard turns the single-server fleet control plane into a
// sharded, multi-region one: the view catalog is partitioned across
// shards by consistent hashing of view content digests, every shard
// mirrors its peers so any replica serves any chunk, telemetry flows
// shard-local and then relays hub-to-hub into one designated aggregator
// shard with exact accounting, and nodes home onto shards by walking the
// same ring — so a shard death re-homes its nodes onto the ring
// successor with no coordinator in the loop.
package shard

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"

	"facechange/internal/fleet"
)

// DefaultVNodes is a shard's virtual-node count on the ring when its
// ShardInfo does not say otherwise. Enough points that three shards land
// within a few percent of an even split of the digest space.
const DefaultVNodes = 16

// Ring is a consistent-hash ring over a shard map: each shard contributes
// VNodes points (sha256 of "shardID/i"), and a key is owned by the first
// point at or clockwise of the key's own hash. Adding or removing one
// shard moves only the keys in its arcs — the property that makes a
// shard death a re-home of 1/N of the fleet, not a reshuffle of all of
// it.
type Ring struct {
	points []ringPoint // sorted by hash
	shards []string    // distinct shard IDs, sorted
}

type ringPoint struct {
	hash  uint64
	shard string
}

// BuildRing lays the shards of a map onto the ring.
func BuildRing(m fleet.ShardMap) *Ring {
	r := &Ring{}
	for _, s := range m.Shards {
		vn := s.VNodes
		if vn <= 0 {
			vn = DefaultVNodes
		}
		for i := 0; i < vn; i++ {
			r.points = append(r.points, ringPoint{hash: pointHash(s.ID, i), shard: s.ID})
		}
		r.shards = append(r.shards, s.ID)
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A full-hash collision between two shards' points is astronomically
		// unlikely; break it deterministically by ID so every builder of the
		// same map lays out the same ring.
		return r.points[i].shard < r.points[j].shard
	})
	sort.Strings(r.shards)
	return r
}

// pointHash places one virtual node: sha256 over "shardID/i", first 8
// bytes big-endian.
func pointHash(shard string, i int) uint64 {
	h := sha256.New()
	h.Write([]byte(shard))
	var idx [9]byte
	idx[0] = '/'
	binary.BigEndian.PutUint64(idx[1:], uint64(i))
	h.Write(idx[:])
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return binary.BigEndian.Uint64(sum[:8])
}

// keyHash positions an arbitrary key on the ring.
func keyHash(key []byte) uint64 {
	sum := sha256.Sum256(key)
	return binary.BigEndian.Uint64(sum[:8])
}

// succ returns the index of the first point at or after h, wrapping.
func (r *Ring) succ(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Owner returns the shard owning an arbitrary key (a node ID for homing).
// Empty ring returns "".
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.succ(keyHash([]byte(key)))].shard
}

// OwnerDigest returns the shard owning a view content digest — the
// partitioning rule for publishes. The digest is already a sha256, so its
// first 8 bytes position it directly.
func (r *Ring) OwnerDigest(d fleet.Hash) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.succ(binary.BigEndian.Uint64(d[:8]))].shard
}

// Walk returns every distinct shard in ring order starting at the key's
// owner: the failover candidate sequence. The first entry is Owner(key);
// the second is the successor a node re-homes onto when its shard dies.
func (r *Ring) Walk(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	out := make([]string, 0, len(r.shards))
	seen := make(map[string]struct{}, len(r.shards))
	start := r.succ(keyHash([]byte(key)))
	for i := 0; i < len(r.points) && len(seen) < len(r.shards); i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, ok := seen[p.shard]; ok {
			continue
		}
		seen[p.shard] = struct{}{}
		out = append(out, p.shard)
	}
	return out
}
