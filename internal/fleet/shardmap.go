package fleet

import "sort"

// ShardInfo describes one shard of a sharded control plane.
type ShardInfo struct {
	// ID names the shard (stable across restarts; hashed onto the ring).
	ID string
	// Addr is the shard's dial address. Empty for in-process planes, whose
	// dialers resolve shards by ID.
	Addr string
	// VNodes is the shard's virtual-node count on the consistent-hash ring
	// (its capacity weight). 0 means the ring default.
	VNodes int
}

// ShardMap is the gossiped cluster topology: which shards exist, how the
// ring is laid out, and which shard aggregates fleet-wide telemetry.
// Servers push it to protocol-v2 clients right after the handshake and
// again whenever it changes (a shard death bumps Epoch), so any single
// live seed teaches a node the whole plane.
type ShardMap struct {
	// Epoch orders map revisions; receivers keep the highest seen.
	Epoch uint64
	// Aggregator is the shard ID designated as the telemetry aggregation
	// point.
	Aggregator string
	// Shards lists the live shards, sorted by ID (the codec enforces it,
	// keeping the encoding canonical).
	Shards []ShardInfo
}

// Clone returns a deep copy.
func (m ShardMap) Clone() ShardMap {
	out := m
	out.Shards = append([]ShardInfo(nil), m.Shards...)
	return out
}

// normalize sorts the shard list by ID (canonical wire order).
func (m *ShardMap) normalize() {
	sort.Slice(m.Shards, func(i, j int) bool { return m.Shards[i].ID < m.Shards[j].ID })
}

// shardMapPayload: u64 epoch | str aggregator | u16 n | n × (str id |
// str addr | u16 vnodes), shards strictly sorted by ID.
func encodeShardMap(m ShardMap) []byte {
	m = m.Clone()
	m.normalize()
	b := make([]byte, 0, 16+len(m.Shards)*32)
	b = appendU64(b, m.Epoch)
	b = appendStr(b, m.Aggregator)
	b = appendU16(b, uint16(len(m.Shards)))
	for _, s := range m.Shards {
		b = appendStr(b, s.ID)
		b = appendStr(b, s.Addr)
		b = appendU16(b, uint16(s.VNodes))
	}
	return b
}

func decodeShardMap(p []byte) (ShardMap, error) {
	r := &wireReader{b: p}
	var m ShardMap
	var err error
	if m.Epoch, err = r.u64(); err != nil {
		return ShardMap{}, err
	}
	if m.Aggregator, err = r.str(); err != nil {
		return ShardMap{}, err
	}
	n, err := r.u16()
	if err != nil {
		return ShardMap{}, err
	}
	prev := ""
	for i := 0; i < int(n); i++ {
		var s ShardInfo
		if s.ID, err = r.str(); err != nil {
			return ShardMap{}, err
		}
		if s.Addr, err = r.str(); err != nil {
			return ShardMap{}, err
		}
		v, err := r.u16()
		if err != nil {
			return ShardMap{}, err
		}
		s.VNodes = int(v)
		if i > 0 && s.ID <= prev {
			return ShardMap{}, errProto("shard map not strictly sorted (%q after %q)", s.ID, prev)
		}
		prev = s.ID
		m.Shards = append(m.Shards, s)
	}
	if err := r.end(); err != nil {
		return ShardMap{}, err
	}
	return m, nil
}
