package fleet

import (
	"crypto/sha256"
	"sync"

	"facechange/internal/mem"
)

// ChunkStore is the node side of delta sync: a host-level, content-
// addressed store of catalog chunks, keyed by their sha256 chunk IDs and
// backed by the same page interning (mem.PageCache: seeded hash, byte
// compare on hit) the runtime uses for shadow pages. Every node
// on a host shares one store; a chunk any node has downloaded is resident
// for all of them, so a second node joining an already-synced server
// re-references resident pages (interned-page cache hits) instead of
// re-downloading.
//
// References are per node per chunk: a node holds one reference for every
// chunk of its current catalog (plus chunks retained from an aborted sync,
// which make the eventual resume cheap) and drops them when its catalog
// moves on or the node leaves. A chunk's page is freed when the last node
// dereferences it.
//
// All methods are safe for concurrent use by many nodes. A single store
// mutex serializes every operation — including the embedded cache and
// host — because mem.Host is not independently synchronized.
type ChunkStore struct {
	mu      sync.Mutex
	host    *mem.Host
	cache   *mem.PageCache
	entries map[Hash]*chunkEntry
	dupPuts uint64
}

type chunkEntry struct {
	hpa  uint32
	size int
	refs int
}

// NewChunkStore creates a store with its own host memory. The backing
// host is a page arena with no guest RAM: chunk pages all live above the
// allocation origin, so fleets of per-node stores stay cheap.
func NewChunkStore() *ChunkStore {
	host := mem.NewArenaHost()
	return &ChunkStore{
		host:    host,
		cache:   mem.NewPageCache(host),
		entries: make(map[Hash]*chunkEntry),
	}
}

// Ref takes one reference on a resident chunk without any data transfer —
// the delta-sync fast path. The reference goes through the page cache's
// intern (a guaranteed hit), so cache statistics count exactly the pages
// delta sync saved from the wire. Returns false when the chunk is absent
// (the caller must download it and Put).
func (s *ChunkStore) Ref(h Hash) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[h]
	if !ok {
		return false
	}
	page := make([]byte, mem.PageSize)
	if err := s.host.Read(e.hpa, page); err != nil {
		return false
	}
	hpa, err := s.cache.Intern(page)
	if err != nil || hpa != e.hpa {
		// An intern of resident content can only return the resident page;
		// anything else means the entry is stale.
		if err == nil {
			s.cache.Release(hpa)
		}
		return false
	}
	e.refs++
	return true
}

// Put stores a downloaded chunk (verifying its content hash) and takes one
// reference for the caller. Putting an already-resident chunk degrades to
// Ref.
func (s *ChunkStore) Put(data []byte) (Hash, error) {
	if len(data) == 0 || len(data) > ChunkSize {
		return Hash{}, errProto("chunk of %d bytes (want 1..%d)", len(data), ChunkSize)
	}
	h := sha256.Sum256(data)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[h]; ok {
		// A Put of resident content means the caller transferred bytes it
		// could have Ref'd for free — the exact waste the failover tests
		// assert away (a re-homed node must never re-download).
		s.dupPuts++
		page := make([]byte, mem.PageSize)
		if err := s.host.Read(e.hpa, page); err != nil {
			return Hash{}, err
		}
		if _, err := s.cache.Intern(page); err != nil {
			return Hash{}, err
		}
		e.refs++
		return h, nil
	}
	page := make([]byte, mem.PageSize)
	copy(page, data)
	hpa, err := s.cache.Intern(page)
	if err != nil {
		return Hash{}, err
	}
	s.entries[h] = &chunkEntry{hpa: hpa, size: len(data), refs: 1}
	return h, nil
}

// Get returns a copy of a resident chunk's bytes.
func (s *ChunkStore) Get(h Hash) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[h]
	if !ok {
		return nil, false
	}
	out := make([]byte, e.size)
	if err := s.host.Read(e.hpa, out); err != nil {
		return nil, false
	}
	return out, true
}

// Unref drops one reference; the chunk's page is freed when the last
// reference goes.
func (s *ChunkStore) Unref(h Hash) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[h]
	if !ok {
		return
	}
	s.cache.Release(e.hpa)
	e.refs--
	if e.refs <= 0 {
		delete(s.entries, h)
	}
}

// DupPuts counts Puts of already-resident chunks — bytes downloaded that
// delta sync should have saved. Zero across a shard failover is the
// "resume from interned chunks, never re-download" proof.
func (s *ChunkStore) DupPuts() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dupPuts
}

// Stats exposes the backing page cache's dedup statistics: Hits and
// BytesSavedTotal count the interned-page path delta sync rides.
func (s *ChunkStore) Stats() mem.CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.Stats()
}
