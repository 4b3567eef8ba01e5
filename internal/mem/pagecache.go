package mem

import (
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"slices"
	"sync"
)

// ErrCachePressure is returned by Intern when the cache's page limit is
// reached and the content is not already resident. Callers (LoadView) must
// unwind cleanly: release what they interned and fail the whole operation.
var ErrCachePressure = errors.New("mem: page cache at capacity")

// PageCache is a content-addressed store of shadow pages. Kernel views are
// dominated by byte-identical pages — the UD2 filler page and pages of
// shared core code loaded by many views — so the cache interns each
// distinct page content once and hands out the same HPA to every view that
// maps it. Shared pages are immutable: a view that must write one (kernel
// code recovery) first takes a private copy with Privatize (copy-on-write).
//
// Pages are keyed by a seeded non-cryptographic hash, and a hit is
// confirmed by comparing the resident page byte for byte: two contents
// share a page only if they are equal, never merely because their hashes
// are. Contents that collide keep separate pages in one hash bucket.
//
// The cache is safe for concurrent use; the profiling pool and future
// multi-tenant view hosting may intern pages from several goroutines.
type PageCache struct {
	mu      sync.Mutex
	host    *Host
	seed    maphash.Seed
	byHash  map[uint64][]uint32    // content hash → HPAs of resident pages
	entries map[uint32]*cacheEntry // HPA → entry

	// maxPages bounds live distinct pages when non-zero — the cache
	// pressure knob. Interning novel content beyond the limit fails with
	// ErrCachePressure; re-interning resident content always succeeds.
	maxPages int
	// inj, when set, may fail individual Intern allocations (FaultIntern).
	inj FaultInjector

	hits, misses, privatized uint64
}

type cacheEntry struct {
	hash uint64
	refs int
}

// CacheStats summarizes the cache: the live dedup state plus monotonic
// counters over the cache's lifetime.
type CacheStats struct {
	// DistinctPages is the number of live cached pages (unique contents).
	DistinctPages int
	// DedupedPages is the number of live page mappings served without a
	// copy: for each cached page, every reference beyond the first.
	DedupedPages uint64
	// BytesSaved is DedupedPages in bytes — a gauge over the live mapping
	// set (it shrinks when views release shared pages).
	BytesSaved uint64
	// BytesSavedTotal is the monotonic counter: one page of copying avoided
	// for every Intern hit over the cache's lifetime. Fleet delta-sync
	// asserts on this — a node joining an already-warm host must land here,
	// not in fresh allocations. A migration import interns only the pages
	// it keeps shared: a shipped delta goes straight into a private page
	// and counts neither here nor as a hit or miss.
	BytesSavedTotal uint64
	// Hits and Misses count Intern and InternHint calls that reused
	// respectively created a page. Privatized counts copy-on-write detachments.
	Hits, Misses, Privatized uint64
}

// DedupRatio returns the fraction of live page mappings served by dedup
// (0 when nothing is mapped).
func (s CacheStats) DedupRatio() float64 {
	total := uint64(s.DistinctPages) + s.DedupedPages
	if total == 0 {
		return 0
	}
	return float64(s.DedupedPages) / float64(total)
}

// NewPageCache creates a cache allocating from host.
func NewPageCache(host *Host) *PageCache {
	return &PageCache{
		host:    host,
		seed:    maphash.MakeSeed(),
		byHash:  make(map[uint64][]uint32),
		entries: make(map[uint32]*cacheEntry),
	}
}

// Intern returns the HPA of a page whose content equals the given
// PageSize bytes, allocating and filling one only if no live page already
// holds that content. The caller owns one reference; drop it with Release
// (or detach with Privatize).
func (c *PageCache) Intern(content []byte) (uint32, error) {
	if len(content) != PageSize {
		return 0, fmt.Errorf("mem: intern %d bytes, want one page", len(content))
	}
	return c.internHashed(maphash.Bytes(c.seed, content), content)
}

// InternHint is Intern for a caller that can name the page most likely to
// hold content already: hint, say the page another view maps at the same
// GPA. If hint is a live cached page whose bytes equal content, it takes a
// reference to hint without hashing content; otherwise it interns content
// as Intern does. No two live pages hold equal bytes, so a hinted hit
// returns the page, and counts the hit, that Intern would have: the
// result and every counter are the same whatever hint names.
func (c *PageCache) InternHint(hint uint32, content []byte) (uint32, error) {
	if len(content) == PageSize && c.refHint(hint, content) {
		return hint, nil
	}
	return c.Intern(content)
}

// refHint takes a reference to hint and counts a hit if hint is a live
// cached page holding content.
func (c *PageCache) refHint(hint uint32, content []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[hint]
	if !ok {
		return false
	}
	page, err := c.host.ReadSlice(hint, PageSize)
	if err != nil || !bytes.Equal(page, content) {
		return false
	}
	e.refs++
	c.hits++
	return true
}

// internHashed is Intern with the content's hash h already computed. A
// resident page in h's bucket is a hit only if its bytes equal content;
// otherwise content gets a page of its own in the same bucket.
func (c *PageCache) internHashed(h uint64, content []byte) (uint32, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, hpa := range c.byHash[h] {
		page, err := c.host.Slice(hpa, PageSize)
		if err != nil {
			return 0, fmt.Errorf("mem: intern: %w", err)
		}
		if bytes.Equal(page, content) {
			c.entries[hpa].refs++
			c.hits++
			return hpa, nil
		}
	}
	if c.maxPages > 0 && len(c.entries) >= c.maxPages {
		return 0, ErrCachePressure
	}
	if c.inj != nil {
		if err := c.inj.Fault(FaultIntern, 0, PageSize); err != nil {
			return 0, err
		}
	}
	hpa := c.host.AllocPage(content)
	c.byHash[h] = append(c.byHash[h], hpa)
	c.entries[hpa] = &cacheEntry{hash: h, refs: 1}
	c.misses++
	return hpa, nil
}

// Release drops one reference to a cached page, freeing it when no view
// maps it anymore.
func (c *PageCache) Release(hpa uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.releaseLocked(hpa)
}

func (c *PageCache) releaseLocked(hpa uint32) {
	e, ok := c.entries[hpa]
	if !ok {
		return
	}
	e.refs--
	if e.refs > 0 {
		return
	}
	if b := slices.DeleteFunc(c.byHash[e.hash], func(x uint32) bool { return x == hpa }); len(b) > 0 {
		c.byHash[e.hash] = b
	} else {
		delete(c.byHash, e.hash)
	}
	delete(c.entries, hpa)
	c.host.FreePage(hpa)
}

// Privatize gives the caller a freshly allocated private copy of a cached
// page and drops the caller's reference to the shared one — the
// copy-on-write step taken before a view's shadow page is written. The
// returned page is not tracked by the cache.
func (c *PageCache) Privatize(hpa uint32) (uint32, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[hpa]; !ok {
		return 0, fmt.Errorf("mem: privatize %#x: not a cached page", hpa)
	}
	// The COW detach allocates a fresh page and is subject to the same
	// injectable allocation failures as Intern.
	if c.inj != nil {
		if err := c.inj.Fault(FaultIntern, hpa, PageSize); err != nil {
			return 0, err
		}
	}
	// Host memory never moves, so the shared page's bytes copy straight
	// into the fresh one.
	shared, err := c.host.Slice(hpa, PageSize)
	if err != nil {
		return 0, fmt.Errorf("mem: privatize: %w", err)
	}
	private := c.host.AllocPage(shared)
	c.privatized++
	c.releaseLocked(hpa)
	return private, nil
}

// SetLimit bounds live distinct pages (0 removes the bound). Lowering the
// limit below current occupancy does not evict anything; it only fails
// future interns of novel content until releases bring occupancy back
// under the limit.
func (c *PageCache) SetLimit(maxPages int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.maxPages = maxPages
}

// Limit returns the current page limit (0 = unbounded).
func (c *PageCache) Limit() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxPages
}

// SetFaultInjector attaches a fault injector consulted on each Intern
// allocation (nil detaches).
func (c *PageCache) SetFaultInjector(inj FaultInjector) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inj = inj
}

// Snapshot returns the live reference count of every cached page — the
// ground truth for refcount-balance invariant checks.
func (c *PageCache) Snapshot() map[uint32]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[uint32]int, len(c.entries))
	for hpa, e := range c.entries {
		out[hpa] = e.refs
	}
	return out
}

// HitMiss returns just the hit and miss counters — a cheap read for
// callers that bracket an operation (LoadView's telemetry) and only need
// the delta, skipping Stats' full entry walk.
func (c *PageCache) HitMiss() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Stats returns a snapshot of the cache state.
func (c *PageCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CacheStats{
		DistinctPages:   len(c.entries),
		Hits:            c.hits,
		Misses:          c.misses,
		Privatized:      c.privatized,
		BytesSavedTotal: c.hits * PageSize,
	}
	for _, e := range c.entries {
		s.DedupedPages += uint64(e.refs - 1)
	}
	s.BytesSaved = s.DedupedPages * PageSize
	return s
}
