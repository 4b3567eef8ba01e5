package mem

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func pageFilled(b byte) []byte {
	p := make([]byte, PageSize)
	for i := range p {
		p[i] = b
	}
	return p
}

func TestPageCacheInternDedups(t *testing.T) {
	h := NewHost()
	c := NewPageCache(h)
	a1, err := c.Intern(pageFilled(0xAA))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := c.Intern(pageFilled(0xAA))
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Errorf("identical content interned at different pages: %#x vs %#x", a1, a2)
	}
	b1, err := c.Intern(pageFilled(0xBB))
	if err != nil {
		t.Fatal(err)
	}
	if b1 == a1 {
		t.Errorf("distinct content shares a page")
	}
	st := c.Stats()
	if st.DistinctPages != 2 || st.DedupedPages != 1 || st.Hits != 1 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 2 distinct, 1 deduped, 1 hit, 2 misses", st)
	}
	if st.BytesSaved != PageSize {
		t.Errorf("BytesSaved = %d, want %d", st.BytesSaved, PageSize)
	}
	if st.BytesSavedTotal != PageSize {
		t.Errorf("BytesSavedTotal = %d, want %d", st.BytesSavedTotal, PageSize)
	}
	if got := st.DedupRatio(); got < 0.33 || got > 0.34 {
		t.Errorf("DedupRatio = %v, want 1/3", got)
	}
}

// TestPageCacheHashCollision forces two different pages under one hash
// value: the byte compare in the bucket walk must keep them apart, and
// releasing one must leave the other reachable.
func TestPageCacheHashCollision(t *testing.T) {
	c := NewPageCache(NewArenaHost())
	const h = 0x5eed
	a, b := pageFilled(0xAA), pageFilled(0xBB)
	intern := func(content []byte) uint32 {
		t.Helper()
		hpa, err := c.internHashed(h, content)
		if err != nil {
			t.Fatal(err)
		}
		return hpa
	}
	ha, hb := intern(a), intern(b)
	if ha == hb {
		t.Fatalf("colliding contents share page %#x", ha)
	}
	if got := intern(a); got != ha {
		t.Errorf("re-intern of first page = %#x, want %#x", got, ha)
	}
	if got := intern(b); got != hb {
		t.Errorf("re-intern of second page = %#x, want %#x", got, hb)
	}
	if st := c.Stats(); st.DistinctPages != 2 || st.Hits != 2 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 2 distinct, 2 hits, 2 misses", st)
	}
	// Drop the bucket's first page entirely; the second stays reachable.
	c.Release(ha)
	c.Release(ha)
	if refCount(c, ha) != 0 {
		t.Fatalf("released page still has %d refs", refCount(c, ha))
	}
	if got := intern(b); got != hb {
		t.Errorf("second page after releasing the first = %#x, want %#x", got, hb)
	}
	if refCount(c, hb) != 3 {
		t.Errorf("second page refs = %d, want 3", refCount(c, hb))
	}
	page := make([]byte, PageSize)
	if err := c.host.Read(hb, page); err != nil || !bytes.Equal(page, b) {
		t.Errorf("second page content changed (err %v)", err)
	}
	// The first content comes back as a miss under the same bucket.
	if got := intern(a); got == hb {
		t.Errorf("first content re-interned onto the second page %#x", got)
	}
	if st := c.Stats(); st.DistinctPages != 2 || st.Misses != 3 {
		t.Errorf("stats = %+v, want 2 distinct, 3 misses", st)
	}
}

// TestBytesSavedTotalMonotonic pins the counter/gauge split: releasing a
// shared mapping shrinks the live BytesSaved gauge but never the lifetime
// BytesSavedTotal counter.
func TestBytesSavedTotalMonotonic(t *testing.T) {
	h := NewHost()
	c := NewPageCache(h)
	a, _ := c.Intern(pageFilled(0xAA))
	c.Intern(pageFilled(0xAA))
	before := c.Stats()
	if before.BytesSaved != PageSize || before.BytesSavedTotal != PageSize {
		t.Fatalf("stats = %+v, want one page saved on both counters", before)
	}
	c.Release(a)
	after := c.Stats()
	if after.BytesSaved != 0 {
		t.Errorf("BytesSaved gauge = %d after release, want 0", after.BytesSaved)
	}
	if after.BytesSavedTotal != PageSize {
		t.Errorf("BytesSavedTotal = %d after release, want %d (monotonic)", after.BytesSavedTotal, PageSize)
	}
}

func TestPageCacheReleaseFreesAtZero(t *testing.T) {
	h := NewHost()
	c := NewPageCache(h)
	a, _ := c.Intern(pageFilled(0xAA))
	c.Intern(pageFilled(0xAA))
	if got := refCount(c, a); got != 2 {
		t.Fatalf("refs = %d, want 2", got)
	}
	c.Release(a)
	if got := refCount(c, a); got != 1 {
		t.Fatalf("refs after release = %d, want 1", got)
	}
	c.Release(a)
	if got := refCount(c, a); got != 0 {
		t.Fatalf("refs after final release = %d, want 0", got)
	}
	// The content is gone: re-interning allocates fresh.
	b, _ := c.Intern(pageFilled(0xAA))
	if got := c.Stats(); got.DistinctPages != 1 || got.Misses != 2 {
		t.Errorf("stats after re-intern = %+v, want 1 distinct / 2 misses", got)
	}
	_ = b
}

func TestPageCachePrivatizeCopiesAndDetaches(t *testing.T) {
	h := NewHost()
	c := NewPageCache(h)
	shared, _ := c.Intern(pageFilled(0xCC))
	c.Intern(pageFilled(0xCC)) // second reference
	private, err := c.Privatize(shared)
	if err != nil {
		t.Fatal(err)
	}
	if private == shared {
		t.Fatal("privatize returned the shared page")
	}
	got := make([]byte, PageSize)
	if err := h.Read(private, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pageFilled(0xCC)) {
		t.Error("private copy does not match shared content")
	}
	// Writing the private page must not disturb the shared one.
	if err := h.Write(private, pageFilled(0xDD)); err != nil {
		t.Fatal(err)
	}
	if err := h.Read(shared, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pageFilled(0xCC)) {
		t.Error("write to private copy leaked into the shared page")
	}
	if got := refCount(c, shared); got != 1 {
		t.Errorf("shared refs after privatize = %d, want 1", got)
	}
	if got := refCount(c, private); got != 0 {
		t.Errorf("private page is tracked by the cache (refs %d)", got)
	}
	if _, err := c.Privatize(private); err == nil {
		t.Error("privatizing an untracked page should fail")
	}
	if st := c.Stats(); st.Privatized != 1 {
		t.Errorf("Privatized = %d, want 1", st.Privatized)
	}
}

func TestPageCachePrivatizeLastRefKeepsContentReadable(t *testing.T) {
	// Privatize of the only reference must copy the bytes before the shared
	// page is freed and handed to its next owner.
	h := NewHost()
	c := NewPageCache(h)
	shared, _ := c.Intern(pageFilled(0xEE))
	private, err := c.Privatize(shared)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := h.Read(private, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pageFilled(0xEE)) {
		t.Error("content lost when privatizing the last reference")
	}
}

func TestPageCacheConcurrentIntern(t *testing.T) {
	h := NewHost()
	c := NewPageCache(h)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				hpa, err := c.Intern(pageFilled(byte(i % 4)))
				if err != nil {
					t.Error(err)
					return
				}
				if i%2 == 0 {
					c.Release(hpa)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.DistinctPages > 4 {
		t.Errorf("%d distinct pages for 4 distinct contents", st.DistinctPages)
	}
}

// TestInternHintMatchesIntern runs one seeded random sequence of interns,
// releases, privatizations and private-page frees on two caches: one
// interns with Intern only, the other with InternHint and a hint that is
// good, stale (a live page holding other bytes), freed, freed and reused
// for other content, a private page, or HPA 0. After every operation both
// caches must agree on the returned HPA, Snapshot, HitMiss and Stats.
func TestInternHintMatchesIntern(t *testing.T) {
	// Contents 0..5 differ in their first byte; 6 and 7 equal 0 and 1
	// except in the last byte, so a hint compare fails only at the end.
	var contents [][]byte
	for b := 0; b < 6; b++ {
		contents = append(contents, pageFilled(byte(0x10+b)))
	}
	for b := 0; b < 2; b++ {
		p := pageFilled(byte(0x10 + b))
		p[PageSize-1] ^= 0xFF
		contents = append(contents, p)
	}
	for _, seed := range []int64{1, 2, 3, 4} {
		rng := rand.New(rand.NewSource(seed))
		plain, hinted := NewPageCache(NewArenaHost()), NewPageCache(NewArenaHost())
		var (
			held     []uint32            // cache references held (same HPAs in both)
			private  []uint32            // live private pages (Privatize results)
			seen     []uint32            // every HPA either cache ever returned
			freed    = map[uint32]bool{} // HPAs a release or free returned to the host
			kinds    = map[string]int{}
			checkAll = func(op string) {
				t.Helper()
				if a, b := plain.Snapshot(), hinted.Snapshot(); !maps.Equal(a, b) {
					t.Fatalf("seed %d %s: snapshots differ: %v vs %v", seed, op, a, b)
				}
				h1, m1 := plain.HitMiss()
				h2, m2 := hinted.HitMiss()
				if h1 != h2 || m1 != m2 {
					t.Fatalf("seed %d %s: hit/miss %d/%d vs %d/%d", seed, op, h1, m1, h2, m2)
				}
				if a, b := plain.Stats(), hinted.Stats(); a != b {
					t.Fatalf("seed %d %s: stats %+v vs %+v", seed, op, a, b)
				}
			}
		)
		// classify names what a hint points at in the hinted cache.
		classify := func(hint uint32, content []byte) string {
			if hint == 0 {
				return "zero"
			}
			if slices.Contains(private, hint) {
				return "private"
			}
			if refCount(hinted, hint) == 0 {
				return "freed"
			}
			page, _ := hinted.host.ReadSlice(hint, PageSize)
			switch {
			case bytes.Equal(page, content):
				return "good"
			case freed[hint]:
				return "reused"
			default:
				return "stale"
			}
		}
		for op := 0; op < 3000; op++ {
			switch r := rng.Intn(10); {
			case r < 5 || len(held) == 0: // intern
				content := contents[rng.Intn(len(contents))]
				var hint uint32
				switch {
				case rng.Intn(4) == 0 && len(private) > 0:
					hint = private[rng.Intn(len(private))]
				case rng.Intn(4) != 0 && len(seen) > 0:
					hint = seen[rng.Intn(len(seen))]
				}
				kinds[classify(hint, content)]++
				a, errA := plain.Intern(content)
				b, errB := hinted.InternHint(hint, content)
				if errA != nil || errB != nil || a != b {
					t.Fatalf("seed %d op %d: Intern = %#x, %v; InternHint(%#x) = %#x, %v", seed, op, a, errA, hint, b, errB)
				}
				held = append(held, a)
				seen = append(seen, a)
			case r < 8: // release a held reference
				i := rng.Intn(len(held))
				hpa := held[i]
				held = slices.Delete(held, i, i+1)
				plain.Release(hpa)
				hinted.Release(hpa)
				if refCount(hinted, hpa) == 0 {
					freed[hpa] = true
				}
			case r < 9: // privatize a held reference
				i := rng.Intn(len(held))
				hpa := held[i]
				held = slices.Delete(held, i, i+1)
				a, errA := plain.Privatize(hpa)
				b, errB := hinted.Privatize(hpa)
				if errA != nil || errB != nil || a != b {
					t.Fatalf("seed %d op %d: Privatize(%#x) = %#x, %v vs %#x, %v", seed, op, hpa, a, errA, b, errB)
				}
				if refCount(hinted, hpa) == 0 {
					freed[hpa] = true
				}
				private = append(private, a)
				seen = append(seen, a)
			default: // free a private page
				if len(private) == 0 {
					continue
				}
				i := rng.Intn(len(private))
				hpa := private[i]
				private = slices.Delete(private, i, i+1)
				plain.host.FreePage(hpa)
				hinted.host.FreePage(hpa)
				freed[hpa] = true
			}
			checkAll(fmt.Sprintf("op %d", op))
		}
		for _, k := range []string{"good", "stale", "freed", "reused", "private", "zero"} {
			if kinds[k] == 0 {
				t.Errorf("seed %d: no %s hint in the sequence", seed, k)
			}
		}
		t.Logf("seed %d hints: %v", seed, kinds)
	}
}

// refCount returns the live reference count of a cached page (0 if
// untracked).
func refCount(c *PageCache, hpa uint32) int {
	if e, ok := c.entries[hpa]; ok {
		return e.refs
	}
	return 0
}
