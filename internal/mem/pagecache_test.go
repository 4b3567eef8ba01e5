package mem

import (
	"bytes"
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
	if c.Refs(ha) != 0 {
		t.Fatalf("released page still has %d refs", c.Refs(ha))
	}
	if got := intern(b); got != hb {
		t.Errorf("second page after releasing the first = %#x, want %#x", got, hb)
	}
	if c.Refs(hb) != 3 {
		t.Errorf("second page refs = %d, want 3", c.Refs(hb))
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
	if got := c.Refs(a); got != 2 {
		t.Fatalf("refs = %d, want 2", got)
	}
	c.Release(a)
	if got := c.Refs(a); got != 1 {
		t.Fatalf("refs after release = %d, want 1", got)
	}
	c.Release(a)
	if got := c.Refs(a); got != 0 {
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
	if got := c.Refs(shared); got != 1 {
		t.Errorf("shared refs after privatize = %d, want 1", got)
	}
	if got := c.Refs(private); got != 0 {
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
