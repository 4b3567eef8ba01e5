package core

import (
	"bytes"
	"testing"

	"facechange/internal/kernel"
	"facechange/internal/kview"
	"facechange/internal/mem"
)

// loadTwice loads the same single-function view configuration twice and
// returns both materialized views.
func loadTwice(t *testing.T, opts Options) (*kernel.Kernel, *Runtime, *LoadedView, *LoadedView) {
	t.Helper()
	k, err := kernel.New(kernel.Config{Clock: kernel.ClockKVM})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Setup{Machine: k.M, Symbols: k.Syms, TextSize: k.Img.TextSize(), Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	f, ok := k.Syms.ByName("sys_getpid")
	if !ok {
		t.Fatal("missing sys_getpid")
	}
	mk := func(app string) *LoadedView {
		cfg := kview.NewView(app)
		cfg.Insert(kview.BaseKernel, f.Addr, f.End())
		idx, err := rt.LoadView(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rt.ViewByIndex(idx)
	}
	return k, rt, mk("first"), mk("second")
}

// pagesOf collects a view's shadow pages (GPA page → HPA).
func pagesOf(v *LoadedView) map[uint32]uint32 {
	out := make(map[uint32]uint32)
	v.Pages(func(gpa, hpa uint32) bool {
		out[gpa] = hpa
		return true
	})
	return out
}

// pageGPAs lists a view's shadowed GPA pages in ascending order.
func pageGPAs(v *LoadedView) (out []uint32) {
	v.Pages(func(gpa, _ uint32) bool {
		out = append(out, gpa)
		return true
	})
	return out
}

// shadowHPA returns the shadow page backing gpaPage in v.
func shadowHPA(t testing.TB, v *LoadedView, gpaPage uint32) uint32 {
	t.Helper()
	hpa, ok := v.pageFor(gpaPage)
	if !ok {
		t.Fatalf("view %q shadows no page %#x", v.Name, gpaPage)
	}
	return hpa
}

// isShared reports whether v shadows gpaPage with a cache-shared page
// (its private bit clear).
func isShared(v *LoadedView, gpaPage uint32) bool {
	i, ok := v.pageIndex(gpaPage)
	return ok && !v.private.has(i)
}

// TestLoadViewSharesIdenticalPages: two views with identical content must
// map every shadow page to the same host page — one UD2 page and one copy
// of each loaded page, not a full per-view copy.
func TestLoadViewSharesIdenticalPages(t *testing.T) {
	_, rt, v1, v2 := loadTwice(t, DefaultOptions())
	p1, p2 := pagesOf(v1), pagesOf(v2)
	if len(p1) == 0 || len(p1) != len(p2) {
		t.Fatalf("page counts differ: %d vs %d", len(p1), len(p2))
	}
	for gpa, hpa := range p1 {
		if p2[gpa] != hpa {
			t.Fatalf("page %#x not shared: %#x vs %#x", gpa, hpa, p2[gpa])
		}
	}
	st := rt.CacheStats()
	// The second view contributed zero new pages.
	if st.DedupedPages < uint64(len(p2)) {
		t.Errorf("DedupedPages = %d, want ≥ %d (the whole second view)", st.DedupedPages, len(p2))
	}
	// And even the first view collapses to very few distinct pages: UD2
	// filler plus the loaded function's page(s).
	if st.DistinctPages > 4 {
		t.Errorf("%d distinct pages for two near-empty views", st.DistinctPages)
	}
	if st.DedupRatio() < 0.5 {
		t.Errorf("dedup ratio %.2f, want > 0.5", st.DedupRatio())
	}
}

// TestRecoveryCopyOnWriteIsolatesViews: recovering code into one view must
// not alter the identical page another view still shares.
func TestRecoveryCopyOnWriteIsolatesViews(t *testing.T) {
	k, rt, v1, v2 := loadTwice(t, DefaultOptions())
	f, _ := k.Syms.ByName("sys_read")
	gpaPage := mem.PageAlignDown(f.Addr - mem.KernelBase)
	sharedHPA := shadowHPA(t, v1, gpaPage)
	if shadowHPA(t, v2, gpaPage) != sharedHPA {
		t.Fatal("precondition: page not shared")
	}

	// Recover sys_read into view 1 only (what OnInvalidOpcode does).
	if err := rt.copyPhys(rt.arenas[0], v1, f.Addr, f.Size); err != nil {
		t.Fatal(err)
	}

	if shadowHPA(t, v1, gpaPage) == sharedHPA {
		t.Error("written page still shared (no copy-on-write)")
	}
	if isShared(v1, gpaPage) {
		t.Error("written page still marked shared")
	}
	if shadowHPA(t, v2, gpaPage) != sharedHPA {
		t.Error("untouched view lost its shared page")
	}
	// View 2's page must still be pristine UD2 at sys_read.
	buf := make([]byte, 8)
	if err := rt.m.Host.Read(shadowHPA(t, v2, gpaPage)+(f.Addr-mem.KernelBase-gpaPage), buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:2], []byte{ud2Page[0], ud2Page[1]}) {
		t.Errorf("shared page mutated under view 2: % x", buf)
	}
	// View 1's private page holds the recovered code.
	if err := rt.m.Host.Read(shadowHPA(t, v1, gpaPage)+(f.Addr-mem.KernelBase-gpaPage), buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf[:2], []byte{ud2Page[0], ud2Page[1]}) {
		t.Error("recovered page still UD2 in view 1")
	}
	// One privatization per written page (the function may span several).
	wantPages := (mem.PageAlignUp(f.Addr+f.Size) - mem.PageAlignDown(f.Addr)) / mem.PageSize
	if st := rt.CacheStats(); st.Privatized != uint64(wantPages) {
		t.Errorf("Privatized = %d, want %d", st.Privatized, wantPages)
	}
}

// TestUnloadViewReleasesSharedPages: unloading one of two identical views
// keeps the shared pages alive for the survivor; unloading both frees
// them.
func TestUnloadViewReleasesSharedPages(t *testing.T) {
	k, rt, v1, _ := loadTwice(t, DefaultOptions())
	distinct := rt.CacheStats().DistinctPages
	if err := rt.UnloadView(1); err != nil {
		t.Fatal(err)
	}
	if got := rt.CacheStats().DistinctPages; got != distinct {
		t.Errorf("distinct pages %d → %d after unloading one sharer", distinct, got)
	}
	// The survivor still reads its loaded code.
	f, _ := k.Syms.ByName("sys_getpid")
	v2 := rt.ViewByIndex(2)
	buf := make([]byte, 2)
	gpaPage := mem.PageAlignDown(f.Addr - mem.KernelBase)
	if err := rt.m.Host.Read(shadowHPA(t, v2, gpaPage)+(f.Addr-mem.KernelBase-gpaPage), buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf, []byte{ud2Page[0], ud2Page[1]}) {
		t.Error("survivor's loaded page was freed with the unloaded view")
	}
	if err := rt.UnloadView(2); err != nil {
		t.Fatal(err)
	}
	if got := rt.CacheStats().DistinctPages; got != 0 {
		t.Errorf("%d cached pages leaked after unloading every view", got)
	}
	_ = v1
}
