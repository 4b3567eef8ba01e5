package mem

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestPageAlign(t *testing.T) {
	tests := []struct {
		addr, down, up uint32
	}{
		{0, 0, 0},
		{1, 0, PageSize},
		{PageSize - 1, 0, PageSize},
		{PageSize, PageSize, PageSize},
		{PageSize + 1, PageSize, 2 * PageSize},
	}
	for _, tt := range tests {
		if got := PageAlignDown(tt.addr); got != tt.down {
			t.Errorf("PageAlignDown(%#x) = %#x, want %#x", tt.addr, got, tt.down)
		}
		if got := PageAlignUp(tt.addr); got != tt.up {
			t.Errorf("PageAlignUp(%#x) = %#x, want %#x", tt.addr, got, tt.up)
		}
	}
}

func TestKernelGVAClassification(t *testing.T) {
	if !IsModuleGVA(ModuleGVA + 100) {
		t.Error("module area misclassified")
	}
	if IsModuleGVA(KernelTextGVA) {
		t.Error("kernel text is not the module area")
	}
}

func TestHostAllocPagesDisjoint(t *testing.T) {
	h := NewHost()
	seen := map[uint32]bool{}
	for i := 0; i < 100; i++ {
		hpa := h.AllocPage(nil)
		if hpa < GuestRAMSize {
			t.Fatalf("allocated page %#x inside guest RAM", hpa)
		}
		if hpa%PageSize != 0 {
			t.Fatalf("allocated page %#x not page aligned", hpa)
		}
		if seen[hpa] {
			t.Fatalf("page %#x allocated twice", hpa)
		}
		seen[hpa] = true
	}
}

func TestHostReadWriteRoundTrip(t *testing.T) {
	h := NewHost()
	data := []byte("face-change")
	if err := h.Write(0x1234, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := h.Read(0x1234, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip got %q", got)
	}
}

func TestHostU32RoundTrip(t *testing.T) {
	h := NewHost()
	if err := h.WriteU32(0x2000, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	v, err := h.ReadU32(0x2000)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xDEADBEEF {
		t.Fatalf("ReadU32 = %#x", v)
	}
}

func TestHostOutOfRange(t *testing.T) {
	h := NewHost()
	if err := h.Read(uint32(h.size()), make([]byte, 1)); err == nil {
		t.Error("read past end should fail")
	}
	if err := h.Write(uint32(h.size()-1), make([]byte, 2)); err == nil {
		t.Error("write past end should fail")
	}
}

func TestHostGrowthPreservesContents(t *testing.T) {
	h := NewHost()
	if err := h.Write(100, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	initial := h.size()
	for h.size() == initial {
		h.AllocPage(nil)
	}
	got := make([]byte, 3)
	if err := h.Read(100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("contents lost across growth: %v", got)
	}
}

func TestEPTIdentityDefault(t *testing.T) {
	e := NewEPT()
	for _, gpa := range []uint32{0, 0x1234, KernelTextGPA + 17, GuestRAMSize - 1} {
		if got := e.Translate(gpa); got != gpa {
			t.Errorf("identity Translate(%#x) = %#x", gpa, got)
		}
	}
}

func TestEPTSetPTERedirectsSinglePage(t *testing.T) {
	e := NewEPT()
	gpa := KernelTextGPA + 3*PageSize
	e.SetPTE(gpa, GuestRAMSize) // some shadow page
	if got := e.Translate(gpa + 5); got != GuestRAMSize+5 {
		t.Errorf("redirected Translate = %#x, want %#x", got, GuestRAMSize+5)
	}
	// Neighbouring pages in the same 4MB region stay identity.
	if got := e.Translate(gpa + PageSize); got != gpa+PageSize {
		t.Errorf("neighbour page remapped: %#x", got)
	}
	if got := e.Translate(gpa - PageSize); got != gpa-PageSize {
		t.Errorf("neighbour page remapped: %#x", got)
	}
}

func TestEPTClearPTERestoresIdentity(t *testing.T) {
	e := NewEPT()
	gpa := ModuleGPA + 7*PageSize
	e.SetPTE(gpa, GuestRAMSize+PageSize)
	e.ClearPTE(gpa)
	if got := e.Translate(gpa + 9); got != gpa+9 {
		t.Errorf("ClearPTE did not restore identity: %#x", got)
	}
}

func TestEPTPDSwap(t *testing.T) {
	e := NewEPT()
	pt := NewIdentityPT(PageAlignDown(KernelTextGPA) &^ (PDSpan - 1))
	pt.Set(ptIndex(KernelTextGPA), GuestRAMSize+8*PageSize)
	e.SetPD(KernelTextGPA, pt)
	if got := e.Translate(KernelTextGPA); got != GuestRAMSize+8*PageSize {
		t.Errorf("PD-swapped Translate = %#x", got)
	}
	e.SetPD(KernelTextGPA, nil)
	if got := e.Translate(KernelTextGPA); got != KernelTextGPA {
		t.Errorf("nil PD should mean identity, got %#x", got)
	}
	pd, pte := e.Counters()
	if pd != 2 || pte != 0 {
		t.Errorf("counters = (%d,%d), want (2,0)", pd, pte)
	}
}

func TestEPTCounters(t *testing.T) {
	e := NewEPT()
	e.SetPTE(0x1000, GuestRAMSize)
	e.SetPTE(0x2000, GuestRAMSize)
	e.ClearPTE(0x1000)
	pd, pte := e.Counters()
	if pd != 0 || pte != 3 {
		t.Errorf("counters = (%d,%d), want (0,3)", pd, pte)
	}
	e.ResetCounters()
	pd, pte = e.Counters()
	if pd != 0 || pte != 0 {
		t.Errorf("after reset counters = (%d,%d)", pd, pte)
	}
}

func TestAddressSpaceKernelSharedMappings(t *testing.T) {
	as := NewAddressSpace()
	gpa, err := as.Translate(KernelTextGVA + 42)
	if err != nil {
		t.Fatal(err)
	}
	if gpa != KernelTextGPA+42 {
		t.Errorf("kernel text GPA = %#x", gpa)
	}
	gpa, err = as.Translate(ModuleGVA + 0x555)
	if err != nil {
		t.Fatal(err)
	}
	if gpa != ModuleGPA+0x555 {
		t.Errorf("module GPA = %#x", gpa)
	}
}

func TestAddressSpaceUserMapping(t *testing.T) {
	as := NewAddressSpace()
	as.Map(Region{GVA: UserCodeBase, GPA: UserGPA, Size: PageSize, Name: "code"})
	gpa, err := as.Translate(UserCodeBase + 10)
	if err != nil {
		t.Fatal(err)
	}
	if gpa != UserGPA+10 {
		t.Errorf("user GPA = %#x", gpa)
	}
	if _, err := as.Translate(UserCodeBase - 1); err == nil {
		t.Error("unmapped address should fault")
	}
	if _, err := as.Translate(UserCodeBase + PageSize); err == nil {
		t.Error("address past region should fault")
	}
}

func TestAddressSpaceOverlapPanics(t *testing.T) {
	as := NewAddressSpace()
	as.Map(Region{GVA: 0x1000, GPA: 0, Size: 0x2000, Name: "a"})
	for _, r := range []Region{
		{GVA: 0x2000, GPA: 0, Size: 0x10, Name: "inside"},
		{GVA: 0x0800, GPA: 0, Size: 0x1000, Name: "tail-overlap"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("overlap %s should panic", r.Name)
				}
			}()
			as.Map(r)
		}()
	}
}

func TestAccessorCrossPageReadWrite(t *testing.T) {
	h := NewHost()
	as := NewAddressSpace()
	e := NewEPT()
	acc := Accessor{AS: as, EPT: e, Host: h}

	// Redirect the second page of kernel text to a shadow page so that a
	// write spanning the boundary lands in two different host pages.
	shadow := h.AllocPage(nil)
	e.SetPTE(KernelTextGPA+PageSize, shadow)

	gva := KernelTextGVA + PageSize - 2
	data := []byte{0xAA, 0xBB, 0xCC, 0xDD}
	if err := acc.Write(gva, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if err := acc.Read(gva, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("cross-page round trip = % x", got)
	}
	// First two bytes are in identity-mapped RAM, last two in the shadow.
	b2 := make([]byte, 2)
	if err := h.Read(KernelTextGPA+PageSize-2, b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b2, data[:2]) {
		t.Errorf("identity half = % x", b2)
	}
	if err := h.Read(shadow, b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b2, data[2:]) {
		t.Errorf("shadow half = % x", b2)
	}
}

func TestAccessorReadPhysBypassesEPT(t *testing.T) {
	h := NewHost()
	as := NewAddressSpace()
	e := NewEPT()
	acc := Accessor{AS: as, EPT: e, Host: h}

	if err := h.Write(KernelTextGPA, []byte{0x11}); err != nil {
		t.Fatal(err)
	}
	shadow := h.AllocPage(nil)
	if err := h.Write(shadow, []byte{0x22}); err != nil {
		t.Fatal(err)
	}
	e.SetPTE(KernelTextGPA, shadow)

	b := make([]byte, 1)
	if err := acc.Read(KernelTextGVA, b); err != nil {
		t.Fatal(err)
	}
	if b[0] != 0x22 {
		t.Errorf("virtual read through EPT = %#x, want shadow byte 0x22", b[0])
	}
	if err := acc.Host.Read(KernelTextGPA, b); err != nil {
		t.Fatal(err)
	}
	if b[0] != 0x11 {
		t.Errorf("physical read = %#x, want pristine byte 0x11", b[0])
	}
}

func TestAccessorU32RoundTrip(t *testing.T) {
	h := NewHost()
	acc := Accessor{AS: NewAddressSpace(), EPT: NewEPT(), Host: h}
	if err := acc.WriteU32(KernelDataGVA+8, 0xCAFEBABE); err != nil {
		t.Fatal(err)
	}
	v, err := acc.ReadU32(KernelDataGVA + 8)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xCAFEBABE {
		t.Fatalf("u32 round trip = %#x", v)
	}
}

func TestAccessorFaultOnUnmapped(t *testing.T) {
	h := NewHost()
	acc := Accessor{AS: NewAddressSpace(), EPT: NewEPT(), Host: h}
	if err := acc.Read(0x1000, make([]byte, 4)); err == nil {
		t.Error("read of unmapped user address should fault")
	}
}

// Property: for any in-RAM GPA, SetPTE followed by ClearPTE restores
// identity translation for every offset within the page.
func TestEPTSetClearProperty(t *testing.T) {
	h := NewHost()
	e := NewEPT()
	shadow := h.AllocPage(nil)
	f := func(gpaRaw uint32, off uint16) bool {
		gpa := (gpaRaw % (GuestRAMSize - PageSize)) &^ (PageSize - 1)
		o := uint32(off) % PageSize
		e.SetPTE(gpa, shadow)
		if e.Translate(gpa+o) != shadow+o {
			return false
		}
		e.ClearPTE(gpa)
		return e.Translate(gpa+o) == gpa+o
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: address-space translation is monotone within a region —
// Translate(gva+k) == Translate(gva)+k for offsets inside the region.
func TestAddressSpaceLinearityProperty(t *testing.T) {
	as := NewAddressSpace()
	f := func(off uint32) bool {
		o := off % ModuleAreaSize
		g1, err1 := as.Translate(ModuleGVA)
		g2, err2 := as.Translate(ModuleGVA + o)
		return err1 == nil && err2 == nil && g2 == g1+o
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHostSliceAliasesMemory(t *testing.T) {
	h := NewHost()
	s, err := h.Slice(0x3000, 4)
	if err != nil {
		t.Fatal(err)
	}
	s[0] = 0x7F
	b := make([]byte, 1)
	if err := h.Read(0x3000, b); err != nil {
		t.Fatal(err)
	}
	if b[0] != 0x7F {
		t.Error("Slice does not alias host memory")
	}
	if _, err := h.Slice(uint32(h.size()-1), 2); err == nil {
		t.Error("out-of-range slice must fail")
	}
}

// TestHostFreelistReuse: freed pages are recycled LIFO before the bump
// pointer advances, so load/unload churn keeps host memory bounded by the
// peak live set.
func TestHostFreelistReuse(t *testing.T) {
	for _, tc := range []struct {
		name string
		host func() *Host
	}{
		{"guest", NewHost},
		// An arena's pages start at HPA 0: LivePages must not subtract a
		// guest RAM reservation the arena does not have.
		{"arena", NewArenaHost},
	} {
		t.Run(tc.name, func(t *testing.T) { testFreelistReuse(t, tc.host()) })
	}
}

func testFreelistReuse(t *testing.T, h *Host) {
	a := h.AllocPage(nil)
	b := h.AllocPage(nil)
	if got := h.LivePages(); got != 2 {
		t.Fatalf("LivePages = %d after two allocs, want 2", got)
	}

	h.FreePage(a)
	h.FreePage(b)
	if got := h.LivePages(); got != 0 {
		t.Fatalf("LivePages = %d after freeing both, want 0", got)
	}

	// LIFO reuse: the most recently freed page comes back first, and no
	// fresh pages are minted while freed ones exist.
	if got := h.AllocPage(nil); got != b {
		t.Errorf("first realloc = %#x, want recycled %#x", got, b)
	}
	if got := h.AllocPage(nil); got != a {
		t.Errorf("second realloc = %#x, want recycled %#x", got, a)
	}
	size := h.size()

	// Steady-state churn never grows host memory.
	for i := 0; i < 10000; i++ {
		h.FreePage(a)
		if got := h.AllocPage(nil); got != a {
			t.Fatalf("churn iteration %d allocated %#x, want %#x", i, got, a)
		}
	}
	if h.size() != size {
		t.Errorf("host memory grew %d → %d bytes under steady-state churn", size, h.size())
	}
	if got := h.LivePages(); got != 2 {
		t.Errorf("LivePages = %d after churn, want 2", got)
	}

	// A recycled page allocated without content is zeroed, same as a
	// fresh one.
	if err := h.Write(a, []byte{0xAA}); err != nil {
		t.Fatal(err)
	}
	h.FreePage(a)
	got := h.AllocPage(nil)
	buf := make([]byte, 1)
	if err := h.Read(got, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 {
		t.Errorf("recycled page not zeroed: %#x", buf[0])
	}
}

// TestHostAllocPageDefinesContent: a page is defined when it is allocated.
// On both host kinds, a fresh page and a page recycled after a write of
// 0xA5 and a free read all zeros from AllocPage(nil) and exactly p from
// AllocPage(p); a content of any length but 0 or one page panics.
func TestHostAllocPageDefinesContent(t *testing.T) {
	p := make([]byte, PageSize)
	for i := range p {
		p[i] = byte(i*7 + 3)
	}
	zero := make([]byte, PageSize)
	for _, tc := range []struct {
		name string
		host func() *Host
	}{{"guest", NewHost}, {"arena", NewArenaHost}} {
		t.Run(tc.name, func(t *testing.T) {
			h := tc.host()
			check := func(what string, hpa uint32, want []byte) {
				t.Helper()
				page := make([]byte, PageSize)
				if err := h.Read(hpa, page); err != nil {
					t.Fatal(err)
				}
				for i := range page {
					if page[i] != want[i] {
						t.Fatalf("%s page %#x byte %d is %#x, want %#x", what, hpa, i, page[i], want[i])
					}
				}
			}
			for _, c := range []struct {
				what          string
				content, want []byte
			}{{"zero", nil, zero}, {"empty", []byte{}, zero}, {"filled", p, p}} {
				check("fresh "+c.what, h.AllocPage(c.content), c.want)
				freed := h.AllocPage(nil)
				if err := h.Write(freed, bytes.Repeat([]byte{0xA5}, PageSize)); err != nil {
					t.Fatal(err)
				}
				h.FreePage(freed)
				if got := h.AllocPage(c.content); got != freed {
					t.Fatalf("realloc = %#x, want the freed page %#x back", got, freed)
				}
				check("recycled "+c.what, freed, c.want)
			}
			live := h.LivePages()
			for _, n := range []int{1, PageSize - 1, PageSize + 1} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("AllocPage of %d bytes did not panic", n)
						}
					}()
					h.AllocPage(make([]byte, n))
				}()
			}
			if got := h.LivePages(); got != live {
				t.Errorf("LivePages = %d after the refused allocations, want %d", got, live)
			}
		})
	}
}

// TestHostSliceSurvivesAllocation: host memory never moves, so a Slice
// taken before many page allocations — of guest RAM or of a shadow page —
// still aliases host memory after them.
func TestHostSliceSurvivesAllocation(t *testing.T) {
	h := NewHost()
	ram, err := h.Slice(0x3000, 4)
	if err != nil {
		t.Fatal(err)
	}
	first := h.AllocPage(nil)
	shadow, err := h.Slice(first, PageSize)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		h.AllocPage(nil)
	}
	ram[0], shadow[PageSize-1] = 0x5A, 0x6B
	if b, err := h.ReadU32(0x3000); err != nil || byte(b) != 0x5A {
		t.Errorf("guest RAM slice no longer aliases host memory (read %#x, %v)", b, err)
	}
	b := make([]byte, 1)
	if err := h.Read(first+PageSize-1, b); err != nil || b[0] != 0x6B {
		t.Errorf("shadow page slice no longer aliases host memory (read %#x, %v)", b[0], err)
	}
}

// TestHostShadowAccessBoundedToPage: above guest RAM an access may not
// leave its page — consecutive allocations are not contiguous memory —
// and may not touch a page never allocated. An access may not cross from
// guest RAM into the shadow area either.
func TestHostShadowAccessBoundedToPage(t *testing.T) {
	for _, h := range []*Host{NewHost(), NewArenaHost()} {
		a := h.AllocPage(nil)
		h.AllocPage(nil)
		cross := a + PageSize - 2
		if err := h.Read(cross, make([]byte, 4)); err == nil {
			t.Error("read across a shadow-page boundary should fail")
		}
		if err := h.Write(cross, make([]byte, 4)); err == nil {
			t.Error("write across a shadow-page boundary should fail")
		}
		if _, err := h.Slice(cross, 4); err == nil {
			t.Error("slice across a shadow-page boundary should fail")
		}
		if _, err := h.Slice(a, PageSize+1); err == nil {
			t.Error("slice of more than one shadow page should fail")
		}
		if _, err := h.Slice(a+2*PageSize, 1); err == nil {
			t.Error("slice of a never-allocated page should fail")
		}
		if _, err := h.Slice(cross, 2); err != nil {
			t.Errorf("slice ending at the page boundary: %v", err)
		}
	}
	h := NewHost()
	h.AllocPage(nil)
	if err := h.Read(GuestRAMSize-2, make([]byte, 4)); err == nil {
		t.Error("read from guest RAM into the shadow area should fail")
	}
}

// TestHostRecycledRAMReadsZero: guest RAM written through Write, through
// an Accessor and through a live Slice — writes straddling two pages, the
// last byte of RAM, both sides of a dirty-bitmap word boundary — is
// cleared by the time it comes back from NewHost, whether its host was
// released or dropped for the garbage collector to find. Each cycle
// dirties different pages and the next host must read all of RAM as zero.
// Released RAM must survive two garbage collections, and dropped RAM must
// be on top of the free list once the collector has run its finalizer:
// either way the next host runs on it every cycle.
func TestHostRecycledRAMReadsZero(t *testing.T) {
	// Hosts that earlier tests dropped go back on the free list when they
	// are collected; let that happen now, so the list's top is this test's.
	if err := awaitFinalizers(); err != nil {
		t.Fatal(err)
	}
	for cycle := uint32(0); cycle < 6; cycle++ {
		h := NewHost()
		if i := firstNonZero(h.ram); i >= 0 {
			t.Fatalf("cycle %d: arriving host byte %#x is %#x, want 0", cycle, i, h.ram[i])
		}
		dirtyEdges(t, h, cycle*3*64*PageSize)
		ram, how := ramAddr(h.ram), "released"
		if cycle%2 == 0 {
			h.Release()
			if _, err := h.Slice(0, 1); err == nil {
				t.Fatal("a released host still hands out its former RAM")
			}
			runtime.GC()
			runtime.GC()
		} else {
			// h is not used again: nothing references the RAM any more.
			how = "dropped"
			if err := awaitFinalizers(); err != nil {
				t.Fatal(err)
			}
		}
		if top := freeTop(); top != ram {
			t.Fatalf("cycle %d: the free list's top is %#x, not the RAM %s at %#x", cycle, top, how, ram)
		}
		next := NewHost()
		if i := firstNonZero(next.ram); i >= 0 {
			t.Fatalf("cycle %d: RAM %s comes back with byte %#x = %#x, want 0", cycle, how, i, next.ram[i])
		}
		next.Release()
	}
}

// dirtyEdges writes h's guest RAM at the pages the dirty bitmap is most
// likely to miss, shifted by shift bytes: through Write across a page
// boundary, at the last byte of a bitmap word and the first of the next,
// at the last byte of RAM, through an Accessor, and through a live Slice
// after it was handed out.
func dirtyEdges(t *testing.T, h *Host, shift uint32) {
	t.Helper()
	wordEdge := uint32(64 * PageSize) // first page of the second bitmap word
	for _, w := range []struct {
		hpa uint32
		n   int
	}{
		{shift + 5*PageSize - 2, 4}, // straddles a page boundary
		{wordEdge - 1 + shift, 1},   // last byte of a bitmap word
		{wordEdge + shift, 1},       // first byte of the next word
		{GuestRAMSize - 1, 1},       // last byte of RAM
	} {
		if err := h.Write(w.hpa, bytes.Repeat([]byte{0xC3}, w.n)); err != nil {
			t.Fatal(err)
		}
	}
	acc := Accessor{AS: NewAddressSpace(), EPT: NewEPT(), Host: h}
	if err := acc.WriteU32(KernelBase+shift+9*PageSize-2, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	s, err := h.Slice(shift+2*wordEdge-PageSize, 2*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	s[0], s[len(s)-1] = 0xA5, 0x5A
}

// TestHostRecycleConcurrent: goroutines each boot a host, dirty random
// pages through Write, Accessor.Write and a live Slice, and release it or
// drop it for the collector, many times over. Every host must read all
// zero when it arrives and no two live hosts may share RAM. Once the
// dropped hosts are collected, every RAM the test used is on the free
// list exactly once, and the list grew by no more than the RAM allocated
// during the test: at most one per worker, plus one per dropped host that
// still awaited collection when its worker went on.
func TestHostRecycleConcurrent(t *testing.T) {
	const workers, rounds = 4, 12 // each live host is 40 MB
	if err := awaitFinalizers(); err != nil {
		t.Fatal(err)
	}
	before := freeAddrs()
	// RAM is named by address, so that no map entry keeps it alive. A
	// boot holds mu from NewHost until it is counted, so a dropped RAM
	// that no host booted on since, and that is not on the free list,
	// awaits collection.
	var (
		mu      sync.Mutex
		live    = map[uintptr]bool{}
		boots   = map[uintptr]int{}
		awaited int
		wg      sync.WaitGroup
	)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				mu.Lock()
				h := NewHost()
				ram := ramAddr(h.ram)
				shared := live[ram]
				live[ram] = true
				boots[ram]++
				mu.Unlock()
				if shared {
					errs <- fmt.Errorf("round %d: two live hosts share one RAM", r)
					return
				}
				if i := firstNonZero(h.ram); i >= 0 {
					errs <- fmt.Errorf("round %d: arriving host byte %#x is %#x, want 0", r, i, h.ram[i])
					return
				}
				if err := dirtyRandom(h, rng); err != nil {
					errs <- err
					return
				}
				mu.Lock()
				delete(live, ram)
				gen := boots[ram]
				mu.Unlock()
				if r%2 == 0 {
					h.Release()
					continue
				}
				// h is not used again: wait for the collector to return it.
				if err := awaitFinalizers(); err != nil {
					errs <- err
					return
				}
				mu.Lock()
				if boots[ram] == gen && !freeAddrs()[ram] {
					awaited++
				}
				mu.Unlock()
			}
		}(rand.New(rand.NewSource(int64(w + 1))))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := awaitFinalizers(); err != nil {
		t.Fatal(err)
	}
	after, fresh := freeAddrs(), 0
	for ram := range boots {
		if !after[ram] {
			t.Fatalf("RAM %#x was used and never came back to the free list", ram)
		}
		if !before[ram] {
			fresh++
		}
	}
	freeRAM.Lock()
	n := len(freeRAM.list)
	freeRAM.Unlock()
	if n != len(after) {
		t.Fatalf("the free list holds %d entries for %d distinct RAMs", n, len(after))
	}
	if grew := len(after) - len(before); grew > fresh || fresh > workers+awaited {
		t.Fatalf("the free list grew by %d RAMs; %d were allocated, for %d workers and %d dropped hosts that awaited collection",
			grew, fresh, workers, awaited)
	}
}

// dirtyRandom writes random pages of h's guest RAM through Write,
// Accessor.Write and a live Slice written after it was handed out.
func dirtyRandom(h *Host, rng *rand.Rand) error {
	s, err := h.Slice(uint32(rng.Intn(int(GuestRAMSize/PageSize-1)))*PageSize, 2*PageSize)
	if err != nil {
		return err
	}
	acc := Accessor{AS: NewAddressSpace(), EPT: NewEPT(), Host: h}
	for i := 0; i < 8; i++ {
		if err := h.Write(uint32(rng.Intn(int(GuestRAMSize-1))), []byte{0xC3, 0x90}); err != nil {
			return err
		}
		if err := acc.Write(KernelBase+uint32(rng.Intn(int(ModuleGPA-3))), []byte{0xDE, 0xAD, 0xBE}); err != nil {
			return err
		}
	}
	s[rng.Intn(len(s))] = 0xA5
	return nil
}

// awaitFinalizers runs a garbage collection and waits until every
// finalizer it queued has run, or reports an error after a minute. The
// runtime runs finalizers one at a time on a single goroutine, which
// takes its whole queue at once. A sentinel queued by a collection that
// starts after an earlier sentinel ran therefore runs after the batch
// that held the earlier one, and so after everything queued before it.
func awaitFinalizers() error {
	runtime.GC()
	for i := 0; i < 2; i++ {
		done := make(chan struct{})
		runtime.SetFinalizer(&sentinel{done}, func(s *sentinel) { close(s.done) })
		runtime.GC()
		select {
		case <-done:
		case <-time.After(time.Minute):
			return errors.New("finalizers did not run within a minute")
		}
	}
	return nil
}

// sentinel is an object whose finalizer tells awaitFinalizers it ran.
type sentinel struct{ done chan struct{} }

// ramAddr returns the address of guest RAM b, which identifies it
// without keeping it alive.
func ramAddr(b []byte) uintptr { return reflect.ValueOf(b).Pointer() }

// freeTop returns the address of the RAM on top of the free list, or 0.
func freeTop() uintptr {
	freeRAM.Lock()
	defer freeRAM.Unlock()
	if n := len(freeRAM.list); n > 0 {
		return ramAddr(freeRAM.list[n-1].buf[:])
	}
	return 0
}

// freeAddrs returns the addresses of the RAM on the free list.
func freeAddrs() map[uintptr]bool {
	freeRAM.Lock()
	defer freeRAM.Unlock()
	m := make(map[uintptr]bool, len(freeRAM.list))
	for _, g := range freeRAM.list {
		m[ramAddr(g.buf[:])] = true
	}
	return m
}

// firstNonZero returns the index of the first nonzero byte of b, or -1.
func firstNonZero(b []byte) int {
	var zero [PageSize]byte
	for off := 0; off < len(b); off += PageSize {
		page := b[off:min(off+PageSize, len(b))]
		if !bytes.Equal(page, zero[:len(page)]) {
			return off + bytes.IndexFunc(page, func(r rune) bool { return r != 0 })
		}
	}
	return -1
}

// TestDirtyMarkingMatchesPages: marking a range sets exactly the bits of
// the pages it touches, and scrub zeroes those pages and nothing else
// needs zeroing afterwards.
func TestDirtyMarkingMatchesPages(t *testing.T) {
	g := guestRAM{buf: new([GuestRAMSize]byte), dirty: new(dirtyBitmap)}
	f := func(hpa uint32, n uint32) bool {
		hpa %= GuestRAMSize
		n = 1 + n%(4*64*PageSize)
		if hpa+n > GuestRAMSize {
			n = GuestRAMSize - hpa
		}
		g.dirty.mark(hpa, int(n))
		for p := uint32(0); p < GuestRAMSize/PageSize; p++ {
			want := p >= hpa/PageSize && p <= (hpa+n-1)/PageSize
			if got := g.dirty[p/64]>>(p%64)&1 == 1; got != want {
				return false
			}
		}
		// Fill the marked range (and only it) so scrub has work to do.
		for i := hpa; i < hpa+n; i++ {
			g.buf[i] = 0xFF
		}
		g.scrub()
		return *g.dirty == dirtyBitmap{} &&
			bytes.IndexByte(g.buf[PageAlignDown(hpa):PageAlignUp(hpa+n)], 0xFF) < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestArenaHostRelease: an arena host has no guest RAM to recycle, so
// Release leaves it untouched; a second Release of a guest host is a
// no-op too.
func TestArenaHostRelease(t *testing.T) {
	a := NewArenaHost()
	hpa := a.AllocPage(nil)
	a.Release()
	if err := a.Write(hpa, []byte{1}); err != nil || a.LivePages() != 1 {
		t.Fatalf("arena unusable after Release: %v, %d live pages", err, a.LivePages())
	}
	h := NewHost()
	h.Release()
	h.Release()
}

// TestHostReadSliceLeavesBitmap: a read-only view aliases the same bytes
// as Slice, under the same bounds, and leaves the dirty bitmap unchanged
// wherever it lands: one byte, across pages and bitmap words, all of RAM.
func TestHostReadSliceLeavesBitmap(t *testing.T) {
	h := NewHost()
	defer h.Release()
	if err := h.Write(3*PageSize, []byte{0x42}); err != nil {
		t.Fatal(err)
	}
	before := *h.dirty
	for _, r := range []struct {
		hpa uint32
		n   int
	}{
		{3 * PageSize, 1},
		{64*PageSize - 8, 16},
		{0, int(GuestRAMSize)},
		{GuestRAMSize - 1, 1},
	} {
		ro, err := h.ReadSlice(r.hpa, r.n)
		if err != nil {
			t.Fatalf("ReadSlice(%#x, %d): %v", r.hpa, r.n, err)
		}
		if *h.dirty != before {
			t.Fatalf("ReadSlice(%#x, %d) changed the dirty bitmap", r.hpa, r.n)
		}
		if len(ro) != r.n || &ro[0] != &h.ram[r.hpa] {
			t.Fatalf("ReadSlice(%#x, %d) is not a live view of RAM", r.hpa, r.n)
		}
	}
	if ro, _ := h.ReadSlice(3*PageSize, 1); ro[0] != 0x42 {
		t.Fatalf("ReadSlice reads %#x, want 0x42", ro[0])
	}
	if _, err := h.ReadSlice(GuestRAMSize-1, 2); err == nil {
		t.Error("ReadSlice crossing the end of RAM succeeded")
	}
	shadow := h.AllocPage(nil)
	if _, err := h.ReadSlice(shadow+1, PageSize); err == nil {
		t.Error("ReadSlice crossing a shadow page succeeded")
	}
	if *h.dirty != before {
		t.Fatal("failed ReadSlice calls changed the dirty bitmap")
	}
}
