package mem

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
)

// slabPages is the number of shadow pages in one host slab.
const slabPages = 64

const slabBytes = slabPages * PageSize

// dirtyWords is the size of a guest RAM dirty bitmap: one bit per page.
const dirtyWords = GuestRAMSize / PageSize / 64

// Host is the host physical memory of the simulated machine. The guest's
// RAM occupies HPA [0, GuestRAMSize) as one contiguous array, so the
// identity EPT mapping is trivially correct and a Slice of guest memory
// may span many pages. Shadow pages for kernel views live above it, in
// fixed-size slabs added on demand.
//
// Host memory never moves: guest RAM is allocated once and a slab, once
// added, is never copied or released. A Slice therefore stays a live view
// of the same bytes for the host's lifetime — across any number of
// AllocPage calls. An access above guest RAM is bounded to one shadow
// page (consecutive AllocPage results are not contiguous in general).
//
// Guest RAM is recycled: Release hands it to a process-wide free list, and
// NewHost takes it back, clearing only the pages a dirty bitmap marks as
// touched. Every write to guest RAM goes through Slice or Write, which
// mark the pages they hand out or touch, so the bitmap covers live views
// written later too. Reads (Read, Accessor.Read) leave the bitmap alone.
type Host struct {
	guest    *guestRAM // nil for an arena host
	ram      []byte    // guest.buf, or empty
	slabs    [][]byte
	nextPage uint32   // next never-allocated HPA for AllocPage
	freelist []uint32 // freed pages available for reuse (LIFO)
}

// guestRAM is one guest's RAM and a bitmap of the pages written, or
// handed out writable, since it was last cleared.
type guestRAM struct {
	buf   []byte
	dirty [dirtyWords]uint64
}

// freeRAM holds released guest RAM, newest last. Profiling sessions boot
// a guest each, so without it every session would zero 40 MB it mostly
// never touches. Unlike a sync.Pool, a garbage collection does not empty
// it. It holds at most GOMAXPROCS entries, one per default worker of a
// facechange.Pool; RAM released past that cap is left to the GC.
var freeRAM struct {
	sync.Mutex
	list []*guestRAM
}

// markDirty marks the pages of [hpa, hpa+n), n > 0, as touched: one OR
// per bitmap word, not one step per page. A word already covering the
// range is only read, so rewrites of marked pages store nothing.
func (g *guestRAM) markDirty(hpa uint32, n int) {
	first, last := hpa>>PageShift, (hpa+uint32(n)-1)>>PageShift
	for p := first; p <= last; p = (p | 63) + 1 { // p: first page in each word
		mask := ^uint64(0) << (p % 64)
		if last < p|63 {
			mask &= ^uint64(0) >> (63 - last%64)
		}
		if w := &g.dirty[p/64]; *w&mask != mask {
			*w |= mask
		}
	}
}

// scrub zeroes every dirty page, one memclr per run of adjacent dirty
// pages, and clears the bitmap.
func (g *guestRAM) scrub() {
	for w, word := range g.dirty {
		for word != 0 {
			lo := bits.TrailingZeros64(word)
			run := bits.TrailingZeros64(^(word >> lo))
			page := w*64 + lo
			clear(g.buf[page*PageSize : (page+run)*PageSize])
			word &^= (uint64(1)<<run - 1) << lo
		}
		g.dirty[w] = 0
	}
}

// NewHost creates host memory backing a guest with GuestRAMSize of RAM and
// room for shadow pages. The RAM reads all zero: it is either fresh or the
// most recently released host's RAM with its dirty pages cleared.
func NewHost() *Host {
	var g *guestRAM
	freeRAM.Lock()
	if n := len(freeRAM.list); n > 0 {
		g = freeRAM.list[n-1]
		freeRAM.list[n-1] = nil
		freeRAM.list = freeRAM.list[:n-1]
	}
	freeRAM.Unlock()
	if g == nil {
		g = &guestRAM{buf: make([]byte, GuestRAMSize)}
	} else {
		g.scrub()
	}
	return &Host{guest: g, ram: g.buf, nextPage: GuestRAMSize}
}

// Release returns the host's guest RAM to the free list for the next
// NewHost, or leaves it to the GC if the list is full. The caller must
// own the host outright: neither the host nor any Slice of it may be used
// afterwards (a later Slice of the former RAM fails, but a Slice taken
// before Release would alias the next guest's memory).
// Release on an arena host, or on a released one, does nothing.
func (h *Host) Release() {
	if h.guest == nil {
		return
	}
	freeRAM.Lock()
	if len(freeRAM.list) < runtime.GOMAXPROCS(0) {
		freeRAM.list = append(freeRAM.list, h.guest)
	}
	freeRAM.Unlock()
	*h = Host{}
}

// NewArenaHost creates a host with no guest RAM reservation: a pure page
// arena for callers that only AllocPage/FreePage (chunk stores, page
// caches detached from any guest). Its pages start at HPA 0 and slabs are
// added on demand, so a hundred arenas cost what their live pages cost —
// not a hundred guests' worth of empty RAM.
func NewArenaHost() *Host {
	return &Host{}
}

// AllocPage allocates one host page outside guest RAM, fills it with
// content, and returns its HPA. content must be exactly one page, or
// empty (nil) for a zero page; any other length panics. A page is defined
// when it is allocated, not when it is freed: a recycled page holds its
// previous owner's bytes until AllocPage overwrites all of them, so a
// caller that passes its bytes in pays one copy and no clear. Freed pages
// are reused before the bump pointer advances, so long view load/unload
// churn keeps host memory bounded by the peak live set — and a
// double-free becomes an observable aliasing bug instead of a silent leak.
func (h *Host) AllocPage(content []byte) uint32 {
	if len(content) != 0 && len(content) != PageSize {
		panic(fmt.Sprintf("mem: alloc page of %d bytes, want %d or 0", len(content), PageSize))
	}
	var hpa uint32
	if n := len(h.freelist); n > 0 {
		hpa = h.freelist[n-1]
		h.freelist = h.freelist[:n-1]
	} else {
		hpa = h.nextPage
		if (hpa-uint32(len(h.ram)))%slabBytes == 0 {
			h.slabs = append(h.slabs, make([]byte, slabBytes))
		}
		h.nextPage += PageSize
	}
	page, _ := h.Slice(hpa, PageSize) // in bounds: an allocated shadow page
	if len(content) == 0 {
		clear(page)
	} else {
		copy(page, content)
	}
	return hpa
}

// FreePage releases a previously allocated page and queues it for reuse
// by AllocPage. The page keeps its bytes: no EPT maps it anymore (a view
// unload reverts every vCPU first), and its next owner overwrites all of
// it. Freeing anything but a shadow page panics.
func (h *Host) FreePage(hpa uint32) {
	if _, err := h.ReadSlice(hpa, PageSize); err != nil || hpa < uint32(len(h.ram)) {
		panic(fmt.Sprintf("mem: free of %#x, not a shadow page", hpa))
	}
	h.freelist = append(h.freelist, hpa)
}

// LivePages returns the number of allocated-and-not-freed shadow pages.
func (h *Host) LivePages() int {
	return int((h.nextPage-uint32(len(h.ram)))/PageSize) - len(h.freelist)
}

// size returns the host memory reserved so far in bytes: guest RAM plus
// every slab.
func (h *Host) size() int { return len(h.ram) + len(h.slabs)*slabBytes }

// Slice returns a live view of host memory [hpa, hpa+n), which must lie
// inside guest RAM or inside one allocated shadow page. Host memory never
// moves, so the view stays valid across AllocPage; a view of a shadow
// page sees whatever the page holds next: the same bytes after FreePage,
// then what its next owner's AllocPage puts in. A view of guest RAM marks
// its pages dirty, since the caller may write through it at any time.
func (h *Host) Slice(hpa uint32, n int) ([]byte, error) { return h.slice(hpa, n, true) }

// ReadSlice is Slice for a caller that only reads: the same live view of
// host memory, under the same bounds, but it leaves the dirty bitmap
// alone, since a read cannot make a page nonzero. Writing through it is a
// bug: a page written only that way would come back unscrubbed from the
// free list.
func (h *Host) ReadSlice(hpa uint32, n int) ([]byte, error) { return h.slice(hpa, n, false) }

// slice is Slice for callers that say whether they will write: a read
// cannot make a page nonzero, so only a writable view marks guest RAM.
func (h *Host) slice(hpa uint32, n int, writable bool) ([]byte, error) {
	if ram := uint32(len(h.ram)); hpa < ram {
		if int(hpa)+n > len(h.ram) {
			return nil, fmt.Errorf("mem: host access [%#x,%#x) crosses the end of guest RAM %#x", hpa, int(hpa)+n, ram)
		}
		if writable && n > 0 {
			h.guest.markDirty(hpa, n)
		}
		return h.ram[hpa : int(hpa)+n], nil
	}
	off := hpa - uint32(len(h.ram))
	if hpa >= h.nextPage || int(off%PageSize)+n > PageSize {
		return nil, fmt.Errorf("mem: host access [%#x,%#x) outside one allocated shadow page", hpa, int(hpa)+n)
	}
	slab, so := h.slabs[off/slabBytes], off%slabBytes
	return slab[so : int(so)+n], nil
}

// Read copies host memory at hpa into buf.
func (h *Host) Read(hpa uint32, buf []byte) error {
	src, err := h.slice(hpa, len(buf), false)
	copy(buf, src) // src is nil on error
	return err
}

// Write copies buf into host memory at hpa.
func (h *Host) Write(hpa uint32, buf []byte) error {
	dst, err := h.slice(hpa, len(buf), true)
	copy(dst, buf) // dst is nil on error
	return err
}

// ReadU32 reads a little-endian 32-bit word at hpa.
func (h *Host) ReadU32(hpa uint32) (uint32, error) {
	var b [4]byte
	if err := h.Read(hpa, b[:]); err != nil {
		return 0, err
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
}

// WriteU32 writes a little-endian 32-bit word at hpa.
func (h *Host) WriteU32(hpa uint32, v uint32) error {
	b := [4]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
	return h.Write(hpa, b[:])
}
