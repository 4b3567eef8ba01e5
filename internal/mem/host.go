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
// Guest RAM is recycled through a process-wide free list, which NewHost
// takes from, clearing only the pages a dirty bitmap marks as touched.
// RAM comes back to the list in one of two ways: its owner calls Release,
// or the garbage collector finds that nothing references it any more.
// Every write to guest RAM goes through Slice or Write, which mark the
// pages they hand out or touch, so the bitmap covers live views written
// later too. Reads (Read, Accessor.Read) leave the bitmap alone.
type Host struct {
	ram      []byte       // guest RAM, or empty for an arena host
	dirty    *dirtyBitmap // pages of ram written since the last scrub; nil for an arena host
	slabs    [][]byte
	nextPage uint32   // next never-allocated HPA for AllocPage
	freelist []uint32 // freed pages available for reuse (LIFO)
}

// dirtyBitmap marks the pages of one guest's RAM written, or handed out
// writable, since the RAM was last cleared: one bit per page.
type dirtyBitmap [dirtyWords]uint64

// guestRAM is one guest's RAM on the free list, with its dirty bitmap.
type guestRAM struct {
	buf   *[GuestRAMSize]byte
	dirty *dirtyBitmap
}

// freeRAM holds guest RAM that no host uses, newest last. Profiling
// sessions and runtime guests boot a guest each, so without it every boot
// would zero 40 MB it mostly never touches. Unlike a sync.Pool, a garbage
// collection does not empty it. It has no cap: RAM is allocated only when
// the list is empty and is never dropped, so the list never holds more
// RAM than the process had allocated at its peak.
var freeRAM struct {
	sync.Mutex
	list []guestRAM
}

// putRAM pushes g onto the free list.
func putRAM(g guestRAM) {
	freeRAM.Lock()
	freeRAM.list = append(freeRAM.list, g)
	freeRAM.Unlock()
}

// mark marks the pages of [hpa, hpa+n), n > 0, as touched: one OR per
// bitmap word, not one step per page. A word already covering the range
// is only read, so rewrites of marked pages store nothing.
func (d *dirtyBitmap) mark(hpa uint32, n int) {
	first, last := hpa>>PageShift, (hpa+uint32(n)-1)>>PageShift
	for p := first; p <= last; p = (p | 63) + 1 { // p: first page in each word
		mask := ^uint64(0) << (p % 64)
		if last < p|63 {
			mask &= ^uint64(0) >> (63 - last%64)
		}
		if w := &d[p/64]; *w&mask != mask {
			*w |= mask
		}
	}
}

// scrub zeroes every dirty page, one memclr per run of adjacent dirty
// pages, and clears the bitmap.
func (g guestRAM) scrub() {
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
// newest RAM on the free list with its dirty pages cleared.
//
// NewHost arms a finalizer on the RAM array that puts it back on the free
// list once nothing references it. The finalizer sits on the array, not
// on the Host: a Slice of guest RAM can outlive its Host (an instruction
// fetch window, a VMI read), and the array becomes unreachable only when
// no Slice of it is left, so RAM that comes back this way never aliases a
// live view. The finalizer's closure holds only the dirty bitmap; holding
// the array would keep it reachable for ever.
func NewHost() *Host {
	var g guestRAM
	freeRAM.Lock()
	if n := len(freeRAM.list); n > 0 {
		g = freeRAM.list[n-1]
		freeRAM.list[n-1] = guestRAM{}
		freeRAM.list = freeRAM.list[:n-1]
	}
	freeRAM.Unlock()
	if g.buf == nil {
		g = guestRAM{buf: new([GuestRAMSize]byte), dirty: new(dirtyBitmap)}
	} else {
		g.scrub()
	}
	dirty := g.dirty
	runtime.SetFinalizer(g.buf, func(buf *[GuestRAMSize]byte) { putRAM(guestRAM{buf, dirty}) })
	return &Host{ram: g.buf[:], dirty: g.dirty, nextPage: GuestRAMSize}
}

// Release returns the host's guest RAM to the free list for the next
// NewHost at once, without waiting for a garbage collection to find it
// unreferenced. The caller must own the host outright: neither the host
// nor any Slice of it may be used afterwards (a later Slice of the former
// RAM fails, but a Slice taken before Release would alias the next
// guest's memory). Release on an arena host, or on a released one, does
// nothing.
func (h *Host) Release() {
	if h.dirty == nil {
		return
	}
	buf := (*[GuestRAMSize]byte)(h.ram)
	runtime.SetFinalizer(buf, nil)
	putRAM(guestRAM{buf, h.dirty})
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
			h.dirty.mark(hpa, n)
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
