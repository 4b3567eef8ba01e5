package mem

import (
	"fmt"
	"sort"
)

// Region is one contiguous GVA→GPA mapping in a guest address space.
type Region struct {
	GVA  uint32
	GPA  uint32
	Size uint32
	Name string
}

// AddressSpace translates guest virtual to guest physical addresses for one
// process. Kernel regions are shared by all address spaces; user regions are
// per process, mirroring a per-process page table with a shared kernel half.
//
// An address space only grows: Map refuses overlaps and no region is ever
// removed or moved. A translation that succeeded once therefore holds for
// the address space's lifetime, which is what lets a vCPU cache
// TranslatePage results keyed by (address space, page).
type AddressSpace struct {
	regions []Region // sorted by GVA
}

// NewAddressSpace creates an address space containing the shared kernel
// mappings: the kernel direct map and the module area.
func NewAddressSpace() *AddressSpace {
	as := &AddressSpace{}
	as.Map(Region{GVA: KernelBase, GPA: 0, Size: ModuleGPA, Name: "lowmem"})
	as.Map(Region{GVA: ModuleGVA, GPA: ModuleGPA, Size: ModuleAreaSize, Name: "modules"})
	return as
}

// Map installs a mapping. Overlapping GVA ranges are a programming error
// and panic.
func (as *AddressSpace) Map(r Region) {
	i := sort.Search(len(as.regions), func(i int) bool { return as.regions[i].GVA >= r.GVA })
	if i > 0 {
		prev := as.regions[i-1]
		if prev.GVA+prev.Size > r.GVA {
			panic(fmt.Sprintf("mem: mapping %s@%#x overlaps %s@%#x", r.Name, r.GVA, prev.Name, prev.GVA))
		}
	}
	if i < len(as.regions) && r.GVA+r.Size > as.regions[i].GVA {
		panic(fmt.Sprintf("mem: mapping %s@%#x overlaps %s@%#x", r.Name, r.GVA, as.regions[i].Name, as.regions[i].GVA))
	}
	as.regions = append(as.regions, Region{})
	copy(as.regions[i+1:], as.regions[i:])
	as.regions[i] = r
}

// Translate maps gva to a guest physical address.
func (as *AddressSpace) Translate(gva uint32) (uint32, error) {
	i := sort.Search(len(as.regions), func(i int) bool { return as.regions[i].GVA > gva })
	if i == 0 {
		return 0, fmt.Errorf("mem: guest page fault at %#x (unmapped)", gva)
	}
	r := as.regions[i-1]
	if gva-r.GVA >= r.Size {
		return 0, fmt.Errorf("mem: guest page fault at %#x (unmapped)", gva)
	}
	return r.GPA + (gva - r.GVA), nil
}

// TranslatePage maps the page containing gva to the guest physical
// address of its first byte. It reports ok only when one region maps the
// whole page at a page-aligned offset, so every byte of the page
// translates to gpaPage plus its page offset and the page is contiguous in
// guest physical memory.
func (as *AddressSpace) TranslatePage(gva uint32) (gpaPage uint32, ok bool) {
	page := PageAlignDown(gva)
	i := sort.Search(len(as.regions), func(i int) bool { return as.regions[i].GVA > page })
	if i == 0 {
		return 0, false
	}
	r := as.regions[i-1]
	if page-r.GVA >= r.Size || r.Size-(page-r.GVA) < PageSize || (r.GPA-r.GVA)&(PageSize-1) != 0 {
		return 0, false
	}
	return r.GPA + (page - r.GVA), true
}

// Accessor bundles an address space, an EPT and host memory into guest
// virtual memory access that performs both translations page by page, so
// accesses spanning a view boundary behave like hardware.
type Accessor struct {
	AS   *AddressSpace
	EPT  *EPT
	Host *Host
}

// span returns the host bytes behind the leading part of [gva, gva+n)
// that lies in gva's page: both translations are done once per page, and
// the caller copies straight to or from the result.
func (a Accessor) span(gva uint32, n int, writable bool) ([]byte, error) {
	if ln := int(PageSize - gva&(PageSize-1)); n > ln {
		n = ln
	}
	gpa, err := a.AS.Translate(gva)
	if err != nil {
		return nil, err
	}
	return a.Host.slice(a.EPT.Translate(gpa), n, writable)
}

// Read fills buf from guest virtual memory at gva.
func (a Accessor) Read(gva uint32, buf []byte) error {
	for len(buf) > 0 {
		src, err := a.span(gva, len(buf), false)
		if err != nil {
			return err
		}
		n := copy(buf, src)
		buf, gva = buf[n:], gva+uint32(n)
	}
	return nil
}

// Write stores buf to guest virtual memory at gva.
func (a Accessor) Write(gva uint32, buf []byte) error {
	for len(buf) > 0 {
		dst, err := a.span(gva, len(buf), true)
		if err != nil {
			return err
		}
		n := copy(dst, buf)
		buf, gva = buf[n:], gva+uint32(n)
	}
	return nil
}

// ReadU32 reads a little-endian 32-bit word at gva.
func (a Accessor) ReadU32(gva uint32) (uint32, error) {
	var b [4]byte
	if err := a.Read(gva, b[:]); err != nil {
		return 0, err
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
}

// WriteU32 writes a little-endian 32-bit word at gva.
func (a Accessor) WriteU32(gva uint32, v uint32) error {
	b := [4]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
	return a.Write(gva, b[:])
}
