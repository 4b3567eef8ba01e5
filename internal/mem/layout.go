// Package mem provides the simulated machine's memory system: host physical
// memory, guest physical memory, guest virtual address spaces, and the
// two-level Extended Page Table (EPT) that FACE-CHANGE manipulates to switch
// kernel views.
//
// Address terminology follows the paper (Section III-B1): the guest
// maintains page tables translating guest virtual addresses (GVA) to guest
// physical addresses (GPA); the hypervisor's EPT transparently maps GPA to
// host physical addresses (HPA). Kernel views are alternative GPA→HPA
// mappings for the guest's kernel code pages.
package mem

// PageSize is the architectural page size in bytes.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// Guest virtual address-space layout (32-bit guest, 3G/1G split, matching
// the i386 Ubuntu 10.04 guest used in the paper's evaluation).
const (
	// UserCodeBase is where a process image is loaded (classic ELF base).
	UserCodeBase uint32 = 0x08048000
	// UserStackTop is the top of a process user stack.
	UserStackTop uint32 = 0xBF800000
	// KernelBase is the start of the kernel direct map: GVA = GPA + KernelBase.
	KernelBase uint32 = 0xC0000000
	// KernelTextGVA is the load address of the base kernel's code section.
	KernelTextGVA uint32 = 0xC0100000
	// KernelDataGVA holds introspectable kernel data: the current-task
	// pointer, task structs, the module list and function-pointer tables.
	KernelDataGVA uint32 = 0xC0800000
	// KernelStackGVA is the base of the per-task kernel stack area.
	KernelStackGVA uint32 = 0xC0900000
	// KernelStackSize is the size of one task's kernel stack (two pages,
	// like THREAD_SIZE on i386).
	KernelStackSize uint32 = 2 * PageSize
	// ModuleGVA is the start of the module/vmalloc area where loadable
	// kernel module code lives (the paper's examples show 0xf8xxxxxx).
	ModuleGVA uint32 = 0xF8000000
	// ModuleAreaSize bounds the module area.
	ModuleAreaSize uint32 = 16 << 20
)

// Guest physical layout.
const (
	// KernelTextGPA is the guest physical address of the kernel text
	// (direct-mapped: KernelTextGVA - KernelBase).
	KernelTextGPA uint32 = 0x00100000
	// KernelTextMax bounds the base kernel code section (4 MB is far more
	// than the generated kernel needs; it keeps the text inside a single
	// EPT page-directory entry only when small, so we pick 4 MB to exercise
	// multi-PD switching).
	KernelTextMax uint32 = 4 << 20
	// KernelDataGPA is the direct-mapped data region.
	KernelDataGPA uint32 = KernelDataGVA - KernelBase
	// KernelStackGPA is the direct-mapped kernel stack region.
	KernelStackGPA uint32 = KernelStackGVA - KernelBase
	// ModuleGPA is where module-area pages live in guest physical memory.
	ModuleGPA uint32 = 0x01000000
	// UserGPA is the start of the pool from which user pages are allocated.
	UserGPA uint32 = 0x01800000
	// GuestRAMSize is the total guest physical memory size.
	GuestRAMSize uint32 = 0x02800000 // 40 MB
)

// PageAlignDown rounds addr down to a page boundary.
func PageAlignDown(addr uint32) uint32 { return addr &^ (PageSize - 1) }

// PageAlignUp rounds addr up to a page boundary.
func PageAlignUp(addr uint32) uint32 {
	return (addr + PageSize - 1) &^ (PageSize - 1)
}

// IsModuleGVA reports whether a guest virtual address lies in the module
// (vmalloc) area.
func IsModuleGVA(gva uint32) bool {
	return gva >= ModuleGVA && gva < ModuleGVA+ModuleAreaSize
}
