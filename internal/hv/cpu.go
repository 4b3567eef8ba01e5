// Package hv implements the virtual machine monitor side of the simulated
// machine: virtual CPUs, the instruction interpreter, VM exits (address
// traps and invalid-opcode traps) and a calibrated cycle-cost model.
//
// FACE-CHANGE's runtime component hooks this layer the way the paper's
// prototype hooks KVM: it registers an ExitHandler, receives control on
// context-switch address traps and UD2 invalid-opcode exits, and
// manipulates each vCPU's EPT.
package hv

import (
	"fmt"

	"facechange/internal/mem"
)

// Mode is the CPU privilege mode.
type Mode uint8

// Privilege modes.
const (
	ModeUser Mode = iota
	ModeKernel
)

// CPU is one virtual CPU.
type CPU struct {
	ID   int
	EIP  uint32
	ESP  uint32
	EBP  uint32
	EAX  uint32
	Mode Mode

	// EPT is this vCPU's extended page table ("each vCPU has its own EPT
	// maintained by the hypervisor", Section V-C). Besides the per-entry
	// rewrite interface it carries the vCPU's EPTP slot: a precomputed
	// shared root installed with EPT.SetRoot shadows the private structure
	// entirely, which is how snapshot view switching retargets a vCPU with
	// one pointer write.
	EPT *mem.EPT

	// as is the current guest address space (switched with the current
	// task's mm).
	as   *mem.AddressSpace
	host *mem.Host

	// hints caches instruction-fetch page translations, direct mapped by
	// GVA page. See fetchWindow.
	hints [fetchHints]fetchHint
}

// NewCPU creates a vCPU with its own identity-mapped EPT.
func NewCPU(id int, host *mem.Host) *CPU {
	return &CPU{ID: id, EPT: mem.NewEPT(), host: host}
}

// SetAddressSpace switches the CPU's active guest address space.
func (c *CPU) SetAddressSpace(as *mem.AddressSpace) { c.as = as }

// Mem returns an accessor for guest virtual memory as seen by this CPU
// right now (through its address space and EPT).
func (c *CPU) Mem() mem.Accessor {
	return mem.Accessor{AS: c.as, EPT: c.EPT, Host: c.host}
}

// fetchBytes is the window an instruction is decoded from: the maximum
// encoded instruction length.
const fetchBytes = 16

// fetchHints is the number of page-translation hints per vCPU, indexed by
// GVA page modulo the count.
const fetchHints = 64

// fetchHint is one cached GVA page → GPA page translation of an address
// space, as AddressSpace.TranslatePage reported it.
type fetchHint struct {
	as   *mem.AddressSpace
	page uint32
	gpa  uint32
}

// fetchWindow returns the bytes from eip to the end of its page as a
// read-only view of live host memory, or nil when eip's fetchBytes window
// crosses the page or any translation fails; the caller then takes the
// copying path, which reproduces its errors. Fetching never marks guest
// RAM dirty.
//
// An address space only grows, so a page translation once cached stays
// right for as long as the hint pins its address space. The EPT is walked
// on every fetch: view switches install other roots and copy-on-write
// recovery retargets page tables in place, so its result is not cached.
func (c *CPU) fetchWindow(eip uint32) []byte {
	off := eip & (mem.PageSize - 1)
	if off > mem.PageSize-fetchBytes || c.as == nil {
		return nil
	}
	page := mem.PageAlignDown(eip)
	h := &c.hints[(eip>>mem.PageShift)%fetchHints]
	if h.as != c.as || h.page != page {
		gpa, ok := c.as.TranslatePage(page)
		if !ok {
			return nil
		}
		*h = fetchHint{as: c.as, page: page, gpa: gpa}
	}
	win, err := c.host.ReadSlice(c.EPT.Translate(h.gpa|off), int(mem.PageSize-off))
	if err != nil {
		return nil
	}
	return win
}

// Push pushes a 32-bit value onto the stack.
func (c *CPU) Push(v uint32) error {
	c.ESP -= 4
	return c.Mem().WriteU32(c.ESP, v)
}

// Pop pops a 32-bit value from the stack.
func (c *CPU) Pop() (uint32, error) {
	v, err := c.Mem().ReadU32(c.ESP)
	if err != nil {
		return 0, err
	}
	c.ESP += 4
	return v, nil
}

// Regs is a snapshot of schedulable CPU state, saved and restored across
// task switches.
type Regs struct {
	EIP, ESP, EBP, EAX uint32
	Mode               Mode
}

// SaveRegs captures the CPU's schedulable state.
func (c *CPU) SaveRegs() Regs {
	return Regs{EIP: c.EIP, ESP: c.ESP, EBP: c.EBP, EAX: c.EAX, Mode: c.Mode}
}

// LoadRegs restores previously saved state.
func (c *CPU) LoadRegs(r Regs) {
	c.EIP, c.ESP, c.EBP, c.EAX, c.Mode = r.EIP, r.ESP, r.EBP, r.EAX, r.Mode
}

func (c *CPU) String() string {
	return fmt.Sprintf("cpu%d eip=%#x esp=%#x ebp=%#x mode=%d", c.ID, c.EIP, c.ESP, c.EBP, c.Mode)
}
