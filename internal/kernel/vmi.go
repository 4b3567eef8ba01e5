package kernel

import (
	"fmt"

	"facechange/internal/mem"
)

// Guest-memory layout of introspectable kernel data. FACE-CHANGE (the
// hypervisor side) reads these structures with VMI exactly as the paper's
// prototype reads the guest's task structs and module list — it never
// calls into the kernel runtime for information that a real hypervisor
// could only get from guest memory.
const (
	// VMICurrentBase holds one 4-byte pointer per CPU to the current
	// task's task struct.
	VMICurrentBase = mem.KernelDataGVA
	// VMIRQCurrBase holds one 4-byte pointer per CPU to the task committed
	// by the scheduler pick (rq->curr) — valid from the pick until the
	// hardware switch, which is exactly when FACE-CHANGE's context-switch
	// trap reads it.
	VMIRQCurrBase = mem.KernelDataGVA + 0x80
	// VMITaskBase is the task-struct array (indexed by task slot).
	VMITaskBase = mem.KernelDataGVA + 0x100
	// VMITaskStride is the size of one task struct.
	VMITaskStride = 64
	// VMITaskPIDOff / VMITaskStateOff / VMITaskCommOff are field offsets
	// within a task struct.
	VMITaskPIDOff   = 0
	VMITaskStateOff = 4
	VMITaskCommOff  = 8
	// VMICommLen is the comm field length (TASK_COMM_LEN).
	VMICommLen = 16
	// VMIModCountAddr holds the number of visible modules.
	VMIModCountAddr = mem.KernelDataGVA + 0x4000
	// VMIModListBase is the module array: base, size, name per entry.
	VMIModListBase = mem.KernelDataGVA + 0x4010
	// VMIModStride is the size of one module entry.
	VMIModStride = 32
	// VMIModNameLen is the module name field length.
	VMIModNameLen = 24
)

func gpaOf(gva uint32) uint32 { return gva - mem.KernelBase }

// vmiTaskGVA is the guest address of the task struct in slot.
func vmiTaskGVA(slot int) uint32 { return VMITaskBase + uint32(slot)*VMITaskStride }

// vmiPerCPU is the guest physical address of cpuID's pointer in a per-CPU
// pointer array at gva.
func vmiPerCPU(gva uint32, cpuID int) uint32 { return gpaOf(gva) + uint32(cpuID)*4 }

func (k *Kernel) writeVMICurrent(cpuID int, t *Task) {
	if err := k.Host.WriteU32(vmiPerCPU(VMICurrentBase, cpuID), vmiTaskGVA(t.Slot)); err != nil {
		panic(fmt.Sprintf("kernel: vmi current: %v", err))
	}
}

func (k *Kernel) writeVMIRQCurr(cpuID int, t *Task) {
	if err := k.Host.WriteU32(vmiPerCPU(VMIRQCurrBase, cpuID), vmiTaskGVA(t.Slot)); err != nil {
		panic(fmt.Sprintf("kernel: vmi rq curr: %v", err))
	}
}

func (k *Kernel) writeVMITask(t *Task) {
	if err := k.writeTaskIdent(t.Slot, t.PID, t.Name); err != nil {
		panic(fmt.Sprintf("kernel: vmi task: %v", err))
	}
	if err := k.Host.WriteU32(gpaOf(vmiTaskGVA(t.Slot))+VMITaskStateOff, uint32(t.State)); err != nil {
		panic(fmt.Sprintf("kernel: vmi task: %v", err))
	}
}

// writeTaskIdent writes the pid and the comm, zero-padded (and cut) to
// VMICommLen, of the task struct in slot.
func (k *Kernel) writeTaskIdent(slot, pid int, comm string) error {
	base := gpaOf(vmiTaskGVA(slot))
	if err := k.Host.WriteU32(base+VMITaskPIDOff, uint32(pid)); err != nil {
		return err
	}
	var buf [VMICommLen]byte
	copy(buf[:], comm)
	return k.Host.Write(base+VMITaskCommOff, buf[:])
}

// Guest driver: the scheduler-pick and UD2 stack state a live guest
// presents at FACE-CHANGE's two traps, fabricated so a harness can fire
// those traps without running guest code. Both write only into slots
// above any the kernel hands out, which holds while the driving machine
// runs no guest tasks beyond its idle tasks: the kernel then never
// assigns task slot 40 or higher (maxTasks is far larger, so a machine
// that does run tasks could collide). Neither allocates nor charges
// cycles; firing the trap and charging the VM exit stay with the caller.

// PickTask fabricates a scheduler pick on cpuID: it writes pid and comm
// (zero-padded, cut to VMICommLen) into task slot 40+cpuID and points
// the CPU's rq->curr at it, the VMI state the context-switch trap reads.
func (k *Kernel) PickTask(cpuID, pid int, comm string) error {
	slot := 40 + cpuID
	if err := k.writeTaskIdent(slot, pid, comm); err != nil {
		return err
	}
	return k.Host.WriteU32(vmiPerCPU(VMIRQCurrBase, cpuID), vmiTaskGVA(slot))
}

// PlantFrames writes an EBP frame chain returning through rets, innermost
// first, on kernel stack slot 48+cpuID, and returns the EBP a UD2 exit
// should carry. Each frame holds the next frame's address and its return
// site; frames sit 0x40 apart from the stack base +0x100, and the last
// frame's next pointer is the 0 terminator. With no rets the chain is a
// lone terminator; the return-site word after it keeps whatever an
// earlier chain left there.
func (k *Kernel) PlantFrames(cpuID int, rets []uint32) (ebp uint32, err error) {
	ebp = mem.KernelStackGVA + uint32(48+cpuID)*mem.KernelStackSize + 0x100
	if len(rets) == 0 {
		return ebp, k.Host.WriteU32(gpaOf(ebp), 0)
	}
	frame := ebp
	for i, ret := range rets {
		next := frame + 0x40
		if i == len(rets)-1 {
			next = 0
		}
		if err := k.Host.WriteU32(gpaOf(frame), next); err != nil {
			return 0, err
		}
		if err := k.Host.WriteU32(gpaOf(frame)+4, ret); err != nil {
			return 0, err
		}
		frame = next
	}
	return ebp, nil
}

// writeVMIModules rewrites the guest-visible module list (hidden modules
// are omitted, which is precisely the rootkit blind spot the paper
// discusses).
func (k *Kernel) writeVMIModules() {
	var visible []*ModuleInfo
	for _, m := range k.modules {
		if m.Visible {
			visible = append(visible, m)
		}
	}
	if err := k.Host.WriteU32(gpaOf(VMIModCountAddr), uint32(len(visible))); err != nil {
		panic(fmt.Sprintf("kernel: vmi modules: %v", err))
	}
	for i, m := range visible {
		base := gpaOf(VMIModListBase) + uint32(i)*VMIModStride
		if err := k.Host.WriteU32(base, m.Base); err != nil {
			panic(fmt.Sprintf("kernel: vmi modules: %v", err))
		}
		if err := k.Host.WriteU32(base+4, m.Size); err != nil {
			panic(fmt.Sprintf("kernel: vmi modules: %v", err))
		}
		name := make([]byte, VMIModNameLen)
		copy(name, m.Name)
		if err := k.Host.Write(base+8, name); err != nil {
			panic(fmt.Sprintf("kernel: vmi modules: %v", err))
		}
	}
}
