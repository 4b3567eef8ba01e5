package hv

import (
	"errors"
	"fmt"

	"facechange/internal/isa"
	"facechange/internal/mem"
)

// ExecContext identifies what the guest is running for attribution of
// executed code: a process context (PID) or interrupt context.
type ExecContext struct {
	PID int
	IRQ bool
}

// GuestOS is the guest operating-system model driven by the interpreter.
// The kernel package implements it.
type GuestOS interface {
	// Int handles a software interrupt (int imm8) raised in guest code.
	Int(cpu *CPU, vector uint8) error
	// Iret handles an interrupt return.
	Iret(cpu *CPU) error
	// TaskSwitch performs the hardware context switch. The CPU's EIP
	// already points past the taskswitch instruction.
	TaskSwitch(cpu *CPU) error
	// ResolveIndirect resolves an indirect-call slot to a target address
	// using current guest state (syscall number, file kind, family, ...).
	ResolveIndirect(cpu *CPU, slot uint32) (uint32, error)
	// EvalCond evaluates the data-dependent branch generated at addr.
	EvalCond(cpu *CPU, addr uint32) (bool, error)
	// MaybeInterrupt gives the OS a chance to deliver a pending hardware
	// interrupt at a basic-block boundary. It reports whether one was
	// delivered.
	MaybeInterrupt(cpu *CPU) (bool, error)
	// Halt is invoked for the hlt instruction: the OS fast-forwards time
	// to the next hardware event.
	Halt(cpu *CPU) error
	// Context reports the current execution context for profiling.
	Context(cpu *CPU) ExecContext
}

// ExitHandler receives hypervisor-level VM exits. FACE-CHANGE's runtime
// implements it.
type ExitHandler interface {
	// OnAddrTrap fires when execution reaches a trapped address (before
	// the instruction executes).
	OnAddrTrap(m *Machine, cpu *CPU) error
	// OnInvalidOpcode fires when the guest executes UD2. If handled, the
	// instruction is retried (the handler is expected to have recovered
	// the code); otherwise the machine faults.
	OnInvalidOpcode(m *Machine, cpu *CPU) (handled bool, err error)
}

// BlockListener observes executed basic blocks: [start,end) is the
// half-open guest-virtual range of the block just executed.
type BlockListener func(ctx ExecContext, start, end uint32)

// Misparse records one silent misinterpretation: kernel-space execution of
// the 0x0B 0x0F byte pair, which on real hardware would corrupt execution
// rather than trap (Section III-B3's motivation for instant recovery).
type Misparse struct {
	EIP    uint32
	Cycles uint64
}

// ErrMachineFault is returned when the guest executes undecodable bytes.
var ErrMachineFault = errors.New("hv: machine fault")

// Machine is the virtual machine: host memory, vCPUs, the guest OS model
// and hypervisor instrumentation.
type Machine struct {
	Host *mem.Host
	CPUs []*CPU
	OS   GuestOS
	Cost CostConfig

	cycles    uint64
	insts     uint64
	trapAddrs map[uint32]bool
	handler   ExitHandler
	listeners []BlockListener

	misparses     []Misparse
	misparseCount uint64

	// exits counts VM exits by kind for reporting.
	AddrTrapExits uint64
	UD2Exits      uint64

	fetchBuf [fetchBytes]byte
	// blockEnd tracks the first byte past the last completed instruction
	// of the block being executed.
	blockEnd uint32
}

// NewMachine creates a machine with ncpus vCPUs.
func NewMachine(host *mem.Host, os GuestOS, ncpus int) *Machine {
	m := &Machine{
		Host:      host,
		OS:        os,
		Cost:      DefaultCosts(),
		trapAddrs: make(map[uint32]bool),
	}
	for i := 0; i < ncpus; i++ {
		m.CPUs = append(m.CPUs, NewCPU(i, host))
	}
	return m
}

// Cycles returns the simulated cycle counter.
func (m *Machine) Cycles() uint64 { return m.cycles }

// Instructions returns how many guest instructions have executed.
func (m *Machine) Instructions() uint64 { return m.insts }

// Charge adds simulated cycles (hypervisor handler work, bulk user-space
// computation).
func (m *Machine) Charge(n uint64) { m.cycles += n }

// TrapOnAddr arms an execution breakpoint at a guest virtual address.
func (m *Machine) TrapOnAddr(addr uint32) { m.trapAddrs[addr] = true }

// ClearTrap disarms a breakpoint.
func (m *Machine) ClearTrap(addr uint32) { delete(m.trapAddrs, addr) }

// SetExitHandler installs the hypervisor exit handler.
func (m *Machine) SetExitHandler(h ExitHandler) { m.handler = h }

// AddBlockListener registers a basic-block observer (the profiler).
func (m *Machine) AddBlockListener(l BlockListener) { m.listeners = append(m.listeners, l) }

// Misparses returns how many kernel-space 0B 0F misparses executed and up
// to 16 samples.
func (m *Machine) Misparses() (uint64, []Misparse) { return m.misparseCount, m.misparses }

// Run executes guest code until the cycle budget is exhausted, stop
// returns true (checked at interrupt-delivery boundaries), or an error
// occurs. Multiple vCPUs are interleaved in fixed quanta.
func (m *Machine) Run(budget uint64, stop func() bool) error {
	deadline := m.cycles + budget
	const quantum = 20000
	for m.cycles < deadline {
		for _, cpu := range m.CPUs {
			sliceEnd := m.cycles + quantum
			if sliceEnd > deadline {
				sliceEnd = deadline
			}
			for m.cycles < sliceEnd {
				if err := m.runBlock(cpu); err != nil {
					return err
				}
				delivered, err := m.OS.MaybeInterrupt(cpu)
				if err != nil {
					return err
				}
				if delivered && stop != nil && stop() {
					return nil
				}
			}
		}
		if stop != nil && stop() {
			return nil
		}
	}
	return nil
}

// runBlock executes one basic block on cpu: straight-line instructions up
// to and including one control-flow instruction.
func (m *Machine) runBlock(cpu *CPU) error {
	// Address traps fire at block entry (jump targets), mirroring
	// breakpoint-based interception of function entries.
	if m.handler != nil && m.trapAddrs[cpu.EIP] {
		m.AddrTrapExits++
		m.Charge(m.Cost.VMExit)
		if err := m.handler.OnAddrTrap(m, cpu); err != nil {
			return fmt.Errorf("addr trap at %#x: %w", cpu.EIP, err)
		}
	}
	blockStart := cpu.EIP
	for {
		in, live, err := m.fetch(cpu, cpu.EIP)
		if err != nil {
			return fmt.Errorf("fetch at %#x: %w", cpu.EIP, err)
		}
		if (in.Op == isa.OpNopL || in.Op == isa.OpNop) && live != nil {
			// Padding runs as one step. A pad instruction costs its cycle
			// and does nothing else, so the run covers every one that
			// starts where fetch would decode in place; the page's last
			// fetchBytes-1 bytes keep the copying fetch and its faults.
			n, size := isa.PadRun(live, len(live)-fetchBytes+1)
			m.cycles += uint64(n)
			m.insts += uint64(n)
			cpu.EIP += uint32(size)
			continue
		}
		if in.Op == isa.OpUD2 {
			m.emitBlock(cpu, blockStart, cpu.EIP+in.Len)
			handled := false
			if m.handler != nil {
				m.UD2Exits++
				m.Charge(m.Cost.VMExit)
				handled, err = m.handler.OnInvalidOpcode(m, cpu)
				if err != nil {
					return fmt.Errorf("ud2 at %#x: %w", cpu.EIP, err)
				}
			}
			if !handled {
				return fmt.Errorf("%w: ud2 at %#x with no recovery", ErrMachineFault, cpu.EIP)
			}
			return nil // retry the (now recovered) instruction next block
		}
		if in.Op == isa.OpInvalid {
			return fmt.Errorf("%w: undecodable byte at %#x", ErrMachineFault, cpu.EIP)
		}
		m.cycles++
		m.insts++
		done, err := m.exec(cpu, in)
		if err != nil {
			return fmt.Errorf("exec %s at %#x: %w", in, cpu.EIP, err)
		}
		if done {
			m.emitBlock(cpu, blockStart, 0)
			return nil
		}
	}
}

// emitBlock reports an executed basic block. endOverride of 0 means the
// recorded end was tracked in blockEnd during exec.
func (m *Machine) emitBlock(cpu *CPU, start, endOverride uint32) {
	end := m.blockEnd
	if endOverride != 0 {
		end = endOverride
	}
	if end <= start || len(m.listeners) == 0 {
		return
	}
	ctx := m.OS.Context(cpu)
	for _, l := range m.listeners {
		l(ctx, start, end)
	}
}

// fetch decodes the instruction at eip as cpu sees it. A window inside one
// page is decoded in place, and live is then the rest of that page; one
// that crosses a page is copied, and live is nil.
func (m *Machine) fetch(cpu *CPU, eip uint32) (in isa.Inst, live []byte, err error) {
	if live = cpu.fetchWindow(eip); live != nil {
		return isa.Decode(live), live, nil
	}
	acc := cpu.Mem()
	buf := m.fetchBuf[:]
	if err := acc.Read(eip, buf); err != nil {
		// Near the end of a mapped region a full 16-byte window may fault;
		// retry with a minimal window.
		short := m.fetchBuf[:2]
		if err2 := acc.Read(eip, short); err2 != nil {
			return isa.Inst{}, nil, err
		}
		buf = short
	}
	return isa.Decode(buf), nil, nil
}

// exec executes one decoded instruction. It returns done=true when the
// instruction ended the basic block.
func (m *Machine) exec(cpu *CPU, in isa.Inst) (bool, error) {
	next := cpu.EIP + in.Len
	m.blockEnd = next
	switch in.Op {
	case isa.OpPushEBP:
		if err := cpu.Push(cpu.EBP); err != nil {
			return false, err
		}
		cpu.EIP = next
	case isa.OpMovEBPESP:
		cpu.EBP = cpu.ESP
		cpu.EIP = next
	case isa.OpPopEBP:
		v, err := cpu.Pop()
		if err != nil {
			return false, err
		}
		cpu.EBP = v
		cpu.EIP = next
	case isa.OpLeave:
		cpu.ESP = cpu.EBP
		v, err := cpu.Pop()
		if err != nil {
			return false, err
		}
		cpu.EBP = v
		cpu.EIP = next
	case isa.OpRet:
		v, err := cpu.Pop()
		if err != nil {
			return false, err
		}
		cpu.EIP = v
		return true, nil
	case isa.OpCall:
		if err := cpu.Push(next); err != nil {
			return false, err
		}
		cpu.EIP = next + uint32(int32(in.Imm))
		return true, nil
	case isa.OpJmp, isa.OpJmpShort:
		cpu.EIP = next + uint32(int32(in.Imm))
		return true, nil
	case isa.OpJz, isa.OpJnz:
		condTrue, err := m.OS.EvalCond(cpu, cpu.EIP)
		if err != nil {
			return false, err
		}
		// Generated conditionals are "jz over body": the branch is taken
		// (body skipped) when the condition is false.
		taken := !condTrue
		if in.Op == isa.OpJnz {
			taken = condTrue
		}
		if taken {
			cpu.EIP = next + uint32(int32(in.Imm))
		} else {
			cpu.EIP = next
		}
		return true, nil
	case isa.OpNop, isa.OpNopL:
		cpu.EIP = next
	case isa.OpOrAcc:
		if cpu.EIP >= mem.KernelBase {
			m.misparseCount++
			if len(m.misparses) < 16 {
				m.misparses = append(m.misparses, Misparse{EIP: cpu.EIP, Cycles: m.cycles})
			}
		}
		cpu.EIP = next
	case isa.OpCallInd:
		m.Charge(m.Cost.CallInd)
		target, err := m.OS.ResolveIndirect(cpu, uint32(in.Imm))
		if err != nil {
			return false, err
		}
		if err := cpu.Push(next); err != nil {
			return false, err
		}
		cpu.EIP = target
		return true, nil
	case isa.OpInt:
		m.Charge(m.Cost.Int)
		cpu.EIP = next
		return true, m.OS.Int(cpu, uint8(in.Imm))
	case isa.OpIret:
		m.Charge(m.Cost.Iret)
		return true, m.OS.Iret(cpu)
	case isa.OpTaskSwitch:
		m.Charge(m.Cost.TaskSwitch)
		cpu.EIP = next
		return true, m.OS.TaskSwitch(cpu)
	case isa.OpHalt:
		cpu.EIP = next
		return true, m.OS.Halt(cpu)
	default:
		return false, fmt.Errorf("%w: unexecutable op %v", ErrMachineFault, in.Op)
	}
	return false, nil
}
