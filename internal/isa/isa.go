// Package isa defines the compact 32-bit, x86-flavoured instruction set
// executed by the simulated guest machine.
//
// The encoding deliberately shares the byte patterns that FACE-CHANGE's
// mechanisms depend on:
//
//   - UD2 is "0x0F 0x0B" and raises an invalid-opcode trap when executed,
//     exactly like x86. Kernel-view pages are filled with repeated UD2.
//   - The byte pair "0x0B 0x0F" decodes as a harmless two-byte ALU
//     instruction (OrAcc) that does NOT trap. Entering a UD2-filled region
//     at an odd offset therefore misparses silently, which is why the paper
//     needs "instant recovery" for odd return addresses (Section III-B3).
//   - The function prologue is "push ebp; mov ebp, esp" = "0x55 0x89 0xE5",
//     the signature the view loader scans for to find function boundaries.
//
// All immediate operands are little-endian. The ISA is register-light on
// purpose: guest semantics that do not affect FACE-CHANGE (arithmetic,
// addressing modes) are abstracted, while control flow, the stack layout
// (CALL pushes a return address; the prologue links EBP frames) and byte
// encodings are modelled faithfully so that stack backtraces, prologue
// scans and trap behaviour work on real bytes.
package isa

import "fmt"

// Op identifies an instruction operation.
type Op uint8

// Operations understood by the simulated CPU.
const (
	// OpInvalid marks a byte sequence that cannot be decoded at all.
	OpInvalid Op = iota
	// OpPushEBP is "push ebp" (0x55), the first prologue byte.
	OpPushEBP
	// OpMovEBPESP is "mov ebp, esp" (0x89 0xE5), the second prologue word.
	OpMovEBPESP
	// OpPopEBP is "pop ebp" (0x5D).
	OpPopEBP
	// OpLeave is "leave" (0xC9): mov esp, ebp; pop ebp.
	OpLeave
	// OpRet is "ret" (0xC3).
	OpRet
	// OpCall is "call rel32" (0xE8 imm32).
	OpCall
	// OpJmp is "jmp rel32" (0xE9 imm32).
	OpJmp
	// OpJmpShort is "jmp rel8" (0xEB imm8).
	OpJmpShort
	// OpJz is "jz rel8" (0x74 imm8). The branch outcome is supplied by the
	// machine's workload oracle.
	OpJz
	// OpJnz is "jnz rel8" (0x75 imm8).
	OpJnz
	// OpNop is "nop" (0x90).
	OpNop
	// OpNopL is a wide 7-byte no-op (0x0F 0x1F imm32 + 1 pad byte),
	// mirroring the multi-byte NOPs compilers emit for padding. Generated
	// kernel functions use it so that code size and interpretation cost
	// stay decoupled.
	OpNopL
	// OpUD2 is "ud2" (0x0F 0x0B): raises an invalid-opcode trap.
	OpUD2
	// OpOrAcc is "or al, imm8" (0x0B imm8): the misparse instruction. The
	// byte pair 0B 0F — a UD2 fill entered at an odd offset — decodes as
	// OrAcc with operand 0x0F and executes silently.
	OpOrAcc
	// OpInt is "int imm8" (0xCD imm8). Int 0x80 enters the kernel.
	OpInt
	// OpIret is "iret" (0xCF): returns from interrupt/syscall to user mode.
	OpIret
	// OpCallInd is an indirect call through a kernel function-pointer table
	// slot (0xFF imm32, modelling "call *table(,%eax,4)"). The machine
	// resolves the slot to a concrete target at execution time; rootkits
	// hijack control flow by hooking slots.
	OpCallInd
	// OpTaskSwitch (0xF5) is the hardware context-switch point inside the
	// kernel's context_switch function: the CPU swaps register state with
	// the next task's saved state.
	OpTaskSwitch
	// OpHalt (0xF4) idles the CPU until the next interrupt.
	OpHalt
)

// Encoding bytes shared with x86 where FACE-CHANGE depends on them.
const (
	BytePushEBP   = 0x55
	ByteMovPrefix = 0x89
	ByteMovEBPESP = 0xE5
	BytePopEBP    = 0x5D
	ByteLeave     = 0xC9
	ByteRet       = 0xC3
	ByteCall      = 0xE8
	ByteJmp       = 0xE9
	ByteJmpShort  = 0xEB
	ByteJz        = 0x74
	ByteJnz       = 0x75
	ByteNop       = 0x90
	Byte0F        = 0x0F
	ByteUD2Second = 0x0B
	ByteNopLSec   = 0x1F
	ByteOrAcc     = 0x0B
	ByteInt       = 0xCD
	ByteIret      = 0xCF
	ByteCallInd   = 0xFF
	ByteTaskSw    = 0xF5
	ByteHalt      = 0xF4
)

// Prologue is the byte signature of a function entry: push ebp; mov ebp, esp.
// The kernel-view loader scans for it to expand profiled basic blocks to
// whole functions (Section III-B1 of the paper).
var Prologue = [3]byte{BytePushEBP, ByteMovPrefix, ByteMovEBPESP}

// UD2 is the two-byte invalid instruction used to fill excluded kernel code.
var UD2 = [2]byte{Byte0F, ByteUD2Second}

// IntSyscall is the interrupt vector used for system calls (int 0x80).
const IntSyscall = 0x80

// Inst is one decoded instruction.
type Inst struct {
	Op  Op
	Len uint32 // encoded length in bytes
	Imm int64  // immediate operand, sign-extended where relative
}

// String returns a short mnemonic for the instruction.
func (i Inst) String() string {
	switch i.Op {
	case OpPushEBP:
		return "push ebp"
	case OpMovEBPESP:
		return "mov ebp, esp"
	case OpPopEBP:
		return "pop ebp"
	case OpLeave:
		return "leave"
	case OpRet:
		return "ret"
	case OpCall:
		return fmt.Sprintf("call %+d", i.Imm)
	case OpJmp:
		return fmt.Sprintf("jmp %+d", i.Imm)
	case OpJmpShort:
		return fmt.Sprintf("jmp short %+d", i.Imm)
	case OpJz:
		return fmt.Sprintf("jz %+d", i.Imm)
	case OpJnz:
		return fmt.Sprintf("jnz %+d", i.Imm)
	case OpNop:
		return "nop"
	case OpNopL:
		return "nopl"
	case OpUD2:
		return "ud2"
	case OpOrAcc:
		return fmt.Sprintf("or al, 0x%02x", byte(i.Imm))
	case OpInt:
		return fmt.Sprintf("int 0x%02x", byte(i.Imm))
	case OpIret:
		return "iret"
	case OpCallInd:
		return fmt.Sprintf("call *slot(%d)", i.Imm)
	case OpTaskSwitch:
		return "taskswitch"
	case OpHalt:
		return "hlt"
	default:
		return "(invalid)"
	}
}

// Decode decodes the instruction starting at code[0]. It returns an
// OpInvalid instruction of length 1 when the bytes do not form a valid
// instruction (distinct from UD2, which is a *defined* trapping
// instruction).
func Decode(code []byte) Inst {
	if len(code) == 0 {
		return Inst{Op: OpInvalid, Len: 1}
	}
	b := code[0]
	switch b {
	case BytePushEBP:
		return Inst{Op: OpPushEBP, Len: 1}
	case ByteMovPrefix:
		if len(code) >= 2 && code[1] == ByteMovEBPESP {
			return Inst{Op: OpMovEBPESP, Len: 2}
		}
		return Inst{Op: OpInvalid, Len: 1}
	case BytePopEBP:
		return Inst{Op: OpPopEBP, Len: 1}
	case ByteLeave:
		return Inst{Op: OpLeave, Len: 1}
	case ByteRet:
		return Inst{Op: OpRet, Len: 1}
	case ByteCall, ByteJmp:
		if len(code) < 5 {
			return Inst{Op: OpInvalid, Len: 1}
		}
		op := OpCall
		if b == ByteJmp {
			op = OpJmp
		}
		return Inst{Op: op, Len: 5, Imm: int64(int32(le32(code[1:])))}
	case ByteJmpShort:
		if len(code) < 2 {
			return Inst{Op: OpInvalid, Len: 1}
		}
		return Inst{Op: OpJmpShort, Len: 2, Imm: int64(int8(code[1]))}
	case ByteJz, ByteJnz:
		if len(code) < 2 {
			return Inst{Op: OpInvalid, Len: 1}
		}
		op := OpJz
		if b == ByteJnz {
			op = OpJnz
		}
		return Inst{Op: op, Len: 2, Imm: int64(int8(code[1]))}
	case ByteNop:
		return Inst{Op: OpNop, Len: 1}
	case Byte0F:
		if len(code) >= 2 {
			switch code[1] {
			case ByteUD2Second:
				return Inst{Op: OpUD2, Len: 2}
			case ByteNopLSec:
				if len(code) >= 7 {
					return Inst{Op: OpNopL, Len: 7}
				}
			}
		}
		return Inst{Op: OpInvalid, Len: 1}
	case ByteOrAcc:
		if len(code) < 2 {
			return Inst{Op: OpInvalid, Len: 1}
		}
		return Inst{Op: OpOrAcc, Len: 2, Imm: int64(code[1])}
	case ByteInt:
		if len(code) < 2 {
			return Inst{Op: OpInvalid, Len: 1}
		}
		return Inst{Op: OpInt, Len: 2, Imm: int64(code[1])}
	case ByteIret:
		return Inst{Op: OpIret, Len: 1}
	case ByteCallInd:
		if len(code) < 5 {
			return Inst{Op: OpInvalid, Len: 1}
		}
		return Inst{Op: OpCallInd, Len: 5, Imm: int64(le32(code[1:]))}
	case ByteTaskSw:
		return Inst{Op: OpTaskSwitch, Len: 1}
	case ByteHalt:
		return Inst{Op: OpHalt, Len: 1}
	default:
		return Inst{Op: OpInvalid, Len: 1}
	}
}

// PadRun counts the run of padding instructions (the OpNopL and OpNop that
// Pad emits) at the start of code, taking only instructions that begin
// before offset limit. It returns how many there are and their total
// length, exactly what repeated Decode calls would step through, so an
// interpreter may execute the whole run as one step.
func PadRun(code []byte, limit int) (n, size int) {
	limit = min(limit, len(code))
	for size < limit {
		switch {
		case code[size] == ByteNop:
			size++
		case code[size] == Byte0F && len(code)-size >= 7 && code[size+1] == ByteNopLSec:
			size += 7
		default:
			return n, size
		}
		n++
	}
	return n, size
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putLE32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

// HasPrologueAt reports whether code contains the function prologue
// signature at offset off.
func HasPrologueAt(code []byte, off int) bool {
	return off >= 0 && off+3 <= len(code) &&
		code[off] == Prologue[0] && code[off+1] == Prologue[1] && code[off+2] == Prologue[2]
}
