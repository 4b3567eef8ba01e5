package isa

import (
	"fmt"
	"slices"
)

// Asm assembles a single function body into bytes. Relative call/jump
// targets may be symbolic; they are resolved by the caller via Fixups after
// final layout, which mirrors how a linker resolves relocations.
type Asm struct {
	buf    []byte
	fixups []Fixup
}

// Fixup records a 4-byte relative relocation: the imm32 at Offset must be
// set to (target - (base+Offset+4)) once the address of symbol Target is
// known. base is the function's final load address.
type Fixup struct {
	Offset int    // offset of the imm32 within the function body
	Target string // symbol name of the call/jmp target
}

// Bytes returns the assembled bytes. The returned slice aliases the
// assembler's buffer.
func (a *Asm) Bytes() []byte { return a.buf }

// Fixups returns the pending relocations in emission order.
func (a *Asm) Fixups() []Fixup { return a.fixups }

// Len returns the current body length in bytes.
func (a *Asm) Len() int { return len(a.buf) }

// Prologue emits push ebp; mov ebp, esp.
func (a *Asm) Prologue() *Asm {
	a.buf = append(a.buf, Prologue[0], Prologue[1], Prologue[2])
	return a
}

// Epilogue emits leave; ret.
func (a *Asm) Epilogue() *Asm {
	a.buf = append(a.buf, ByteLeave, ByteRet)
	return a
}

// Call emits a relative call to the named symbol.
func (a *Asm) Call(sym string) *Asm {
	a.buf = append(a.buf, ByteCall, 0, 0, 0, 0)
	a.fixups = append(a.fixups, Fixup{Offset: len(a.buf) - 4, Target: sym})
	return a
}

// Leave emits leave (mov esp, ebp; pop ebp).
func (a *Asm) Leave() *Asm {
	a.buf = append(a.buf, ByteLeave)
	return a
}

// Jmp emits a relative jump to the named symbol.
func (a *Asm) Jmp(sym string) *Asm {
	a.buf = append(a.buf, ByteJmp, 0, 0, 0, 0)
	a.fixups = append(a.fixups, Fixup{Offset: len(a.buf) - 4, Target: sym})
	return a
}

// CallInd emits an indirect call through function-pointer table slot.
func (a *Asm) CallInd(slot uint32) *Asm {
	a.buf = append(a.buf, ByteCallInd, 0, 0, 0, 0)
	putLE32(a.buf[len(a.buf)-4:], slot)
	return a
}

// Iret emits iret.
func (a *Asm) Iret() *Asm {
	a.buf = append(a.buf, ByteIret)
	return a
}

// TaskSwitch emits the hardware context-switch pseudo instruction.
func (a *Asm) TaskSwitch() *Asm {
	a.buf = append(a.buf, ByteTaskSw)
	return a
}

// Halt emits hlt.
func (a *Asm) Halt() *Asm {
	a.buf = append(a.buf, ByteHalt)
	return a
}

// Pad appends wide NOPs (and a trailing short NOP run) until the body is
// exactly n bytes long. It panics if the body is already longer than n:
// catalog sizes are authored data, so overflow is a programming error.
func (a *Asm) Pad(n int) *Asm {
	if len(a.buf) > n {
		panic(fmt.Sprintf("isa: body %d bytes exceeds padded size %d", len(a.buf), n))
	}
	a.buf = slices.Grow(a.buf, n-len(a.buf))
	for n-len(a.buf) >= 7 {
		a.buf = append(a.buf, Byte0F, ByteNopLSec, 0, 0, 0, 0, 0)
	}
	for len(a.buf) < n {
		a.buf = append(a.buf, ByteNop)
	}
	return a
}

// JzOver emits jz over the bytes produced by body; the branch outcome is
// decided at run time by the machine's oracle. body receives the same
// assembler, so symbolic fixups inside the branch work.
func (a *Asm) JzOver(body func(*Asm)) *Asm {
	a.buf = append(a.buf, ByteJz, 0)
	patch := len(a.buf) - 1
	start := len(a.buf)
	body(a)
	span := len(a.buf) - start
	if span > 127 {
		panic(fmt.Sprintf("isa: jz span %d exceeds rel8", span))
	}
	a.buf[patch] = byte(span)
	return a
}

// ResolveFixups patches every relocation in body, where base is the
// function's load address and lookup maps symbol names to addresses.
// It returns an error naming the first unresolved symbol.
func ResolveFixups(body []byte, base uint32, fixups []Fixup, lookup func(string) (uint32, bool)) error {
	for _, f := range fixups {
		target, ok := lookup(f.Target)
		if !ok {
			return fmt.Errorf("isa: unresolved symbol %q", f.Target)
		}
		next := base + uint32(f.Offset) + 4
		putLE32(body[f.Offset:], target-next)
	}
	return nil
}
