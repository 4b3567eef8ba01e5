package isa

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestDecodeSingleInstructions(t *testing.T) {
	tests := []struct {
		name string
		code []byte
		want Inst
	}{
		{"push ebp", []byte{0x55}, Inst{Op: OpPushEBP, Len: 1}},
		{"mov ebp esp", []byte{0x89, 0xE5}, Inst{Op: OpMovEBPESP, Len: 2}},
		{"pop ebp", []byte{0x5D}, Inst{Op: OpPopEBP, Len: 1}},
		{"leave", []byte{0xC9}, Inst{Op: OpLeave, Len: 1}},
		{"ret", []byte{0xC3}, Inst{Op: OpRet, Len: 1}},
		{"nop", []byte{0x90}, Inst{Op: OpNop, Len: 1}},
		{"ud2", []byte{0x0F, 0x0B}, Inst{Op: OpUD2, Len: 2}},
		{"nopl", []byte{0x0F, 0x1F, 0, 0, 0, 0, 0}, Inst{Op: OpNopL, Len: 7}},
		{"or acc misparse", []byte{0x0B, 0x0F}, Inst{Op: OpOrAcc, Len: 2, Imm: 0x0F}},
		{"int 0x80", []byte{0xCD, 0x80}, Inst{Op: OpInt, Len: 2, Imm: 0x80}},
		{"iret", []byte{0xCF}, Inst{Op: OpIret, Len: 1}},
		{"call +4", []byte{0xE8, 4, 0, 0, 0}, Inst{Op: OpCall, Len: 5, Imm: 4}},
		{"call -1", []byte{0xE8, 0xFF, 0xFF, 0xFF, 0xFF}, Inst{Op: OpCall, Len: 5, Imm: -1}},
		{"jmp rel32", []byte{0xE9, 0, 1, 0, 0}, Inst{Op: OpJmp, Len: 5, Imm: 256}},
		{"jmp short back", []byte{0xEB, 0xFE}, Inst{Op: OpJmpShort, Len: 2, Imm: -2}},
		{"jz fwd", []byte{0x74, 0x10}, Inst{Op: OpJz, Len: 2, Imm: 16}},
		{"jnz back", []byte{0x75, 0xF0}, Inst{Op: OpJnz, Len: 2, Imm: -16}},
		{"call ind", []byte{0xFF, 7, 0, 0, 0}, Inst{Op: OpCallInd, Len: 5, Imm: 7}},
		{"taskswitch", []byte{0xF5}, Inst{Op: OpTaskSwitch, Len: 1}},
		{"hlt", []byte{0xF4}, Inst{Op: OpHalt, Len: 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Decode(tt.code)
			if got != tt.want {
				t.Errorf("Decode(% x) = %+v, want %+v", tt.code, got, tt.want)
			}
		})
	}
}

func TestDecodeInvalid(t *testing.T) {
	tests := []struct {
		name string
		code []byte
	}{
		{"empty", nil},
		{"unknown byte", []byte{0x42}},
		{"truncated call", []byte{0xE8, 1, 2}},
		{"truncated int", []byte{0xCD}},
		{"mov prefix without E5", []byte{0x89, 0x00}},
		{"0F alone", []byte{0x0F}},
		{"0F with unknown second", []byte{0x0F, 0x77}},
		{"truncated nopl", []byte{0x0F, 0x1F, 0, 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Decode(tt.code)
			if got.Op != OpInvalid {
				t.Errorf("Decode(% x).Op = %v, want OpInvalid", tt.code, got.Op)
			}
			if got.Len != 1 {
				t.Errorf("Decode(% x).Len = %d, want 1", tt.code, got.Len)
			}
		})
	}
}

// TestUD2FillParity is the load-bearing property from Section III-B3: a
// UD2-filled region traps when entered at an even offset and silently
// misparses as OrAcc when entered at an odd offset.
func TestUD2FillParity(t *testing.T) {
	fill := bytes.Repeat([]byte{0x0F, 0x0B}, 64)
	for off := 0; off < len(fill)-2; off++ {
		got := Decode(fill[off:])
		if off%2 == 0 {
			if got.Op != OpUD2 {
				t.Fatalf("even offset %d decoded as %v, want UD2", off, got.Op)
			}
		} else {
			if got.Op != OpOrAcc {
				t.Fatalf("odd offset %d decoded as %v, want OrAcc (silent misparse)", off, got.Op)
			}
		}
	}
}

func TestAsmPrologueEpilogueRoundTrip(t *testing.T) {
	var a Asm
	a.Prologue().Pad(6).Epilogue()
	b := a.Bytes()
	if !HasPrologueAt(b, 0) {
		t.Fatalf("assembled function lacks prologue signature: % x", b)
	}
	want := []byte{0x55, 0x89, 0xE5, 0x90, 0x90, 0x90, 0xC9, 0xC3}
	if !bytes.Equal(b, want) {
		t.Fatalf("assembled = % x, want % x", b, want)
	}
}

func TestAsmCallFixupResolution(t *testing.T) {
	var a Asm
	a.Prologue().Call("helper").Epilogue()
	body := a.Bytes()
	const base = 0xC0100000
	const helperAddr = 0xC0100100
	err := ResolveFixups(body, base, a.Fixups(), func(sym string) (uint32, bool) {
		if sym == "helper" {
			return helperAddr, true
		}
		return 0, false
	})
	if err != nil {
		t.Fatalf("ResolveFixups: %v", err)
	}
	inst := Decode(body[3:])
	if inst.Op != OpCall {
		t.Fatalf("expected call, got %v", inst.Op)
	}
	next := uint32(base) + 3 + 5
	if got := next + uint32(int32(inst.Imm)); got != helperAddr {
		t.Fatalf("call target = %#x, want %#x", got, uint32(helperAddr))
	}
}

func TestAsmUnresolvedFixup(t *testing.T) {
	var a Asm
	a.Call("missing")
	err := ResolveFixups(a.Bytes(), 0, a.Fixups(), func(string) (uint32, bool) { return 0, false })
	if err == nil {
		t.Fatal("expected error for unresolved symbol")
	}
}

func TestAsmPadExact(t *testing.T) {
	for _, n := range []int{8, 9, 13, 14, 15, 20, 64, 127} {
		var a Asm
		a.Prologue()
		a.Pad(n)
		if a.Len() != n {
			t.Errorf("Pad(%d) produced %d bytes", n, a.Len())
		}
		// Every padded byte sequence must decode cleanly from the start.
		b := a.Bytes()
		for off := 0; off < len(b); {
			in := Decode(b[off:])
			if in.Op == OpInvalid {
				t.Fatalf("Pad(%d): invalid instruction at offset %d: % x", n, off, b[off:])
			}
			off += int(in.Len)
		}
	}
}

func TestAsmPadOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Pad smaller than body")
		}
	}()
	var a Asm
	a.Pad(10)
	a.Pad(5)
}

func TestAsmJzOver(t *testing.T) {
	var a Asm
	a.Prologue()
	a.JzOver(func(b *Asm) { b.Call("rare") })
	a.Epilogue()
	body := a.Bytes()
	// jz operand must equal the call length (5).
	jz := Decode(body[3:])
	if jz.Op != OpJz || jz.Imm != 5 {
		t.Fatalf("jz = %+v, want jz +5", jz)
	}
	if err := ResolveFixups(body, 0x1000, a.Fixups(), func(string) (uint32, bool) { return 0x2000, true }); err != nil {
		t.Fatalf("ResolveFixups: %v", err)
	}
}

func TestHasPrologueAt(t *testing.T) {
	code := []byte{0x90, 0x55, 0x89, 0xE5, 0x90}
	if HasPrologueAt(code, 0) {
		t.Error("offset 0 is not a prologue")
	}
	if !HasPrologueAt(code, 1) {
		t.Error("offset 1 is a prologue")
	}
	if HasPrologueAt(code, 3) || HasPrologueAt(code, -1) || HasPrologueAt(code, 4) {
		t.Error("out-of-range or partial prologue misdetected")
	}
}

// Property: Decode never claims a length that overruns the input and always
// makes progress, for arbitrary byte soup. This is what lets the CPU and
// the basic-block profiler walk attacker-controlled bytes safely.
func TestDecodeProgressProperty(t *testing.T) {
	f := func(code []byte) bool {
		if len(code) == 0 {
			return true
		}
		in := Decode(code)
		return in.Len >= 1 && (in.Op == OpInvalid || int(in.Len) <= len(code))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: the misparse pair 0B 0F never decodes to a trapping
// instruction, and the UD2 pair always does, regardless of what follows.
func TestParityPairProperty(t *testing.T) {
	f := func(tail []byte) bool {
		ud2 := Decode(append([]byte{0x0F, 0x0B}, tail...))
		mis := Decode(append([]byte{0x0B, 0x0F}, tail...))
		return ud2.Op == OpUD2 && mis.Op == OpOrAcc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestInstStringCoverage(t *testing.T) {
	ops := []Op{OpPushEBP, OpMovEBPESP, OpPopEBP, OpLeave, OpRet, OpCall, OpJmp,
		OpJmpShort, OpJz, OpJnz, OpNop, OpNopL, OpUD2, OpOrAcc, OpInt, OpIret,
		OpCallInd, OpTaskSwitch, OpHalt, OpInvalid}
	for _, op := range ops {
		if s := (Inst{Op: op, Imm: 1}).String(); s == "" {
			t.Errorf("op %v has empty String()", op)
		}
	}
}

// decodeRun steps Decode over the pad instructions at the start of code
// that begin before limit: the reference PadRun must reproduce.
func decodeRun(code []byte, limit int) (n, size int) {
	for size < limit && size < len(code) {
		in := Decode(code[size:])
		if in.Op != OpNop && in.Op != OpNopL {
			break
		}
		n++
		size += int(in.Len)
	}
	return n, size
}

func TestPadRunCountsPadding(t *testing.T) {
	var a Asm
	a.Prologue().Pad(40).Halt()
	body := a.Bytes()
	// 37 pad bytes: five NOPLs and two NOPs.
	if n, size := PadRun(body[3:], len(body)); n != 7 || size != 37 {
		t.Fatalf("PadRun = %d, %d; want 7, 37", n, size)
	}
	if n, size := PadRun(body, len(body)); n != 0 || size != 0 {
		t.Fatalf("PadRun at the prologue = %d, %d; want 0, 0", n, size)
	}
	// A NOPL may start at limit-1 and end past it; none starts at limit.
	if n, size := PadRun(body[3:], 8); n != 2 || size != 14 {
		t.Fatalf("PadRun limit 8 = %d, %d; want 2, 14", n, size)
	}
	// A NOPL cut short by the end of code is not padding.
	if n, size := PadRun(body[3:12], 100); n != 1 || size != 7 {
		t.Fatalf("PadRun of a cut run = %d, %d; want 1, 7", n, size)
	}
}

// FuzzPadRun: PadRun agrees with repeated Decode on arbitrary bytes and
// limits.
func FuzzPadRun(f *testing.F) {
	var a Asm
	a.Pad(40)
	f.Add(a.Bytes(), 40)
	f.Add(append(a.Bytes(), 0x0F, 0x0B, 0x90), 100)
	f.Add([]byte{0x90, 0x0F, 0x1F, 0, 0, 0}, 6)
	f.Add([]byte{0x0B, 0x0F, 0x90}, 3)
	f.Add([]byte{0x0F, 0x1F, 0x0F, 0x1F, 0, 0, 0, 0x90}, -1)
	f.Fuzz(func(t *testing.T, code []byte, limit int) {
		n, size := PadRun(code, limit)
		wantN, wantSize := decodeRun(code, limit)
		if n != wantN || size != wantSize {
			t.Fatalf("PadRun(% x, %d) = %d, %d; Decode steps %d, %d", code, limit, n, size, wantN, wantSize)
		}
	})
}
