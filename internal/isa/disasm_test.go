package isa

import (
	"strings"
	"testing"
)

func TestDisasmListing(t *testing.T) {
	var a Asm
	a.Prologue().Call("x").Epilogue()
	body := a.Bytes()
	if err := ResolveFixups(body, 0x1000, a.Fixups(), func(string) (uint32, bool) { return 0x2000, true }); err != nil {
		t.Fatal(err)
	}
	lines := Disasm(body, 0x1000)
	if len(lines) != 5 { // push, mov, call, leave, ret
		t.Fatalf("%d lines: %v", len(lines), lines)
	}
	callLine := lines[2].String()
	if !strings.Contains(callLine, "→ 0x00002000") {
		t.Errorf("call target not resolved: %s", callLine)
	}
	if lines[0].Addr != 0x1000 || lines[4].Inst.Op != OpRet {
		t.Errorf("listing malformed: %v", lines)
	}
}

func TestDisasmTerminatesOnGarbage(t *testing.T) {
	garbage := []byte{0x42, 0x42, 0xE8} // unknown, unknown, truncated call
	lines := Disasm(garbage, 0)
	if len(lines) != 3 {
		t.Fatalf("%d lines", len(lines))
	}
	for _, l := range lines {
		if l.Inst.Op != OpInvalid {
			t.Errorf("expected invalid, got %v", l.Inst.Op)
		}
	}
}

func TestDisasmCoversEveryByte(t *testing.T) {
	var a Asm
	a.Prologue().CallInd(3).Call("f").Pad(64)
	a.Epilogue()
	lines := Disasm(a.Bytes(), 0x100)
	total := 0
	for _, l := range lines {
		total += len(l.Bytes)
	}
	if total != a.Len() {
		t.Errorf("disasm covered %d of %d bytes", total, a.Len())
	}
}
