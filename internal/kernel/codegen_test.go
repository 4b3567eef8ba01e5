package kernel

import (
	"bytes"
	"reflect"
	"testing"

	"facechange/internal/isa"
	"facechange/internal/mem"
)

func TestBuildImageDeterministic(t *testing.T) {
	a, err := BuildImage(BaseCatalog(), StandardModules())
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildImage(BaseCatalog(), StandardModules())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Text, b.Text) {
		t.Fatal("kernel image generation is not deterministic")
	}
}

func TestBuildImageRejectsDuplicates(t *testing.T) {
	specs := []FnSpec{
		fn("dup_fn", "x", 64),
		fn("dup_fn", "x", 64),
	}
	if _, err := BuildImage(specs, nil); err == nil {
		t.Fatal("duplicate function names must be rejected")
	}
}

func TestBuildImageRejectsUnresolvedCall(t *testing.T) {
	specs := []FnSpec{fn("caller", "x", 64, C("no_such_symbol"))}
	if _, err := BuildImage(specs, nil); err == nil {
		t.Fatal("unresolved call target must be rejected")
	}
}

func TestBuildImageRejectsBaseCallingModule(t *testing.T) {
	// Base kernel code must not call module functions directly (modules
	// are reached via indirect slots, as in Linux).
	specs := []FnSpec{fn("base_fn", "x", 64, C("mod_fn"))}
	mods := []ModuleSpec{{Name: "m", Funcs: []FnSpec{fn("mod_fn", "m", 64)}}}
	if _, err := BuildImage(specs, mods); err == nil {
		t.Fatal("base→module direct call must be rejected")
	}
}

func TestBuildImageRejectsUndersizedSpec(t *testing.T) {
	// 8 calls cannot fit in 16 bytes.
	specs := []FnSpec{fn("tiny", "x", 6, C("tiny2"), C("tiny2"), C("tiny2"),
		C("tiny2"), C("tiny2"), C("tiny2"), C("tiny2"), C("tiny2")),
		fn("tiny2", "x", 64)}
	if _, err := BuildImage(specs, nil); err == nil {
		t.Fatal("undersized function spec must be rejected")
	}
}

func TestGeneratedCodeDecodesCleanly(t *testing.T) {
	img, err := BuildImage(BaseCatalog(), StandardModules())
	if err != nil {
		t.Fatal(err)
	}
	// Every function body must decode without invalid instructions when
	// walked from its entry.
	for _, f := range img.Symbols.Funcs() {
		if f.Module != "" {
			continue
		}
		code := img.Text[f.Addr-mem.KernelTextGVA : f.End()-mem.KernelTextGVA]
		for _, l := range isa.Disasm(code, f.Addr) {
			if l.Inst.Op == isa.OpInvalid {
				t.Fatalf("%s contains undecodable bytes at %#x: % x", f.Name, l.Addr, l.Bytes)
			}
		}
	}
}

func TestConditionalBranchesRegistered(t *testing.T) {
	img, err := BuildImage(BaseCatalog(), StandardModules())
	if err != nil {
		t.Fatal(err)
	}
	if len(img.base.conds) == 0 {
		t.Fatal("no conditional branches registered")
	}
	// Every registered base branch address must hold a jz instruction
	// inside the base kernel text (module conds are registered at link
	// time).
	for addr, key := range img.base.conds {
		if addr < mem.KernelTextGVA || addr >= mem.KernelTextGVA+img.TextSize() {
			t.Fatalf("base cond %d at %#x lies outside the text", key, addr)
		}
		b := img.Text[addr-mem.KernelTextGVA]
		if b != isa.ByteJz {
			t.Errorf("cond %d at %#x is %#x, not jz", key, addr, b)
		}
	}
}

func TestEmitTerminalFunctionsHaveNoEpilogue(t *testing.T) {
	g, err := emit(fn("jumper", "x", 64, C("helper"), Jmp("target")))
	if err != nil {
		t.Fatal(err)
	}
	body := g.body
	// A tail-jump function ends with leave+jmp, padding after.
	lines := isa.Disasm(body, 0)
	sawJmp := false
	for _, l := range lines {
		if l.Inst.Op == isa.OpJmp {
			sawJmp = true
		}
		if sawJmp && l.Inst.Op == isa.OpRet {
			t.Fatal("terminal function must not have a ret after the tail jump")
		}
	}
	if !sawJmp {
		t.Fatal("no tail jump emitted")
	}
}

func TestCatalogSubsystemInventory(t *testing.T) {
	img, err := BuildImage(BaseCatalog(), StandardModules())
	if err != nil {
		t.Fatal(err)
	}
	bySub := map[string]uint64{}
	for _, f := range img.Symbols.All() {
		bySub[f.Sub] += uint64(f.Size)
	}
	// The load-bearing subsystems must exist with plausible weight.
	for _, sub := range []string{"sched", "irq", "lib", "vfs", "ext4r", "ext4w",
		"procfs", "tty", "pipe", "poll", "futex", "netcore", "inet", "tcp",
		"udp", "unix", "forkexec", "mm", "sigdeliver", "kvmclock", "packet", "sound"} {
		if bySub[sub] == 0 {
			t.Errorf("subsystem %q missing from catalog", sub)
		}
	}
	// The kvmclock subsystem must be small (it exists only to model the
	// QEMU/KVM clocksource divergence).
	if bySub["kvmclock"] > 4096 {
		t.Errorf("kvmclock subsystem unexpectedly large: %d", bySub["kvmclock"])
	}
}

func TestSyscallHandlersAllResolvable(t *testing.T) {
	img, err := BuildImage(BaseCatalog(), StandardModules())
	if err != nil {
		t.Fatal(err)
	}
	for nr, name := range SyscallHandlers() {
		f, ok := img.Symbols.ByName(name)
		if !ok {
			t.Errorf("syscall %d handler %q not in catalog", nr, name)
			continue
		}
		if f.Module != "" {
			t.Errorf("syscall %d handler %q lives in module %q", nr, name, f.Module)
		}
	}
}

func TestDefaultSlotTargetsAllResolvable(t *testing.T) {
	img, err := BuildImage(BaseCatalog(), StandardModules())
	if err != nil {
		t.Fatal(err)
	}
	for slot, targets := range DefaultSlotTargets() {
		for key, name := range targets {
			if _, ok := img.Symbols.ByName(name); !ok {
				t.Errorf("slot %d key %d target %q not in catalog", slot, key, name)
			}
		}
	}
}

// TestSharedTablesMatchExported: the tables every guest resolves indirect
// calls through equal what SyscallHandlers and DefaultSlotTargets return,
// and those still return fresh maps a caller may change.
func TestSharedTablesMatchExported(t *testing.T) {
	handlers, slots := SyscallHandlers(), DefaultSlotTargets()
	if !reflect.DeepEqual(handlers, syscallTable) || !reflect.DeepEqual(slots, slotTable) {
		t.Fatal("shared tables differ from the exported ones")
	}
	delete(handlers, SysGetpid)
	slots[SlotFileRead][uint32(FileExt4)] = "rootkit_read"
	if syscallTable[SysGetpid] != "sys_getpid" || slotTable[SlotFileRead][uint32(FileExt4)] != "do_sync_read" {
		t.Fatal("changing an exported table changed the shared one")
	}
}

func TestModuleFunctionsRelocatable(t *testing.T) {
	img, err := BuildImage(BaseCatalog(), StandardModules())
	if err != nil {
		t.Fatal(err)
	}
	// Link snd at two different bases (separate images) and verify the
	// code differs only in relocated immediates, never in opcodes.
	img2, err := BuildImage(BaseCatalog(), StandardModules())
	if err != nil {
		t.Fatal(err)
	}
	c1, err := img.LinkModule("snd", mem.ModuleGVA+mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := img2.LinkModule("snd", mem.ModuleGVA+0x40000)
	if err != nil {
		t.Fatal(err)
	}
	if len(c1) != len(c2) {
		t.Fatalf("module sizes differ across bases: %d vs %d", len(c1), len(c2))
	}
	l1 := isa.Disasm(c1, mem.ModuleGVA+mem.PageSize)
	l2 := isa.Disasm(c2, mem.ModuleGVA+0x40000)
	if len(l1) != len(l2) {
		t.Fatalf("instruction counts differ: %d vs %d", len(l1), len(l2))
	}
	for i := range l1 {
		if l1[i].Inst.Op != l2[i].Inst.Op {
			t.Fatalf("opcode divergence at %d: %v vs %v", i, l1[i].Inst.Op, l2[i].Inst.Op)
		}
	}
}

func TestFuncSpanAlignmentInvariant(t *testing.T) {
	img, err := BuildImage(BaseCatalog(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Inter-function gaps must never contain a prologue signature at an
	// aligned offset (the loader's scan heuristic depends on it).
	funcs := img.Symbols.Funcs()
	for i := 0; i+1 < len(funcs); i++ {
		gapStart := funcs[i].End()
		gapEnd := funcs[i+1].Addr
		for a := (gapStart + FuncAlign - 1) &^ (FuncAlign - 1); a < gapEnd; a += FuncAlign {
			off := int(a - mem.KernelTextGVA)
			if isa.HasPrologueAt(img.Text, off) {
				t.Fatalf("fake prologue in gap after %s at %#x", funcs[i].Name, a)
			}
		}
	}
}
