package hv

import (
	"errors"
	"testing"

	"facechange/internal/isa"
	"facechange/internal/mem"
)

// stubOS is a minimal GuestOS for interpreter tests.
type stubOS struct {
	conds      map[uint32]bool
	indirect   map[uint32]uint32
	intVec     []uint8
	irqPending bool
	haltCount  int
	ctx        ExecContext
}

func (s *stubOS) Int(cpu *CPU, v uint8) error {
	s.intVec = append(s.intVec, v)
	cpu.EIP += 0 // stay; test inspects
	return nil
}
func (s *stubOS) Iret(cpu *CPU) error { return errors.New("stub iret") }
func (s *stubOS) TaskSwitch(cpu *CPU) error {
	return nil
}
func (s *stubOS) ResolveIndirect(cpu *CPU, slot uint32) (uint32, error) {
	t, ok := s.indirect[slot]
	if !ok {
		return 0, errors.New("no slot")
	}
	return t, nil
}
func (s *stubOS) EvalCond(cpu *CPU, addr uint32) (bool, error) {
	return s.conds[addr], nil
}
func (s *stubOS) MaybeInterrupt(cpu *CPU) (bool, error) {
	v := s.irqPending
	s.irqPending = false
	return v, nil
}
func (s *stubOS) Halt(cpu *CPU) error {
	s.haltCount++
	return nil
}
func (s *stubOS) Context(cpu *CPU) ExecContext { return s.ctx }

// testMachine writes code at the kernel text base and points cpu 0 at it.
func testMachine(t *testing.T, code []byte) (*Machine, *CPU, *stubOS) {
	t.Helper()
	host := mem.NewHost()
	if err := host.Write(mem.KernelTextGPA, code); err != nil {
		t.Fatal(err)
	}
	os := &stubOS{conds: map[uint32]bool{}, indirect: map[uint32]uint32{}}
	m := NewMachine(host, os, 1)
	cpu := m.CPUs[0]
	cpu.SetAddressSpace(mem.NewAddressSpace())
	cpu.EIP = mem.KernelTextGVA
	cpu.ESP = mem.KernelStackGVA + mem.KernelStackSize - 16
	cpu.Mode = ModeKernel
	return m, cpu, os
}

func TestCallRetRoundTrip(t *testing.T) {
	// call +3; hlt ; callee: ret
	var a isa.Asm
	a.Call("callee").Halt().Pad(8) // callee lands at offset 8
	code := a.Bytes()
	code = append(code, isa.ByteRet)
	callee := mem.KernelTextGVA + uint32(len(code)) - 1
	m, cpu, _ := testMachine(t, code)
	if err := isa.ResolveFixups(code, mem.KernelTextGVA, a.Fixups(),
		func(string) (uint32, bool) { return callee, true }); err != nil {
		t.Fatal(err)
	}
	if err := m.Host.Write(mem.KernelTextGPA, code); err != nil {
		t.Fatal(err)
	}
	sp0 := cpu.ESP
	// Block 1: the call.
	if err := m.runBlock(cpu); err != nil {
		t.Fatal(err)
	}
	if cpu.EIP != callee {
		t.Fatalf("EIP after call = %#x, want %#x", cpu.EIP, callee)
	}
	if cpu.ESP != sp0-4 {
		t.Fatalf("ESP after call = %#x", cpu.ESP)
	}
	// Block 2: the ret.
	if err := m.runBlock(cpu); err != nil {
		t.Fatal(err)
	}
	if cpu.EIP != mem.KernelTextGVA+5 {
		t.Fatalf("EIP after ret = %#x, want return site %#x", cpu.EIP, mem.KernelTextGVA+5)
	}
	if cpu.ESP != sp0 {
		t.Fatalf("ESP after ret = %#x, want %#x", cpu.ESP, sp0)
	}
}

func TestPrologueBuildsFrameChain(t *testing.T) {
	var a isa.Asm
	a.Prologue().Epilogue()
	m, cpu, _ := testMachine(t, append(a.Bytes(), isa.ByteRet))
	cpu.EBP = 0xDEAD0000
	sp0 := cpu.ESP
	if err := cpu.Push(0xC0FFEE00); err != nil { // fake return address
		t.Fatal(err)
	}
	if err := m.runBlock(cpu); err != nil { // prologue+leave+ret in one block? ret ends block
		t.Fatal(err)
	}
	// After prologue, the saved EBP must be on the stack below the return
	// address; after leave/ret everything is restored.
	if cpu.EBP != 0xDEAD0000 {
		t.Fatalf("EBP not restored: %#x", cpu.EBP)
	}
	if cpu.ESP != sp0 {
		t.Fatalf("ESP not restored: %#x vs %#x", cpu.ESP, sp0)
	}
	if cpu.EIP != 0xC0FFEE00 {
		t.Fatalf("ret target = %#x", cpu.EIP)
	}
}

func TestConditionalBranchConsultsOS(t *testing.T) {
	var a isa.Asm
	a.JzOver(func(b *isa.Asm) { b.Pad(b.Len() + 3) })
	a.Halt()
	code := a.Bytes()
	m, cpu, os := testMachine(t, code)
	branchAddr := mem.KernelTextGVA
	// Condition true → body executes (jz not taken).
	os.conds[branchAddr] = true
	if err := m.runBlock(cpu); err != nil {
		t.Fatal(err)
	}
	if cpu.EIP != branchAddr+2 {
		t.Fatalf("cond true: EIP = %#x, want fallthrough %#x", cpu.EIP, branchAddr+2)
	}
	// Reset; condition false → body skipped.
	cpu.EIP = branchAddr
	os.conds[branchAddr] = false
	if err := m.runBlock(cpu); err != nil {
		t.Fatal(err)
	}
	if cpu.EIP != branchAddr+5 {
		t.Fatalf("cond false: EIP = %#x, want skip to %#x", cpu.EIP, branchAddr+5)
	}
}

func TestIndirectCallResolution(t *testing.T) {
	var a isa.Asm
	a.CallInd(7)
	m, cpu, os := testMachine(t, a.Bytes())
	os.indirect[7] = 0xC0101234
	if err := m.runBlock(cpu); err != nil {
		t.Fatal(err)
	}
	if cpu.EIP != 0xC0101234 {
		t.Fatalf("indirect target = %#x", cpu.EIP)
	}
	// Unknown slot errors out.
	cpu.EIP = mem.KernelTextGVA
	delete(os.indirect, 7)
	if err := m.runBlock(cpu); err == nil {
		t.Fatal("unresolved indirect call should fail")
	}
}

func TestUD2WithoutHandlerFaults(t *testing.T) {
	m, cpu, _ := testMachine(t, []byte{0x0F, 0x0B})
	err := m.runBlock(cpu)
	if !errors.Is(err, ErrMachineFault) {
		t.Fatalf("err = %v, want machine fault", err)
	}
	_ = cpu
}

type fixingHandler struct {
	m        *Machine
	fixed    bool
	addrHits int
}

func (h *fixingHandler) OnAddrTrap(m *Machine, cpu *CPU) error {
	h.addrHits++
	return nil
}

func (h *fixingHandler) OnInvalidOpcode(m *Machine, cpu *CPU) (bool, error) {
	// "Recover" the code: replace UD2 with NOPs followed by hlt.
	h.fixed = true
	return true, m.Host.Write(mem.KernelTextGPA, []byte{0x90, 0x90, 0xF4})
}

func TestUD2HandlerRecoversAndRetries(t *testing.T) {
	m, cpu, _ := testMachine(t, []byte{0x0F, 0x0B, 0xF4})
	h := &fixingHandler{m: m}
	m.SetExitHandler(h)
	if err := m.runBlock(cpu); err != nil {
		t.Fatal(err)
	}
	if !h.fixed {
		t.Fatal("handler never ran")
	}
	if cpu.EIP != mem.KernelTextGVA {
		t.Fatalf("EIP moved before retry: %#x", cpu.EIP)
	}
	// Retry executes the recovered bytes.
	if err := m.runBlock(cpu); err != nil {
		t.Fatal(err)
	}
	if m.UD2Exits != 1 {
		t.Fatalf("UD2Exits = %d", m.UD2Exits)
	}
}

func TestAddrTrapFiresAtBlockEntry(t *testing.T) {
	var a isa.Asm
	a.Pad(1).Halt()
	m, cpu, _ := testMachine(t, a.Bytes())
	h := &fixingHandler{}
	m.SetExitHandler(h)
	m.TrapOnAddr(mem.KernelTextGVA)
	if err := m.runBlock(cpu); err != nil {
		t.Fatal(err)
	}
	if h.addrHits != 1 {
		t.Fatalf("addr trap hits = %d", h.addrHits)
	}
	if m.AddrTrapExits != 1 {
		t.Fatalf("AddrTrapExits = %d", m.AddrTrapExits)
	}
	// Cleared traps do not fire.
	m.ClearTrap(mem.KernelTextGVA)
	cpu.EIP = mem.KernelTextGVA
	if err := m.runBlock(cpu); err != nil {
		t.Fatal(err)
	}
	if h.addrHits != 1 {
		t.Fatal("cleared trap fired")
	}
}

func TestMisparseAccounting(t *testing.T) {
	// An OrAcc (0B 0F) in kernel space is counted as a silent misparse.
	m, cpu, _ := testMachine(t, []byte{0x0B, 0x0F, 0xF4})
	if err := m.runBlock(cpu); err != nil {
		t.Fatal(err)
	}
	n, samples := m.Misparses()
	if n != 1 || len(samples) != 1 || samples[0].EIP != mem.KernelTextGVA {
		t.Fatalf("misparses = %d %v", n, samples)
	}
}

func TestBlockListenerReceivesRanges(t *testing.T) {
	var a isa.Asm
	a.Pad(3).Halt()
	m, cpu, os := testMachine(t, a.Bytes())
	os.ctx = ExecContext{PID: 42}
	var got []struct {
		ctx        ExecContext
		start, end uint32
	}
	m.AddBlockListener(func(ctx ExecContext, start, end uint32) {
		got = append(got, struct {
			ctx        ExecContext
			start, end uint32
		}{ctx, start, end})
	})
	if err := m.runBlock(cpu); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("%d blocks", len(got))
	}
	b := got[0]
	if b.ctx.PID != 42 || b.start != mem.KernelTextGVA || b.end != mem.KernelTextGVA+4 {
		t.Fatalf("block = %+v", b)
	}
}

func TestCyclesAdvancePerInstruction(t *testing.T) {
	var a isa.Asm
	a.Pad(5).Halt()
	m, cpu, _ := testMachine(t, a.Bytes())
	if err := m.runBlock(cpu); err != nil {
		t.Fatal(err)
	}
	if m.Cycles() != 6 { // 5 nops + hlt
		t.Fatalf("cycles = %d, want 6", m.Cycles())
	}
	m.Charge(100)
	if m.Cycles() != 106 {
		t.Fatalf("charge failed: %d", m.Cycles())
	}
}

func TestSaveLoadRegs(t *testing.T) {
	host := mem.NewHost()
	cpu := NewCPU(0, host)
	cpu.EIP, cpu.ESP, cpu.EBP, cpu.EAX, cpu.Mode = 1, 2, 3, 4, ModeKernel
	r := cpu.SaveRegs()
	cpu.EIP, cpu.ESP, cpu.EBP, cpu.EAX, cpu.Mode = 0, 0, 0, 0, ModeUser
	cpu.LoadRegs(r)
	if cpu.EIP != 1 || cpu.ESP != 2 || cpu.EBP != 3 || cpu.EAX != 4 || cpu.Mode != ModeKernel {
		t.Fatalf("regs round trip failed: %s", cpu)
	}
}

func TestMultiCPUInterleaving(t *testing.T) {
	host := mem.NewHost()
	// Two CPUs, each spinning on its own nop+jmp loop.
	var a isa.Asm
	a.Pad(4)
	code := append(a.Bytes(), isa.ByteJmpShort, 0xFA) // jmp -6 (back to start)
	if err := host.Write(mem.KernelTextGPA, code); err != nil {
		t.Fatal(err)
	}
	os := &stubOS{conds: map[uint32]bool{}, indirect: map[uint32]uint32{}}
	m := NewMachine(host, os, 2)
	for _, cpu := range m.CPUs {
		cpu.SetAddressSpace(mem.NewAddressSpace())
		cpu.EIP = mem.KernelTextGVA
		cpu.Mode = ModeKernel
	}
	if err := m.Run(100_000, nil); err != nil {
		t.Fatal(err)
	}
	// Both CPUs must have made progress (EIP within the loop).
	for i, cpu := range m.CPUs {
		if cpu.EIP < mem.KernelTextGVA || cpu.EIP > mem.KernelTextGVA+6 {
			t.Errorf("cpu %d never ran: EIP=%#x", i, cpu.EIP)
		}
	}
	if m.Cycles() < 100_000 {
		t.Errorf("budget not consumed: %d", m.Cycles())
	}
}

func TestRunStopsOnCallback(t *testing.T) {
	host := mem.NewHost()
	var a isa.Asm
	a.Pad(2)
	code := append(a.Bytes(), isa.ByteJmpShort, 0xFC)
	if err := host.Write(mem.KernelTextGPA, code); err != nil {
		t.Fatal(err)
	}
	os := &stubOS{conds: map[uint32]bool{}, indirect: map[uint32]uint32{}}
	os.irqPending = true // one delivery triggers the stop check
	m := NewMachine(host, os, 1)
	cpu := m.CPUs[0]
	cpu.SetAddressSpace(mem.NewAddressSpace())
	cpu.EIP = mem.KernelTextGVA
	cpu.Mode = ModeKernel
	stopped := false
	if err := m.Run(1_000_000, func() bool { stopped = true; return true }); err != nil {
		t.Fatal(err)
	}
	if !stopped {
		t.Error("stop callback never consulted")
	}
	if m.Cycles() > 500_000 {
		t.Errorf("machine ran past the stop: %d cycles", m.Cycles())
	}
}
