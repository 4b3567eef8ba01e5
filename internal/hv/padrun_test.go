package hv

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"facechange/internal/isa"
	"facechange/internal/mem"
)

// stepBlock is the reference runBlock must match: every instruction is
// copied out through the accessor (copyFetch), decoded and executed on its
// own, padding included.
func stepBlock(m *Machine, cpu *CPU) error {
	if m.handler != nil && m.trapAddrs[cpu.EIP] {
		m.AddrTrapExits++
		m.Charge(m.Cost.VMExit)
		if err := m.handler.OnAddrTrap(m, cpu); err != nil {
			return err
		}
	}
	start := cpu.EIP
	for {
		in, err := copyFetch(cpu, cpu.EIP)
		if err != nil {
			return err
		}
		switch in.Op {
		case isa.OpUD2:
			m.emitBlock(cpu, start, cpu.EIP+in.Len)
			m.UD2Exits++
			m.Charge(m.Cost.VMExit)
			if handled, err := m.handler.OnInvalidOpcode(m, cpu); err != nil || !handled {
				return ErrMachineFault
			}
			return nil
		case isa.OpInvalid:
			return ErrMachineFault
		}
		m.cycles++
		done, err := m.exec(cpu, in)
		if err != nil {
			return err
		}
		if done {
			m.emitBlock(cpu, start, 0)
			return nil
		}
	}
}

// padHandler handles a UD2 by running fix, when the case has one; the
// machine itself counts the exits.
type padHandler struct {
	fix func(m *Machine, cpu *CPU) error
}

func (h padHandler) OnAddrTrap(*Machine, *CPU) error { return nil }

func (h padHandler) OnInvalidOpcode(m *Machine, cpu *CPU) (bool, error) {
	if h.fix == nil {
		return false, nil
	}
	return true, h.fix(m, cpu)
}

// padRunResult is everything a guest run shows outside the interpreter.
type padRunResult struct {
	Cycles              uint64
	EIP                 uint32
	AddrTraps, UD2Exits uint64
	Misparses           uint64
	Blocks              [][2]uint32
	Fault, Err          bool
}

// pads returns n bytes of padding as Pad emits it.
func pads(n int) []byte {
	var a isa.Asm
	return a.Pad(n).Bytes()
}

// cat concatenates byte runs.
func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// ud2Fill returns n UD2 instructions.
func ud2Fill(n int) []byte { return bytes.Repeat(isa.UD2[:], n) }

var hlt = []byte{isa.ByteHalt}

// lastModulePage is the GVA of the module area's last page: the page after
// it is unmapped.
const lastModulePage = mem.ModuleGVA + mem.ModuleAreaSize - mem.PageSize

// TestPadRunsMatchStepping: runBlock, which executes a page's run of
// padding as one step, ends in the state of a reference that copies,
// decodes and executes one instruction at a time — cycles, EIP, exits,
// misparses, the profiler's block ranges and the fault, if any.
func TestPadRunsMatchStepping(t *testing.T) {
	text := mem.KernelTextGVA
	for _, tc := range []struct {
		name  string
		gva   uint32 // where code is written and execution starts
		code  []byte
		traps []uint32
		fix   func(m *Machine, cpu *CPU) error
	}{
		{
			// NOPLs at page offsets 4085 (inside the page, past the
			// in-place window) and 4092 (straddling) are copied.
			name:  "run crosses a page",
			gva:   text + 3000,
			code:  cat(pads(1496), hlt),
			traps: []uint32{text + 3000, text + 3007, text + mem.PageSize + 3},
		},
		{
			// The NOPL at offset 4084 cannot be fetched whole: the
			// short window decodes 0F 1F as invalid, as it always has.
			name: "NOPL in the last 16 bytes before an unmapped page",
			gva:  lastModulePage + 4000,
			code: pads(96),
		},
		{
			// NOPs run in place to offset 4080, then one by one until
			// the two-byte window at 4095 faults.
			name: "NOPs to the end of a page before an unmapped page",
			gva:  lastModulePage + 4070,
			code: bytes.Repeat([]byte{isa.ByteNop}, 26),
		},
		{
			name: "UD2 fill in the middle of a run",
			gva:  text + 100,
			code: cat(pads(100), ud2Fill(10), pads(100), hlt),
			fix: func(m *Machine, cpu *CPU) error {
				return m.Host.Write(cpu.EIP-mem.KernelBase, pads(20))
			},
		},
		{
			// Falling out of the padding at an odd offset of a UD2 fill
			// misparses 0B 0F eight times, then 0B 90 once.
			name: "padding into a UD2 fill at an odd offset",
			gva:  text + 200,
			code: cat(pads(50), []byte{isa.ByteOrAcc}, ud2Fill(8), []byte{isa.ByteNop}, pads(30), hlt),
		},
		{
			name: "jump from padding to an odd offset of a UD2 fill",
			gva:  text + 300,
			code: cat(pads(40), []byte{isa.ByteJmpShort, 7}, ud2Fill(8), []byte{isa.ByteNop}, pads(30), hlt),
		},
		{
			// Recovery copies the page into a shadow page with the fill
			// replaced by padding; the retry must run the shadow page
			// through the EPT, not the UD2s still in guest RAM.
			name: "pad run in a shadow page written by COW recovery",
			gva:  text + 2*mem.PageSize,
			code: cat(pads(3000), ud2Fill(100), pads(800), hlt),
			fix: func(m *Machine, cpu *CPU) error {
				gpa := mem.PageAlignDown(cpu.EIP - mem.KernelBase)
				page, err := m.Host.ReadSlice(cpu.EPT.Translate(gpa), mem.PageSize)
				if err != nil {
					return err
				}
				content := append([]byte(nil), page...)
				copy(content[cpu.EIP&(mem.PageSize-1):], pads(200))
				cpu.EPT.SetPTE(gpa, m.Host.AllocPage(content))
				return nil
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(step func(*Machine, *CPU) error) padRunResult {
				m, cpu, _ := testMachine(t, nil)
				gpa, err := cpu.as.Translate(tc.gva)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Host.Write(gpa, tc.code); err != nil {
					t.Fatal(err)
				}
				cpu.EIP = tc.gva
				m.SetExitHandler(padHandler{fix: tc.fix})
				for _, a := range tc.traps {
					m.TrapOnAddr(a)
				}
				var r padRunResult
				m.AddBlockListener(func(_ ExecContext, start, end uint32) {
					r.Blocks = append(r.Blocks, [2]uint32{start, end})
				})
				for i := 0; i < 16 && err == nil; i++ {
					err = step(m, cpu)
				}
				r.Cycles, r.EIP, r.AddrTraps, r.UD2Exits = m.Cycles(), cpu.EIP, m.AddrTrapExits, m.UD2Exits
				r.Misparses, _ = m.Misparses()
				r.Fault, r.Err = errors.Is(err, ErrMachineFault), err != nil
				return r
			}
			got := run((*Machine).runBlock)
			want := run(stepBlock)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("runBlock: %+v\nstepping: %+v", got, want)
			}
			t.Logf("%d cycles in %d blocks, %d misparses, fault %v", got.Cycles, len(got.Blocks), got.Misparses, got.Fault)
		})
	}
}
