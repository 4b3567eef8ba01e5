package hv

import (
	"bytes"
	"math/rand"
	"testing"

	"facechange/internal/isa"
	"facechange/internal/mem"
)

// copyFetch decodes at eip the way fetch does without its in-place path:
// a full window copied through the accessor, or a two-byte window when the
// full one faults.
func copyFetch(cpu *CPU, eip uint32) (isa.Inst, error) {
	buf := make([]byte, fetchBytes)
	acc := cpu.Mem()
	if err := acc.Read(eip, buf); err != nil {
		if err2 := acc.Read(eip, buf[:2]); err2 != nil {
			return isa.Inst{}, err
		}
		buf = buf[:2]
	}
	return isa.Decode(buf), nil
}

// fillRandom writes n random bytes at hpa.
func fillRandom(t *testing.T, h *mem.Host, rng *rand.Rand, hpa uint32, n int) []byte {
	t.Helper()
	b := make([]byte, n)
	rng.Read(b)
	if err := h.Write(hpa, b); err != nil {
		t.Fatal(err)
	}
	return b
}

// checkPage fetches at every offset of the page at gva through fetch and
// through copyFetch and requires the same instruction (or the same
// failure). Windows inside the page must take the in-place path and see
// the rest of want, the page's expected bytes; the last 15 offsets must
// not.
func checkPage(t *testing.T, m *Machine, cpu *CPU, gva uint32, want []byte) {
	t.Helper()
	for off := uint32(0); off < mem.PageSize; off++ {
		eip := gva + off
		got, live, err := m.fetch(cpu, eip)
		ref, refErr := copyFetch(cpu, eip)
		if (err != nil) != (refErr != nil) || got != ref {
			t.Fatalf("fetch %#x = %v, %v; copying path %v, %v", eip, got, err, ref, refErr)
		}
		if inPage := off <= mem.PageSize-fetchBytes; (live != nil) != inPage {
			t.Fatalf("fetch %#x: in-place window %v, want in-place %v", eip, live != nil, inPage)
		}
		if live != nil && !bytes.Equal(live, want[off:]) {
			t.Fatalf("fetch %#x: live bytes % x, want % x", eip, live, want[off:])
		}
	}
}

// TestFetchInPlaceMatchesCopy: the in-place fetch decodes what the copying
// path decodes at every offset of a kernel text page and a module page —
// identity mapped, redirected by a PTE rewrite, and redirected by an
// installed root — and falls back for windows crossing into the next
// page.
func TestFetchInPlaceMatchesCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, cpu, _ := testMachine(t, nil)
	h := m.Host
	for _, pg := range []struct {
		name     string
		gva, gpa uint32
	}{
		{"text", mem.KernelTextGVA + 3*mem.PageSize, mem.KernelTextGPA + 3*mem.PageSize},
		{"module", mem.ModuleGVA + 7*mem.PageSize, mem.ModuleGPA + 7*mem.PageSize},
	} {
		t.Run(pg.name, func(t *testing.T) {
			pristine := fillRandom(t, h, rng, pg.gpa, 2*mem.PageSize)[:mem.PageSize]
			checkPage(t, m, cpu, pg.gva, pristine)

			shadow := h.AllocPage(nil)
			viaPTE := fillRandom(t, h, rng, shadow, mem.PageSize)
			cpu.EPT.SetPTE(pg.gpa, shadow)
			checkPage(t, m, cpu, pg.gva, viaPTE)

			root := mem.NewRoot()
			other := h.AllocPage(nil)
			viaRoot := fillRandom(t, h, rng, other, mem.PageSize)
			root.SetPTE(pg.gpa, other)
			cpu.EPT.SetRoot(root)
			checkPage(t, m, cpu, pg.gva, viaRoot)

			// Copy-on-write retargets a root's page table in place.
			root.SetPTE(pg.gpa, shadow)
			checkPage(t, m, cpu, pg.gva, viaPTE)

			cpu.EPT.SetRoot(nil)
			cpu.EPT.ClearPTE(pg.gpa)
			checkPage(t, m, cpu, pg.gva, pristine)
		})
	}
}

// TestFetchHintFollowsAddressSpace: a cached page translation is keyed by
// address space and page, so a Map after the hint is filled, a switch to
// another address space mapping the same page elsewhere, and two pages
// sharing a hint slot all fetch what the copying path fetches.
func TestFetchHintFollowsAddressSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, cpu, _ := testMachine(t, nil)
	h := m.Host
	code := mem.UserCodeBase
	far := code + fetchHints*mem.PageSize // same hint slot as code
	gpa := func(i uint32) uint32 { return mem.UserGPA + i*mem.PageSize }
	page := make([][]byte, 6)
	for i := range page {
		page[i] = fillRandom(t, h, rng, gpa(uint32(i)), mem.PageSize)
	}

	as1 := mem.NewAddressSpace()
	as1.Map(mem.Region{GVA: code, GPA: gpa(0), Size: mem.PageSize, Name: "code"})
	cpu.SetAddressSpace(as1)
	checkPage(t, m, cpu, code, page[0])
	if _, _, err := m.fetch(cpu, code+mem.PageSize); err == nil {
		t.Fatal("fetch from an unmapped page succeeded")
	}

	// Growing the address space after the hint is filled.
	as1.Map(mem.Region{GVA: code + mem.PageSize, GPA: gpa(1), Size: mem.PageSize, Name: "code2"})
	as1.Map(mem.Region{GVA: far, GPA: gpa(2), Size: mem.PageSize, Name: "far"})
	checkPage(t, m, cpu, code+mem.PageSize, page[1])
	checkPage(t, m, cpu, far, page[2])
	checkPage(t, m, cpu, code, page[0])

	// The same GVA page in another address space.
	as2 := mem.NewAddressSpace()
	as2.Map(mem.Region{GVA: code, GPA: gpa(3), Size: 2 * mem.PageSize, Name: "code"})
	cpu.SetAddressSpace(as2)
	checkPage(t, m, cpu, code, page[3])
	checkPage(t, m, cpu, code+mem.PageSize, page[4])
	cpu.SetAddressSpace(as1)
	checkPage(t, m, cpu, code, page[0])

	// A region that covers part of a page, or keeps no page alignment
	// between GVA and GPA, is fetched by copying only.
	as3 := mem.NewAddressSpace()
	as3.Map(mem.Region{GVA: code + 0x800, GPA: gpa(5), Size: 0x800, Name: "half"})
	as3.Map(mem.Region{GVA: far, GPA: gpa(5) + 0x10, Size: mem.PageSize, Name: "skewed"})
	cpu.SetAddressSpace(as3)
	for _, eip := range []uint32{code + 0x800, code + 0x900, far, far + 0x100} {
		if cpu.fetchWindow(eip) != nil {
			t.Errorf("fetch %#x taken in place from a partial or skewed mapping", eip)
		}
		got, _, err := m.fetch(cpu, eip)
		ref, refErr := copyFetch(cpu, eip)
		if (err != nil) != (refErr != nil) || got != ref {
			t.Errorf("fetch %#x = %v, %v; copying path %v, %v", eip, got, err, ref, refErr)
		}
	}
	if _, _, err := m.fetch(cpu, code); err == nil {
		t.Error("fetch below a partial mapping succeeded")
	}
}
