package core

import (
	"bytes"
	"errors"
	"maps"
	"slices"
	"testing"

	"facechange/internal/kview"
	"facechange/internal/mem"
)

// importRig is a runtime with two guest modules and a view configuration
// covering every fourth base-kernel function plus one function of each
// module — the target side of a migration.
type importRig struct {
	*switchRig
	cfg     *kview.View
	modGPAs []uint32 // the module pages of cfg's configured functions
}

func newImportRig(t testing.TB, opts Options) *importRig {
	t.Helper()
	rig := newSwitchRig(t, 1, opts, "af_packet", "snd")
	cfg := kview.NewView("webapp")
	for i, f := range textFuncs(t, rig.k) {
		if i%4 == 0 {
			cfg.Insert(kview.BaseKernel, f.Addr, f.End())
		}
	}
	ir := &importRig{switchRig: rig, cfg: cfg}
	for _, m := range rig.k.Modules() {
		f := moduleFunc(t, rig.k, m.Name)
		cfg.Insert(m.Name, f.Addr-m.Base, f.End()-m.Base)
		ir.modGPAs = append(ir.modGPAs, mem.PageAlignDown(gpaFor(f.Addr)))
	}
	return ir
}

// deltas returns n page deltas over the first n kernel text pages plus
// one per module page, ascending, each filled with a page-specific
// pattern.
func (ir *importRig) deltas(n int) []PageDelta {
	var gpas []uint32
	for i := 0; i < n; i++ {
		gpas = append(gpas, mem.KernelTextGPA+uint32(i)*mem.PageSize)
	}
	gpas = append(gpas, ir.modGPAs...)
	out := make([]PageDelta, len(gpas))
	for i, gpa := range gpas {
		data := make([]byte, mem.PageSize)
		for j := range data {
			data[j] = byte(i*31 + j%251 + 1)
		}
		out[i] = PageDelta{GPA: gpa, Data: data}
	}
	return out
}

// TestImportPlacesDeltasPrivately: after an import, every delta page is a
// private page outside the cache holding exactly the delta's bytes, and a
// vCPU switched onto the view fetches those bytes; every other page is an
// interned, shared page. Both switch implementations.
func TestImportPlacesDeltasPrivately(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts Options
	}{{"snapshot", FastOptions()}, {"legacy", DefaultOptions()}} {
		t.Run(mode.name, func(t *testing.T) {
			ir := newImportRig(t, mode.opts)
			rt := ir.rt
			deltas := ir.deltas(8)
			res, err := rt.ImportViewState(&ViewState{App: "webapp", Cfg: ir.cfg, Deltas: deltas})
			if err != nil {
				t.Fatal(err)
			}
			if res.DeltasApplied != len(deltas) || res.DeltasSkipped != 0 {
				t.Fatalf("applied %d skipped %d, want %d/0", res.DeltasApplied, res.DeltasSkipped, len(deltas))
			}
			v := rt.ViewByIndex(res.Index)
			cached := rt.cache.Snapshot()
			byGPA := map[uint32][]byte{}
			for _, d := range deltas {
				byGPA[d.GPA] = d.Data
			}
			check := func(pages map[uint32]uint32) {
				for gpa, hpa := range pages {
					data, isDelta := byGPA[gpa]
					if !isDelta {
						if !isShared(v, gpa) || cached[hpa] == 0 {
							t.Errorf("page %#x: shared %v, %d cache refs; want an interned page", gpa, isShared(v, gpa), cached[hpa])
						}
						continue
					}
					if isShared(v, gpa) || cached[hpa] != 0 {
						t.Errorf("delta page %#x: shared %v, %d cache refs; want a private page", gpa, isShared(v, gpa), cached[hpa])
					}
					page, err := rt.m.Host.Slice(hpa, mem.PageSize)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(page, data) {
						t.Errorf("delta page %#x does not hold the delta's bytes", gpa)
					}
					delete(byGPA, gpa)
				}
			}
			check(pagesOf(v))
			if len(byGPA) != 0 {
				t.Fatalf("%d deltas not placed in the view", len(byGPA))
			}
			if got := rt.CacheStats().Privatized; got != 0 {
				t.Errorf("import privatized %d pages, want 0", got)
			}

			cpu := ir.k.M.CPUs[0]
			if err := rt.switchTo(cpu, res.Index); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, mem.PageSize)
			for _, d := range deltas {
				if err := cpu.Mem().Read(shadowGVA(d.GPA), buf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf, d.Data) {
					t.Errorf("vCPU on the view reads other bytes than the delta at %#x", d.GPA)
				}
			}
		})
	}
}

// shadowGVA maps a shadow page's GPA to the kernel GVA it backs.
func shadowGVA(gpa uint32) uint32 {
	if gpa >= mem.ModuleGPA && gpa < mem.ModuleGPA+mem.ModuleAreaSize {
		return mem.ModuleGVA + (gpa - mem.ModuleGPA)
	}
	return gpa + mem.KernelBase
}

// TestImportRejectsBadDeltasBeforeAllocating: a delta of the wrong
// length, a misaligned GPA, and duplicate or unsorted GPAs fail the
// import before any page is allocated or interned, even when the bad
// delta is the last one.
func TestImportRejectsBadDeltasBeforeAllocating(t *testing.T) {
	ir := newImportRig(t, FastOptions())
	rt := ir.rt
	for _, tc := range []struct {
		name  string
		spoil func(d []PageDelta) []PageDelta
	}{
		{"short", func(d []PageDelta) []PageDelta {
			d[len(d)-1].Data = d[len(d)-1].Data[:mem.PageSize-1]
			return d
		}},
		{"long", func(d []PageDelta) []PageDelta {
			d[len(d)-1].Data = append(d[len(d)-1].Data, 0)
			return d
		}},
		{"misaligned", func(d []PageDelta) []PageDelta {
			d[len(d)-1].GPA++
			return d
		}},
		{"duplicate", func(d []PageDelta) []PageDelta {
			return append(d, d[len(d)-1])
		}},
		{"unsorted", func(d []PageDelta) []PageDelta {
			d[len(d)-2], d[len(d)-1] = d[len(d)-1], d[len(d)-2]
			return d
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			live, cached, views := rt.m.Host.LivePages(), rt.cache.Snapshot(), len(rt.views)
			_, err := rt.ImportViewState(&ViewState{App: "webapp", Cfg: ir.cfg, Deltas: tc.spoil(ir.deltas(4))})
			if err == nil {
				t.Fatal("import succeeded")
			}
			if got := rt.m.Host.LivePages(); got != live {
				t.Errorf("live pages %d after the failed import, want %d", got, live)
			}
			if !maps.Equal(rt.cache.Snapshot(), cached) {
				t.Error("the failed import changed the page cache")
			}
			if len(rt.views) != views {
				t.Error("the failed import registered a view")
			}
		})
	}
}

// deltaFaults fails the k-th private-page allocation of an import, the
// FaultIntern calls at the delta GPAs (an Intern consults the injector at
// address 0).
type deltaFaults struct {
	gpas  map[uint32]bool
	k, at int
}

var errInjected = errors.New("injected allocation failure")

func (j *deltaFaults) Fault(op mem.FaultOp, addr uint32, _ int) error {
	if op != mem.FaultIntern || !j.gpas[addr] {
		return nil
	}
	j.at++
	if j.at == j.k {
		return errInjected
	}
	return nil
}

func (*deltaFaults) Corrupt(mem.FaultOp, uint32, []byte) {}

// TestImportFaultUnwinds: an injected failure on the k-th private page of
// an import, for every k, unwinds to the host's pre-import live pages and
// the cache's pre-import refcounts, and registers no view. With the
// injector detached the same import succeeds.
func TestImportFaultUnwinds(t *testing.T) {
	ir := newImportRig(t, FastOptions())
	rt := ir.rt
	deltas := ir.deltas(6)
	inj := &deltaFaults{gpas: map[uint32]bool{}}
	for _, d := range deltas {
		inj.gpas[d.GPA] = true
	}
	for k := 1; k <= len(deltas); k++ {
		inj.k, inj.at = k, 0
		rt.SetFaultInjector(inj)
		live, cached, views := rt.m.Host.LivePages(), rt.cache.Snapshot(), len(rt.views)
		_, err := rt.ImportViewState(&ViewState{App: "webapp", Cfg: ir.cfg, Deltas: deltas})
		if !errors.Is(err, errInjected) {
			t.Fatalf("k=%d: import error %v, want the injected failure", k, err)
		}
		if got := rt.m.Host.LivePages(); got != live {
			t.Errorf("k=%d: live pages %d after unwinding, want %d", k, got, live)
		}
		if !maps.Equal(rt.cache.Snapshot(), cached) {
			t.Errorf("k=%d: cache refcounts changed by the failed import", k)
		}
		if len(rt.views) != views {
			t.Errorf("k=%d: the failed import registered a view", k)
		}
	}
	rt.SetFaultInjector(nil)
	res, err := rt.ImportViewState(&ViewState{App: "webapp", Cfg: ir.cfg, Deltas: deltas})
	if err != nil || res.DeltasApplied != len(deltas) {
		t.Fatalf("import without faults: %v, %+v", err, res)
	}
}

// TestImportDeltasSkipTheCache: a delta page is written once into a
// private page and never interned, so each one whose staged content the
// cache does not hold saves the cache entry interning it would allocate,
// and nothing else an import allocates grows with its deltas. The view
// loads every base-kernel function, so each text page stages distinct
// pristine code and a 128-delta import must allocate at least 127 times
// fewer than a 1-delta import. Interning every staged page and then
// copying the delta pages on write allocates the same for both.
func TestImportDeltasSkipTheCache(t *testing.T) {
	ir := newImportRig(t, FastOptions())
	rt := ir.rt
	cfg := kview.NewView("webapp")
	for _, f := range textFuncs(t, ir.k) {
		cfg.Insert(kview.BaseKernel, f.Addr, f.End())
	}
	var err error
	imports := func(deltas []PageDelta) float64 {
		st := &ViewState{App: "webapp", Cfg: cfg, Deltas: deltas}
		return testing.AllocsPerRun(20, func() {
			res, e := rt.ImportViewState(st)
			if e == nil {
				e = rt.UnloadView(res.Index)
			}
			if e != nil {
				err = e
			}
		})
	}
	one, many := ir.deltas(1)[:1], ir.deltas(128)[:128]
	a, b := imports(one), imports(many)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("allocs/import: %.0f with 1 delta, %.0f with 128", a, b)
	if b > a+4-127 {
		t.Errorf("127 more deltas save %.0f allocations, want at least 127 (one cache entry each)", a-b)
	}
}

// TestImportStagesNoDeltaPages: an import writes nothing into the staged
// pages its deltas replace. With a delta for every page the view shadows,
// the stage hands out no page buffer; with a delta for every other page,
// it hands out exactly one for each code-bearing page left without a
// delta. LoadedBytes is the same as a plain LoadView's either way, since
// staging still counts the bytes it skips.
func TestImportStagesNoDeltaPages(t *testing.T) {
	ir := newImportRig(t, FastOptions())
	rt := ir.rt
	idx, err := rt.LoadView(ir.cfg)
	if err != nil {
		t.Fatal(err)
	}
	plainBytes := rt.ViewByIndex(idx).LoadedBytes
	var pages []uint32
	code := map[uint32]bool{}
	for gpa, buf := range rt.stage.buf {
		pages = append(pages, gpa)
		code[gpa] = buf != nil
	}
	slices.Sort(pages)
	if err := rt.UnloadView(idx); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		every int // a delta on every every-th shadowed page
	}{{"all", 1}, {"half", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			var deltas []PageDelta
			want := 0 // code-bearing pages without a delta
			for i, gpa := range pages {
				if i%tc.every == 0 {
					deltas = append(deltas, PageDelta{GPA: gpa, Data: bytes.Repeat([]byte{byte(i)}, mem.PageSize)})
				} else if code[gpa] {
					want++
				}
			}
			if tc.every > 1 && (want == 0 || len(deltas) == len(pages)) {
				t.Fatalf("%d of %d pages get deltas, %d code pages do not; the case proves nothing", len(deltas), len(pages), want)
			}
			res, err := rt.ImportViewState(&ViewState{App: "webapp", Cfg: ir.cfg, Deltas: deltas})
			if err != nil {
				t.Fatal(err)
			}
			if res.DeltasApplied != len(deltas) {
				t.Fatalf("applied %d of %d deltas", res.DeltasApplied, len(deltas))
			}
			if got := rt.stage.used; got != want {
				t.Errorf("import staged %d pages, want %d (the code pages without a delta)", got, want)
			}
			if got := rt.ViewByIndex(res.Index).LoadedBytes; got != plainBytes {
				t.Errorf("LoadedBytes = %d, want %d as for a plain load", got, plainBytes)
			}
			if err := rt.UnloadView(res.Index); err != nil {
				t.Fatal(err)
			}
		})
	}
}
