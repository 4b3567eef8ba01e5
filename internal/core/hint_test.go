package core

import (
	"bytes"
	"maps"
	"math/bits"
	"testing"

	"facechange/internal/kernel"
	"facechange/internal/kview"
	"facechange/internal/mem"
)

// viewBytes collects a view's shadow page contents (GPA page → bytes).
func viewBytes(t *testing.T, rt *Runtime, v *LoadedView) map[uint32][]byte {
	t.Helper()
	out := make(map[uint32][]byte)
	v.Pages(func(gpa, hpa uint32) bool {
		page := make([]byte, mem.PageSize)
		if err := rt.m.Host.Read(hpa, page); err != nil {
			t.Fatal(err)
		}
		out[gpa] = page
		return true
	})
	return out
}

// TestHotPlugHintsMatchFreshLoad: generation N of an app, holding pages it
// recovered copy-on-write, is still loaded when generation N+1 (N plus the
// recovered functions) hot-plugs, so N+1 interns with N's pages as hints.
// N+1's shadow bytes must equal a fresh runtime's load of N+1 alone, every
// page of it must be a cache page, and none may be a page N holds
// privately, although some of N's private pages hold exactly N+1's bytes.
// Unloading both generations must give back every cache reference.
func TestHotPlugHintsMatchFreshLoad(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts Options
	}{{"snapshot", FastOptions()}, {"legacy", DefaultOptions()}} {
		t.Run(mode.name, func(t *testing.T) {
			ir := newImportRig(t, mode.opts)
			rt := ir.rt
			before := rt.cache.Snapshot()
			genN, err := rt.LoadView(ir.cfg)
			if err != nil {
				t.Fatal(err)
			}
			vN := rt.ViewByIndex(genN)

			// Recover excluded functions into N, text and module, and
			// add them to N+1's configuration.
			next := kview.UnionViews(ir.cfg.App, ir.cfg)
			next.App = ir.cfg.App
			var extra []*kernel.Func
			funcs := textFuncs(t, ir.k)
			for i := 1; i < len(funcs) && len(extra) < 6; i += 36 {
				extra = append(extra, funcs[i]) // i%4 == 1: not in cfg
			}
			for _, m := range ir.k.Modules() {
				configured := moduleFunc(t, ir.k, m.Name)
				for _, f := range ir.k.Syms.Funcs() {
					if f.Module == m.Name && f.Size >= 16 && f != configured {
						extra = append(extra, f)
						break
					}
				}
			}
			bases := map[string]uint32{kview.BaseKernel: 0}
			for _, m := range ir.k.Modules() {
				bases[m.Name] = m.Base
			}
			for _, f := range extra {
				if err := rt.copyPhys(rt.arenas[0], vN, f.Addr, f.Size); err != nil {
					t.Fatal(err)
				}
				next.Insert(f.Module, f.Addr-bases[f.Module], f.End()-bases[f.Module])
			}
			privN := map[uint32]uint32{} // N's private HPA → GPA page
			vN.Pages(func(gpa, hpa uint32) bool {
				if vN.isPrivate(gpa) {
					privN[hpa] = gpa
				}
				return true
			})
			if len(privN) == 0 {
				t.Fatal("precondition: generation N holds no private page")
			}
			bytesN := viewBytes(t, rt, vN)

			genN1, err := rt.LoadView(next)
			if err != nil {
				t.Fatal(err)
			}
			vN1 := rt.ViewByIndex(genN1)
			got := viewBytes(t, rt, vN1)

			fresh := newImportRig(t, mode.opts)
			fidx, err := fresh.rt.LoadView(next)
			if err != nil {
				t.Fatal(err)
			}
			want := viewBytes(t, fresh.rt, fresh.rt.ViewByIndex(fidx))
			if !maps.EqualFunc(got, want, bytes.Equal) {
				t.Fatalf("hot-plugged N+1 differs from a fresh load of N+1 (%d vs %d pages)", len(got), len(want))
			}

			lendable := 0
			for _, gpa := range privN {
				if bytes.Equal(bytesN[gpa], got[gpa]) {
					lendable++
				}
			}
			if lendable == 0 {
				t.Fatal("precondition: no private page of N holds N+1's bytes")
			}
			cached := rt.cache.Snapshot()
			vN1.Pages(func(gpa, hpa uint32) bool {
				if gpa, ok := privN[hpa]; ok {
					t.Errorf("N+1 maps N's private page %#x (GPA %#x)", hpa, gpa)
				}
				if !isShared(vN1, gpa) || cached[hpa] == 0 {
					t.Errorf("N+1 page %#x: shared %v, %d cache refs; want an interned page", gpa, isShared(vN1, gpa), cached[hpa])
				}
				return true
			})

			for _, idx := range []int{genN, genN1} {
				if err := rt.UnloadView(idx); err != nil {
					t.Fatal(err)
				}
			}
			if after := rt.cache.Snapshot(); !maps.Equal(before, after) {
				t.Errorf("cache refs after unloading both generations: %v, want %v", after, before)
			}
		})
	}
}

// TestImportMarksExactlyDeltasPrivate: an import whose hints come from a
// resident view of the same configuration sets the private bit of exactly
// its delta pages, and pageIndex agrees with Pages order on every page.
func TestImportMarksExactlyDeltasPrivate(t *testing.T) {
	ir := newImportRig(t, FastOptions())
	rt := ir.rt
	if _, err := rt.LoadView(ir.cfg); err != nil {
		t.Fatal(err)
	}
	deltas := ir.deltas(8)
	isDelta := map[uint32]bool{}
	for _, d := range deltas {
		isDelta[d.GPA] = true
	}
	res, err := rt.ImportViewState(&ViewState{App: "webapp", Cfg: ir.cfg, Deltas: deltas})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeltasApplied != len(deltas) {
		t.Fatalf("applied %d deltas, want %d", res.DeltasApplied, len(deltas))
	}
	v := rt.ViewByIndex(res.Index)
	i := 0
	v.Pages(func(gpa, _ uint32) bool {
		if got, ok := v.pageIndex(gpa); !ok || got != i {
			t.Errorf("pageIndex(%#x) = %d, %v; Pages order says %d", gpa, got, ok, i)
		}
		if v.private.has(i) != isDelta[gpa] {
			t.Errorf("page %#x: private %v, delta %v", gpa, v.private.has(i), isDelta[gpa])
		}
		i++
		return true
	})
	set := 0
	for _, w := range v.private {
		set += bits.OnesCount64(w)
	}
	if set != len(deltas) {
		t.Errorf("%d private bits set, want %d (one per delta)", set, len(deltas))
	}
}
