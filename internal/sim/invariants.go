package sim

import (
	"fmt"

	"facechange/internal/core"
	"facechange/internal/isa"
	"facechange/internal/kview"
	"facechange/internal/mem"
)

// CheckAll runs every invariant checker: switch state, cache refcount
// balance, full EPT agreement, and per-view byte isolation and recovery
// fidelity. It is the full sweep run every CheckEvery steps, at the end of
// a run, and by white-box tests.
func (s *Simulator) CheckAll() error {
	if err := s.rt.CheckSwitchState(); err != nil {
		return err
	}
	if err := s.checkCacheBalance(); err != nil {
		return err
	}
	if err := s.checkSharedCore(); err != nil {
		return err
	}
	if err := s.checkEPT(true); err != nil {
		return err
	}
	for _, idx := range sortedInts(s.rt.LoadedIndices()) {
		v := s.rt.ViewByIndex(idx)
		pages := s.shadowPages(v)
		if err := s.checkIsolation(v, pages); err != nil {
			return err
		}
		if err := s.checkFidelity(v, pages); err != nil {
			return err
		}
	}
	return nil
}

// checkCacheBalance verifies that the shadow-page cache tracks exactly the
// references the loaded views hold: every cache-shared page a view maps
// accounts for one reference, no cached page has more or fewer, and no
// private (copy-on-write) page is still tracked. A mismatch is a leak or a
// double free.
func (s *Simulator) checkCacheBalance() error {
	want := map[uint32]int{}
	private := map[uint32]bool{}
	for _, idx := range s.rt.LoadedIndices() {
		v := s.rt.ViewByIndex(idx)
		shared := v.SharedPageSet()
		v.Pages(func(gpa, hpa uint32) bool {
			if shared[gpa] {
				want[hpa]++
			} else {
				private[hpa] = true
			}
			return true
		})
	}
	snap := s.rt.Cache().Snapshot()
	for hpa, refs := range snap {
		if want[hpa] != refs {
			return fmt.Errorf("sim: cache page %#x holds %d refs but views account for %d (leak)", hpa, refs, want[hpa])
		}
	}
	for hpa, refs := range want {
		if got, ok := snap[hpa]; !ok || got != refs {
			return fmt.Errorf("sim: views hold %d refs to page %#x but cache tracks %d (double free)", refs, hpa, snap[hpa])
		}
	}
	for hpa := range private {
		if _, ok := snap[hpa]; ok {
			return fmt.Errorf("sim: private page %#x is still tracked by the cache", hpa)
		}
	}
	return nil
}

// checkSharedCore verifies the shared-core merge registry against the
// loaded-view set: every merged view and every one of its member base
// views is live (the retirement path in UnloadView must not leave
// dangling registry entries), member sets are genuine merges (≥2 sorted
// distinct members), and the merged view's configuration covers each
// member's configured ranges completely — a union that dropped ranges
// would UD2-trap code its members legitimately expose. Merged views are
// ordinary refcounted views, so checkCacheBalance already audits their
// shadow pages. The registry is empty unless Config.SharedCore is set.
func (s *Simulator) checkSharedCore() error {
	deny := make(map[int]bool)
	for _, i := range s.rt.SharedSuspects() {
		deny[i] = true
	}
	for mi, set := range s.rt.MergedViews() {
		mv := s.rt.ViewByIndex(mi)
		if mv == nil {
			return fmt.Errorf("sim: merge registry names view index %d which is not loaded", mi)
		}
		if len(set) < 2 {
			return fmt.Errorf("sim: merged view %q (index %d) has %d members; a merge needs at least 2", mv.Name, mi, len(set))
		}
		prev := -1
		for _, m := range set {
			if m <= prev {
				return fmt.Errorf("sim: merged view %q member set %v is not sorted-distinct", mv.Name, set)
			}
			prev = m
			bv := s.rt.ViewByIndex(m)
			if bv == nil {
				return fmt.Errorf("sim: merged view %q (index %d) references unloaded member %d", mv.Name, mi, m)
			}
			if deny[m] {
				// A suspect-split member must never survive in (or rejoin)
				// a union: the split retires existing merges and the
				// deny-list blocks new ones.
				return fmt.Errorf("sim: merged view %q (index %d) still counts suspect-split member %d (%s)", mv.Name, mi, m, bv.Name)
			}
			if kview.IntersectViews(mv.Cfg, bv.Cfg).Size() != bv.Cfg.Size() {
				return fmt.Errorf("sim: merged view %q does not cover member %q: union lost ranges", mv.Name, bv.Name)
			}
		}
	}
	return nil
}

// checkEPT verifies that every vCPU's EPT agrees with its active view —
// the freed-page tripwire: a mapping left pointing at a released (and
// possibly reused) shadow page disagrees with the live view. The sampled
// form checks a few random text pages plus the first 64 module pages of
// the loaded views in index and GPA order (a fixed set, so a failing seed
// fails again on replay); the full form checks every text page too.
func (s *Simulator) checkEPT(full bool) error {
	var samples []uint32
	if full {
		for gpa := mem.KernelTextGPA; gpa < mem.KernelTextGPA+s.textSize; gpa += mem.PageSize {
			samples = append(samples, gpa)
		}
	} else {
		for i := 0; i < 8; i++ {
			samples = append(samples, mem.KernelTextGPA+uint32(s.crng.Intn(int(s.textSize))))
		}
	}
	modSamples := 0
	for _, idx := range s.rt.LoadedIndices() {
		s.rt.ViewByIndex(idx).Pages(func(gpa, _ uint32) bool {
			if gpa < mem.ModuleGPA {
				return true // text, sampled above
			}
			if modSamples == 64 {
				return false
			}
			samples = append(samples, gpa)
			modSamples++
			return true
		})
	}
	for cpuID := range s.k.M.CPUs {
		if err := s.rt.CheckVCPUMappings(cpuID, samples); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	return nil
}

// shadowPages collects a view's shadow pages (GPA page → shadow HPA) for
// the byte-level checks.
func (s *Simulator) shadowPages(v *core.LoadedView) map[uint32]uint32 {
	pages := make(map[uint32]uint32)
	v.Pages(func(gpa, hpa uint32) bool {
		pages[gpa] = hpa
		return true
	})
	return pages
}

// ud2At is the UD2 filler pattern byte at a page offset: views tile
// excluded pages with the two-byte UD2 opcode.
func ud2At(off int) byte {
	if off%2 == 0 {
		return isa.UD2[0]
	}
	return isa.UD2[1]
}

// checkIsolation sweeps every shadow byte of a view: each must equal
// either the pristine kernel byte (loaded or recovered code, module-page
// heap fringe) or the UD2 filler pattern (excluded code). Any other value
// means foreign bytes landed in the view — a corrupted build or a
// recovery that wrote without recording.
//
// The pristine reference is guest RAM itself, read identity from host
// memory: shadow pages live above GuestRAMSize, so guest RAM is never
// shadow-written and stays pristine by construction.
func (s *Simulator) checkIsolation(v *core.LoadedView, pages map[uint32]uint32) error {
	pristine := make([]byte, mem.PageSize)
	shadow := make([]byte, mem.PageSize)
	for gpa, hpa := range pages {
		if err := s.k.Host.Read(gpa, pristine); err != nil {
			return fmt.Errorf("sim: pristine read %#x: %w", gpa, err)
		}
		if err := s.k.Host.Read(hpa, shadow); err != nil {
			return fmt.Errorf("sim: shadow read %#x: %w", hpa, err)
		}
		for i := range shadow {
			if shadow[i] != pristine[i] && shadow[i] != ud2At(i) {
				return fmt.Errorf("sim: view %q isolation broken at gpa %#x+%#x: shadow byte %#02x is neither pristine %#02x nor UD2 filler",
					v.Name, gpa, i, shadow[i], pristine[i])
			}
		}
	}
	return nil
}

// checkFidelity verifies that every range the runtime recorded as
// recovered is byte-identical to the pristine kernel code — the paper's
// core promise that recovered views converge on the true kernel, never an
// approximation of it.
func (s *Simulator) checkFidelity(v *core.LoadedView, pages map[uint32]uint32) error {
	rec := v.Recovered()
	if rec == nil {
		return nil
	}
	for _, space := range rec.SpaceNames() {
		base := uint32(0) // base-kernel ranges are absolute GVAs
		if space != kview.BaseKernel {
			found := false
			for _, m := range s.k.Modules() { // includes hidden modules
				if m.Name == space {
					base, found = m.Base, true
					break
				}
			}
			if !found {
				return fmt.Errorf("sim: view %q recovered range in unknown module %q", v.Name, space)
			}
		}
		for _, rg := range rec.Ranges(space) {
			gva := base + rg.Start
			n := int(rg.Size())
			pristine := make([]byte, n)
			if err := s.k.Host.Read(simGPA(gva), pristine); err != nil {
				return fmt.Errorf("sim: pristine read %#x: %w", gva, err)
			}
			shadow := make([]byte, n)
			if err := s.readShadow(pages, gva, shadow); err != nil {
				return fmt.Errorf("sim: view %q: %w", v.Name, err)
			}
			for i := range shadow {
				if shadow[i] != pristine[i] {
					return fmt.Errorf("sim: view %q recovery infidelity at %#x: shadow %#02x != pristine %#02x (range [%#x,%#x) in %q)",
						v.Name, gva+uint32(i), shadow[i], pristine[i], rg.Start, rg.End, space)
				}
			}
		}
	}
	return nil
}

// readShadow reads bytes at a kernel GVA out of a view's shadow pages
// (host-side, no EPT).
func (s *Simulator) readShadow(pages map[uint32]uint32, gva uint32, buf []byte) error {
	off, n := 0, len(buf)
	for n > 0 {
		gpaPage := mem.PageAlignDown(simGPA(gva))
		hpa, ok := pages[gpaPage]
		if !ok {
			return fmt.Errorf("no shadow page for %#x", gva)
		}
		pageOff := gva & (mem.PageSize - 1)
		ln := int(mem.PageSize - pageOff)
		if ln > n {
			ln = n
		}
		if err := s.k.Host.Read(hpa+pageOff, buf[off:off+ln]); err != nil {
			return err
		}
		gva += uint32(ln)
		off += ln
		n -= ln
	}
	return nil
}

// simGPA maps a kernel-space GVA to its guest physical address (the same
// layout rule the runtime uses: direct map for lowmem, the module window
// for vmalloc space).
func simGPA(gva uint32) uint32 {
	if mem.IsModuleGVA(gva) {
		return mem.ModuleGPA + (gva - mem.ModuleGVA)
	}
	return gva - mem.KernelBase
}
