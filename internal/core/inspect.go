// White-box inspection and self-check API for the fault-injection
// simulator (internal/sim). These helpers expose exactly the runtime
// bookkeeping the simulator's invariant checkers need — switch state,
// shared-page sets, EPT agreement — without leaking mutable internals.
package core

import (
	"fmt"
	"slices"

	"facechange/internal/mem"
)

// LoadedIndices returns the indices of all currently loaded views, in
// ascending order.
func (r *Runtime) LoadedIndices() []int { return slices.Clone(r.live) }

// TextSize returns the base kernel text size the runtime shadows.
func (r *Runtime) TextSize() uint32 { return r.textSize }

// SharedPageSet returns a copy of the view's cache-shared page set (GPA
// pages whose shadow HPA is an immutable cache page).
func (v *LoadedView) SharedPageSet() map[uint32]bool {
	out := make(map[uint32]bool)
	v.Pages(func(gpa, _ uint32) bool {
		if !v.isPrivate(gpa) {
			out[gpa] = true
		}
		return true
	})
	return out
}

// CheckSwitchState verifies the per-vCPU switch bookkeeping: every active
// and deferred index names a live view (or the full view), the armed
// flags sum to the shared breakpoint refcount, and a disabled runtime
// holds no armed traps. It returns the first inconsistency found.
func (r *Runtime) CheckSwitchState() error {
	armed := 0
	for i, st := range r.cpus {
		if st.active != FullView && r.ViewByIndex(st.active) == nil {
			return fmt.Errorf("core: cpu%d active view %d is not loaded", i, st.active)
		}
		if st.last != FullView && r.ViewByIndex(st.last) == nil {
			return fmt.Errorf("core: cpu%d deferred view %d is not loaded", i, st.last)
		}
		if st.resumeArmed {
			armed++
		}
	}
	if armed != r.resumeTrapRefs {
		return fmt.Errorf("core: %d vCPUs armed but resume refcount is %d", armed, r.resumeTrapRefs)
	}
	if !r.enabled && r.resumeTrapRefs != 0 {
		return fmt.Errorf("core: runtime disabled with resume refcount %d", r.resumeTrapRefs)
	}
	return nil
}

// CheckVCPUMappings verifies that a vCPU's EPT agrees with its active
// view for the given sample of GPA pages: every page must translate as
// the active view's root does (shadow pages for text and module pages,
// identity elsewhere), and every page under the full view identity. This
// is the freed-page tripwire: an EPT still pointing at a released shadow
// page disagrees with the live view.
func (r *Runtime) CheckVCPUMappings(cpuID int, samples []uint32) error {
	cpu := r.m.CPUs[cpuID]
	v := r.ViewByIndex(r.cpus[cpuID].active)
	if r.opts.SnapshotSwitch {
		// Under snapshot switching, translations agreeing is not enough:
		// the vCPU must reference exactly its active view's root (nil for
		// the full view), so a COW retarget of the root reaches it.
		var want *mem.Root
		if v != nil {
			want = v.root
		}
		if got := cpu.EPT.Root(); got != want {
			return fmt.Errorf("core: cpu%d EPT root %p does not match active view %d's root %p",
				cpuID, got, r.cpus[cpuID].active, want)
		}
	}
	for _, gpa := range samples {
		page := mem.PageAlignDown(gpa)
		want := page // identity
		if v != nil {
			want = v.root.Translate(page)
		}
		if got, _ := cpu.EPT.TranslatePage(page); got != want {
			return fmt.Errorf("core: cpu%d EPT maps %#x → %#x, active view %d expects %#x",
				cpuID, page, got, r.cpus[cpuID].active, want)
		}
	}
	return nil
}
