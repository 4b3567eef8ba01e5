package core

import (
	"fmt"

	"facechange/internal/hv"
	"facechange/internal/mem"
	"facechange/internal/telemetry"
)

// OnAddrTrap implements hv.ExitHandler: Algorithm 1's
// HANDLE_KERNEL_VIEW_TRAP. It fires at context_switch (step 2 of Figure 2)
// and at resume_userspace.
func (r *Runtime) OnAddrTrap(m *hv.Machine, cpu *hv.CPU) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.cpus[cpu.ID]
	switch cpu.EIP {
	case r.ctxSwitchAddr:
		_, comm, err := r.readRQCurrBytes(cpu)
		if err != nil {
			return err
		}
		idx := r.viewIndexBytes(comm)
		if r.opts.SharedCore && idx != FullView {
			// Shared-core policy: resolve the task's view against this
			// vCPU's co-scheduled member set (possibly loading a merged
			// union view); a covered task resolves to the active view and
			// elides below. The adaptive variant additionally gates new
			// merges on switch pressure and honors the suspect deny-list.
			idx = r.sharedCoreResolve(idx, st)
		}
		if r.opts.SameViewElision && idx == st.active {
			// Previous and next process use the same kernel view: avoid
			// one additional switch (Section III-B2).
			if st.resumeArmed {
				st.resumeArmed = false
				r.disarmResume()
			}
			r.noteElided(cpu, idx)
			return nil
		}
		if idx == FullView || !r.opts.SwitchAtResume {
			if st.resumeArmed {
				st.resumeArmed = false
				r.disarmResume()
			}
			return r.switchTo(cpu, idx)
		}
		// Custom view: defer the switch to resume_userspace so pending
		// interrupts for the outgoing view are not missed.
		if !st.resumeArmed {
			st.resumeArmed = true
			r.armResume()
		}
		st.last = idx
		return nil
	case r.resumeAddr:
		if !st.resumeArmed {
			return nil // another vCPU armed the shared breakpoint
		}
		st.resumeArmed = false
		r.disarmResume()
		return r.switchTo(cpu, st.last)
	default:
		return fmt.Errorf("core: unexpected address trap at %#x", cpu.EIP)
	}
}

// switchTo points the vCPU's EPT at the kernel view with the given index
// (steps 3A/3B of Figure 2) and charges the simulated cost of the EPT
// updates.
//
// Installing a custom view is fallible (an attached injector models failed
// EPT remaps); the error path falls back to the full kernel view, which is
// an infallible identity restore, so a vCPU is never left half-mapped and
// its active index always names a live view.
func (r *Runtime) switchTo(cpu *hv.CPU, idx int) error {
	st := r.cpus[cpu.ID]
	if st.active == idx && r.opts.SameViewElision {
		// Redundant switch elided. Without the optimization the EPT
		// entries are rewritten (and paid for) even when nothing changes,
		// which is what the ablation benchmark measures.
		r.noteElided(cpu, idx)
		return nil
	}
	if idx != FullView && r.inj != nil {
		if err := r.inj.Fault(mem.FaultEPTRemap, uint32(idx), 0); err != nil {
			r.applySwitch(cpu, FullView)
			return fmt.Errorf("core: switch cpu%d to view %d: %w", cpu.ID, idx, err)
		}
	}
	r.applySwitch(cpu, idx)
	return nil
}

// applySwitch performs the EPT rewrites for a committed switch decision.
func (r *Runtime) applySwitch(cpu *hv.CPU, idx int) {
	st := r.cpus[cpu.ID]
	if st.active == idx && r.opts.SameViewElision {
		// The fault fallback lands here when the vCPU is already on the
		// full view: nothing to rewrite.
		return
	}
	old := r.viewByIndex(st.active)
	next := r.viewByIndex(idx)

	if r.opts.SnapshotSwitch {
		// Fast path: the whole switch — base kernel text and every module
		// page — is one EPTP-style root swap onto the view's root. nil
		// reverts the vCPU to its private identity root (the full view).
		if next != nil {
			cpu.EPT.SetRoot(next.root)
		} else {
			cpu.EPT.SetRoot(nil)
		}
		r.m.Charge(r.m.Cost.EPTPSwitch)
		st.active = idx
		r.ViewSwitches++
		r.emitSwitch(cpu, idx, telemetry.KindEPTPSwap)
		return
	}

	var pdOps, pteOps uint64

	// 3A: base kernel code — swap the page-directory entries covering the
	// text (or every PTE in the ablation configuration).
	if r.opts.PDGranularSwitch {
		for _, pdBase := range r.pdBases {
			if next != nil {
				cpu.EPT.SetPD(pdBase, next.root.PD(pdBase))
			} else {
				cpu.EPT.SetPD(pdBase, nil)
			}
			pdOps++
		}
	} else {
		for gpa := mem.KernelTextGPA; gpa < mem.KernelTextGPA+r.textSize; gpa += mem.PageSize {
			if next != nil {
				cpu.EPT.SetPTE(gpa, next.root.Translate(gpa))
			} else {
				cpu.EPT.ClearPTE(gpa)
			}
			pteOps++
		}
	}

	// 3B: kernel module code pages are scattered in the kernel heap and
	// share PD entries with kernel data, so they are remapped
	// individually: a merge of the two views' ascending page lists clears
	// the pages only the old view shadows and maps every page of the next.
	var oldMods, nextMods []uint32
	if old != nil {
		oldMods = old.mods
	}
	if next != nil {
		nextMods = next.mods
	}
	for i, j := 0, 0; i < len(oldMods) || j < len(nextMods); pteOps++ {
		if j == len(nextMods) || i < len(oldMods) && oldMods[i] < nextMods[j] {
			cpu.EPT.ClearPTE(oldMods[i])
			i++
			continue
		}
		if i < len(oldMods) && oldMods[i] == nextMods[j] {
			i++
		}
		cpu.EPT.SetPTE(nextMods[j], next.root.Translate(nextMods[j]))
		j++
	}

	r.m.Charge(pdOps*r.m.Cost.EPTPDSwap + pteOps*r.m.Cost.EPTPTESwap)
	st.active = idx
	r.ViewSwitches++
	r.emitSwitch(cpu, idx, telemetry.KindSwitch)
}

// noteElided accounts a skipped redundant switch — the target view was
// already installed — and streams a cheap KindElidedSwitch event when an
// emitter is attached (no root swap, no EPT write, no charge).
func (r *Runtime) noteElided(cpu *hv.CPU, idx int) {
	r.ElidedSwitches++
	r.emitSwitch(cpu, idx, telemetry.KindElidedSwitch)
}

// emitSwitch streams a committed switch: KindEPTPSwap for the snapshot
// root-swap path, KindSwitch for the legacy per-entry rewrite path.
func (r *Runtime) emitSwitch(cpu *hv.CPU, idx int, kind telemetry.Kind) {
	if r.emit == nil {
		return
	}
	var view string
	if v := r.viewByIndex(idx); v != nil {
		view = v.Name
	}
	r.emit.Emit(telemetry.Event{
		Kind:  kind,
		Cycle: r.m.Cycles(),
		CPU:   cpu.ID,
		View:  view,
		N:     uint64(idx),
	})
}

// ActiveView returns the view index active on a vCPU.
func (r *Runtime) ActiveView(cpuID int) int { return r.cpus[cpuID].active }
