// Package profiler implements the paper's profiling phase (Section III-A):
// a QEMU-style whole-system monitor that records, at basic-block
// granularity, the kernel code executed in a target application's context,
// plus the kernel code executed in interrupt context during the session.
//
// Recording criteria (Section II): the block belongs to kernel space, and
// it executed in the target application's context. Module code is recorded
// relative to the module's base address. Interrupt-context code is kept in
// a per-session set that is merged into every exported kernel view, "to
// avoid having to repeatedly recover this code at runtime" (Section III-A3).
package profiler

import (
	"sort"

	"facechange/internal/hv"
	"facechange/internal/kernel"
	"facechange/internal/kview"
	"facechange/internal/mem"
)

type modRange struct {
	name string
	base uint32
	end  uint32
}

// Profiler records kernel basic blocks per tracked process.
type Profiler struct {
	k       *kernel.Kernel
	views   map[int]*kview.View // pid → app-context ranges
	irq     *kview.View         // session interrupt-context ranges
	mods    []modRange          // sorted by base
	modsGen int                 // module count at last refresh

	// Blocks counts recorded kernel basic blocks (all contexts).
	Blocks uint64
}

// New attaches a profiler to the kernel's machine. Profiling sessions
// should run on a machine configured like the paper's profiling
// environment (QEMU: ClockTSC).
func New(k *kernel.Kernel) *Profiler {
	p := &Profiler{
		k:     k,
		views: make(map[int]*kview.View),
		irq:   kview.NewView("irq-context"),
	}
	k.M.AddBlockListener(p.onBlock)
	return p
}

// Track starts recording kernel code executed in the task's context.
func (p *Profiler) Track(t *kernel.Task) {
	p.views[t.PID] = kview.NewView(t.Name)
}

func (p *Profiler) refreshModules() {
	mods := p.k.Modules()
	p.mods = p.mods[:0]
	for _, m := range mods {
		if !m.Visible {
			// The profiling environment is assumed clean (Section II-B);
			// hidden modules simply are not in the guest's module list.
			continue
		}
		p.mods = append(p.mods, modRange{name: m.Name, base: m.Base, end: m.Base + m.Size})
	}
	sort.Slice(p.mods, func(i, j int) bool { return p.mods[i].base < p.mods[j].base })
	p.modsGen = len(mods)
}

// classify maps a kernel-space block to its space name and relative
// addresses.
func (p *Profiler) classify(start, end uint32) (space string, s, e uint32, ok bool) {
	if start >= mem.KernelTextGVA && start < mem.KernelTextGVA+mem.KernelTextMax {
		return kview.BaseKernel, start, end, true
	}
	if mem.IsModuleGVA(start) {
		if len(p.k.Modules()) != p.modsGen {
			p.refreshModules()
		}
		i := sort.Search(len(p.mods), func(i int) bool { return p.mods[i].end > start })
		if i < len(p.mods) && p.mods[i].base <= start {
			m := p.mods[i]
			return m.name, start - m.base, end - m.base, true
		}
	}
	return "", 0, 0, false
}

func (p *Profiler) onBlock(ctx hv.ExecContext, start, end uint32) {
	if start < mem.KernelBase {
		return // criterion 1: kernel space only
	}
	var target *kview.View
	if ctx.IRQ {
		target = p.irq
	} else {
		v, ok := p.views[ctx.PID]
		if !ok {
			return // criterion 2: target application's context only
		}
		target = v
	}
	space, s, e, ok := p.classify(start, end)
	if !ok {
		return
	}
	p.Blocks++
	target.Insert(space, s, e)
}

// ViewFor exports the kernel view configuration for a tracked pid: the
// application's ranges merged with the session's interrupt-context ranges.
func (p *Profiler) ViewFor(pid int) (*kview.View, bool) {
	v, ok := p.views[pid]
	if !ok {
		return nil, false
	}
	out := kview.UnionViews(v.App, v, p.irq)
	out.App = v.App
	return out, true
}
