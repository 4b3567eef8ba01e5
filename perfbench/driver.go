package main

import (
	"fmt"

	"facechange/internal/core"
	"facechange/internal/hv"
	"facechange/internal/kernel"
	"facechange/internal/load"
	"facechange/internal/mem"
)

// The replay driver. internal/load's replay rig is unexported, so the
// benchmark carries this copy: it fabricates the VMI state of a scheduler
// pick, the resume trap and the UD2 frame chain exactly as load.rig does
// and calls the runtime's public trap entry points. TestDriverParity
// holds it to load.Run's counters and charged-cycle percentiles.

// appState is one app's replay state on the runtime hosting it.
type appState struct {
	*appSpec
	viewIdx   int
	recovered []bool // excluded-pool index → already recovered (warm)
	events    int    // events since the app's session began (session-churn)
}

func (st *appState) resetRecovered() { st.recovered = make([]bool, len(st.excluded)) }

// driverCounters are the replay's own counts, summed like fcload's.
type driverCounters struct {
	events, warm, idle             uint64
	recoveries, instant, interrupt uint64
	switches, elided, elapsed      uint64
}

// rig drives one runtime through its share of a trace.
type rig struct {
	k          *kernel.Kernel
	rt         *core.Runtime
	ctxAddr    uint32
	resumeAddr uint32
	apps       map[uint8]*appState
	pend       []bool // per-vCPU: a deferred switch is waiting for resume
	tr         *tracer
	ctr        driverCounters
	// cycles collects each timed op's charged sojourn cycles (what
	// fcload's aggregate "all" histogram records).
	cycles []uint64
}

func newRig(k *kernel.Kernel, rt *core.Runtime) *rig {
	return &rig{
		k:          k,
		rt:         rt,
		ctxAddr:    k.Syms.MustAddr("context_switch"),
		resumeAddr: k.Syms.MustAddr("resume_userspace"),
		apps:       make(map[uint8]*appState),
		pend:       make([]bool, len(k.M.CPUs)),
	}
}

func (g *rig) addApp(spec *appSpec, viewIdx int) {
	st := &appState{appSpec: spec, viewIdx: viewIdx}
	st.resetRecovered()
	g.apps[uint8(spec.idx)] = st
}

// trap fires an address trap through a span of layer l.
func (g *rig) trap(l layer, cpu *hv.CPU) error {
	s := g.tr.begin(l)
	err := g.rt.OnAddrTrap(g.k.M, cpu)
	g.tr.end(s)
	return err
}

// ctxSwitch fabricates a scheduler pick (task struct + rq->curr, the VMI
// state a live guest presents) and fires the context-switch trap.
func (g *rig) ctxSwitch(cpuID int, pid int, comm string) error {
	slot := 40 + cpuID
	taskGVA := kernel.VMITaskBase + uint32(slot)*kernel.VMITaskStride
	base := taskGVA - mem.KernelBase
	if err := g.k.Host.WriteU32(base+kernel.VMITaskPIDOff, uint32(pid)); err != nil {
		return err
	}
	var commBuf [kernel.VMICommLen]byte
	copy(commBuf[:], comm)
	if err := g.k.Host.Write(base+kernel.VMITaskCommOff, commBuf[:]); err != nil {
		return err
	}
	ptr := kernel.VMIRQCurrBase - mem.KernelBase + uint32(cpuID)*4
	if err := g.k.Host.WriteU32(ptr, taskGVA); err != nil {
		return err
	}
	cpu := g.k.M.CPUs[cpuID]
	cpu.EIP = g.ctxAddr
	g.k.M.Charge(g.k.M.Cost.VMExit)
	return g.trap(lSwitch, cpu)
}

// resume fires the resume-userspace trap.
func (g *rig) resume(cpuID int) error {
	cpu := g.k.M.CPUs[cpuID]
	cpu.EIP = g.resumeAddr
	g.k.M.Charge(g.k.M.Cost.VMExit)
	return g.trap(lResume, cpu)
}

func (g *rig) covered(cpuID int, st *appState) bool { return g.rt.ActiveView(cpuID) == st.viewIdx }

// ensureActive lands the app's view on the vCPU (committing a deferred
// switch if the runtime armed one) so a fabricated UD2 hits the app's
// restricted mapping.
func (g *rig) ensureActive(cpuID int, st *appState) error {
	if g.covered(cpuID, st) {
		return nil
	}
	if err := g.ctxSwitch(cpuID, 100+st.idx, st.name); err != nil {
		return err
	}
	if !g.covered(cpuID, st) {
		if err := g.resume(cpuID); err != nil {
			return err
		}
	}
	g.pend[cpuID] = false
	if !g.covered(cpuID, st) {
		return fmt.Errorf("perfbench: view %s not active after switch", st.name)
	}
	return nil
}

// ud2At fabricates a kernel stack whose frames return into the app's own
// view code and fires the invalid-opcode exit at fn's entry.
func (g *rig) ud2At(cpuID int, st *appState, fn *kernel.Func, arg uint16) (bool, error) {
	cpu := g.k.M.CPUs[cpuID]
	stackGVA := mem.KernelStackGVA + uint32(48+cpuID)*mem.KernelStackSize
	ebp := stackGVA + 0x100
	nframes := int(arg>>8) % 4
	frame := ebp
	for i := 0; i < nframes; i++ {
		caller := st.included[(int(arg)*7+i*13)%len(st.included)]
		// Even offsets only: odd return sites over real code could read
		// "0B 0F" and instant-recover spans the replay does not track.
		ret := caller.Addr + (uint32(arg)%caller.Size)&^1
		next := frame + 0x40
		if i == nframes-1 {
			next = 0
		}
		if err := g.k.Host.WriteU32(frame-mem.KernelBase, next); err != nil {
			return false, err
		}
		if err := g.k.Host.WriteU32(frame+4-mem.KernelBase, ret); err != nil {
			return false, err
		}
		frame = next
	}
	if nframes == 0 {
		if err := g.k.Host.WriteU32(ebp-mem.KernelBase, 0); err != nil {
			return false, err
		}
	}
	cpu.EBP = ebp
	cpu.EIP = fn.Addr
	g.k.M.Charge(g.k.M.Cost.VMExit)
	s := g.tr.begin(lRecovery)
	handled, err := g.rt.OnInvalidOpcode(g.k.M, cpu)
	g.tr.end(s)
	return handled, err
}

// resetLogEvery bounds the runtime's recovery log during long replays.
const resetLogEvery = 4096

func (g *rig) drainLog() {
	g.ctr.recoveries += g.rt.Recoveries
	g.ctr.instant += g.rt.InstantRecoveries
	g.ctr.interrupt += g.rt.InterruptRecoveries
	g.rt.ResetLog()
}

// step replays one trace event: simulated-time pacing as fcload does
// (open-loop arrivals idle the machine forward; the charged sojourn
// includes queueing), then the event's traps. It returns the event's
// charged sojourn cycles and whether the event is a timed op.
func (g *rig) step(ev load.Event) (uint64, bool, error) {
	st, ok := g.apps[ev.App]
	if !ok {
		return 0, false, fmt.Errorf("perfbench: event for unassigned app %d", ev.App)
	}
	m := g.k.M
	cpuID := int(ev.CPU) % len(m.CPUs)
	arrival := m.Cycles()
	if ev.At > arrival {
		m.Charge(ev.At - arrival)
		arrival = ev.At
	} else {
		arrival = ev.At
	}
	g.ctr.events++
	if g.ctr.events%resetLogEvery == 0 {
		defer g.drainLog()
	}
	st.events++
	switch ev.Op {
	case load.OpSwitch:
		if err := g.ctxSwitch(cpuID, 100+st.idx, st.name); err != nil {
			return 0, false, err
		}
		g.pend[cpuID] = !g.covered(cpuID, st)
	case load.OpResume:
		if !g.pend[cpuID] {
			// No deferred switch pending: the breakpoint is not armed,
			// a live guest would not exit here.
			return 0, false, nil
		}
		if err := g.resume(cpuID); err != nil {
			return 0, false, err
		}
		g.pend[cpuID] = false
	case load.OpRecovery:
		if err := g.ensureActive(cpuID, st); err != nil {
			return 0, false, err
		}
		ti := 0
		if len(st.excluded) > 0 {
			ti = int(ev.Arg) % len(st.excluded)
		}
		if len(st.excluded) == 0 || st.recovered[ti] {
			// Already in the view (recovered, or every eligible function
			// promoted): the code runs without trapping.
			g.ctr.warm++
			return 0, false, nil
		}
		handled, err := g.ud2At(cpuID, st, st.excluded[ti], ev.Arg)
		if err != nil {
			return 0, false, err
		}
		if !handled {
			return 0, false, fmt.Errorf("perfbench: recovery of %s for %s not handled", st.excluded[ti].Name, st.name)
		}
		st.recovered[ti] = true
	case load.OpIdle:
		if err := g.ctxSwitch(cpuID, 1, "init"); err != nil {
			return 0, false, err
		}
		g.pend[cpuID] = false
		g.ctr.idle++
	}
	d := m.Cycles() - arrival
	g.cycles = append(g.cycles, d)
	return d, true, nil
}

// finish folds the runtime's cumulative counters into the driver's.
func (g *rig) finish() {
	g.drainLog()
	g.ctr.switches = g.rt.ViewSwitches
	g.ctr.elided = g.rt.ElidedSwitches
	g.ctr.elapsed = g.k.M.Cycles()
}

// shardEvents splits events into per-runtime slices by app mod n,
// preserving order within each.
func shardEvents(events []load.Event, n int) [][]load.Event {
	out := make([][]load.Event, n)
	for _, ev := range events {
		r := int(ev.App) % n
		out[r] = append(out[r], ev)
	}
	return out
}
