package core

import (
	"errors"
	"fmt"

	"facechange/internal/hv"
	"facechange/internal/isa"
	"facechange/internal/mem"
	"facechange/internal/telemetry"
)

// ErrUnidentifiedRegion marks an address outside every identifiable kernel
// code region — the base text and the guest-admitted module list. Code a
// rootkit hid cannot be recovered (there is nothing admitted to fetch), so
// instant recovery skips such addresses; the backtrace still records them,
// symbolized as UNKNOWN, for the detection engine.
var ErrUnidentifiedRegion = errors.New("code region not identified")

// Event is the runtime's event record — the telemetry schema, aliased so
// the historic recovery-log API (Log, the eval and example consumers) and
// the streaming pipeline share one type. A recovery is constructed exactly
// once, retained in the runtime's log and streamed through the emitter;
// KindRecovery is telemetry's zero Kind, so a bare Event literal remains a
// recovery record and Event.String still renders the paper's log format
// (Figures 4, 5).
type Event = telemetry.Event

// Frame is one backtrace entry.
type Frame = telemetry.Frame

// Log returns all recovery events in order.
func (r *Runtime) Log() []Event { return r.log }

// ResetLog clears the recovery log and counters.
func (r *Runtime) ResetLog() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.log = nil
	r.Recoveries, r.InstantRecoveries, r.InterruptRecoveries = 0, 0, 0
}

// OnInvalidOpcode implements hv.ExitHandler: Algorithm 1's
// HANDLE_INVALID_OPCODE — step 4/5 of Figure 2.
func (r *Runtime) OnInvalidOpcode(m *hv.Machine, cpu *hv.CPU) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.cpus[cpu.ID]
	v := r.viewByIndex(st.active)
	if v == nil {
		// UD2 under the full kernel view is a genuine guest fault, not a
		// view violation.
		return false, nil
	}
	if !v.covers(cpu.EIP) {
		return false, nil
	}
	// BACK_TRACE(rip, rbp), with instant recovery of any caller whose
	// return site misparses.
	frames, instantAddrs := r.backtrace(cpu)
	if len(frames) > 0 {
		// The walk returned arena scratch; the recovery events built below
		// retain their backtrace (in the log and in sink tails), so take
		// one exact-size copy per trap — every recovery from this trap
		// shares it.
		frames = append(make([]Frame, 0, len(frames)), frames...)
	}
	pid, commB, err := r.readRQCurrBytes(cpu)
	comm := r.internComm(commB)
	if err != nil {
		pid, comm = -1, "?"
	}
	inIRQ := r.stackInInterrupt(frames)
	if r.emit != nil {
		r.emit.Emit(Event{
			Kind:  telemetry.KindUD2Trap,
			Cycle: r.m.Cycles(),
			CPU:   cpu.ID,
			PID:   pid,
			Comm:  comm,
			View:  v.Name,
			Addr:  cpu.EIP,
		})
	}

	if _, err := r.recoverAt(cpu, v, cpu.EIP, pid, comm, inIRQ, false, frames); err != nil {
		return false, err
	}
	if r.opts.InstantRecovery {
		for _, a := range instantAddrs {
			if _, err := r.recoverAt(cpu, v, a, pid, comm, inIRQ, true, frames); err != nil {
				if errors.Is(err, ErrUnidentifiedRegion) {
					// A return site inside hidden (or otherwise
					// unidentifiable) code: nothing admitted to recover.
					continue
				}
				return false, err
			}
		}
	}
	return true, nil
}

// backtrace walks the EBP frame chain (Algorithm 1's BACK_TRACE),
// returning the symbolized frames (innermost return site first) and the
// return addresses whose first bytes read "0B 0F" — candidates for instant
// recovery.
// Both returned slices alias the vCPU's arena and are valid only until
// the next trap on that vCPU (callers hold mu); retainers must copy.
func (r *Runtime) backtrace(cpu *hv.CPU) ([]Frame, []uint32) {
	a := r.arenas[cpu.ID]
	frames := a.frames[:0]
	instant := a.instant[:0]
	// Stack reads can fail or return corrupt bytes under injection; the
	// walk already treats every read defensively (break on error, validate
	// each value), so a corrupted frame terminates or truncates the trace
	// instead of wedging recovery. The accessor lives in the arena:
	// boxing a fresh one into mem.Access would allocate at every trap.
	a.stack = cpu.Mem()
	var acc mem.Access = &a.stack
	if r.inj != nil {
		a.faultStack = mem.FaultAccessor{Acc: acc, Op: mem.FaultStackRead, Inj: r.inj}
		acc = &a.faultStack
	}
	ebp := cpu.EBP
	for depth := 0; depth < 64; depth++ {
		if ebp == 0 || ebp < mem.KernelBase {
			break
		}
		prevRIP, err := acc.ReadU32(ebp + 4)
		if err != nil {
			break
		}
		prevEBP, err := acc.ReadU32(ebp)
		if err != nil {
			break
		}
		if prevRIP < mem.KernelBase { // IS_VALID failed
			break
		}
		frames = append(frames, Frame{Addr: prevRIP, Sym: r.symbolize(cpu, prevRIP)})
		// Inspect the return site's bytes as mapped *through the active
		// view*: "0B 0F" cannot trap and must be recovered instantly.
		b := a.site[:]
		if err := acc.Read(prevRIP, b); err == nil {
			if b[0] == isa.ByteOrAcc && b[1] == isa.Byte0F {
				instant = append(instant, prevRIP)
			}
		}
		ebp = prevEBP
	}
	a.frames, a.instant = frames, instant // keep grown capacity
	return frames, instant
}

// stackInInterrupt reports whether any frame lies in the interrupt entry
// paths — the paper's stack-inspection test for benign interrupt-context
// recoveries.
func (r *Runtime) stackInInterrupt(frames []Frame) bool {
	for _, f := range frames {
		for _, rg := range r.irqEntry {
			if f.Addr >= rg.Start && f.Addr < rg.End {
				return true
			}
		}
	}
	return false
}

// recoverAt fetches the missing kernel function containing addr from the
// original kernel code pages and fills it into the view (FETCH_FILL_CODE),
// logging the event.
func (r *Runtime) recoverAt(cpu *hv.CPU, v *LoadedView, addr uint32, pid int, comm string, inIRQ, instant bool, frames []Frame) (Event, error) {
	regionStart, regionEnd, space, err := r.regionOf(cpu, addr)
	if err != nil {
		return Event{}, err
	}
	a := r.arenas[cpu.ID]
	var start, end uint32
	if r.opts.WholeFunctionLoad {
		start, end, err = r.funcSpan(a, addr, addr+1, regionStart, regionEnd)
		if err != nil {
			return Event{}, err
		}
	} else {
		// Block-granular ablation: recover one aligned 64-byte chunk.
		start = addr &^ 63
		end = start + 64
		if end > regionEnd {
			end = regionEnd
		}
	}
	if err := r.copyPhys(a, v, start, end-start); err != nil {
		return Event{}, fmt.Errorf("core: recover %#x: %w", addr, err)
	}
	if space == "" {
		// Base-kernel view ranges are absolute addresses.
		v.noteRecovered(space, start, end)
	} else {
		// Module ranges are module-relative (load addresses change).
		v.noteRecovered(space, start-regionStart, end-regionStart)
	}
	r.m.Charge(r.m.Cost.RecoveryBase + uint64(end-start)*r.m.Cost.RecoveryPerByte)

	ev := Event{
		Kind:      telemetry.KindRecovery,
		Cycle:     r.m.Cycles(),
		CPU:       cpu.ID,
		PID:       pid,
		Comm:      comm,
		View:      v.Name,
		Addr:      addr,
		FnStart:   start,
		FnEnd:     end,
		Fn:        r.symbolize(cpu, start),
		Interrupt: inIRQ,
		Instant:   instant,
		Backtrace: frames,
		N:         uint64(end - start),
	}
	r.log = append(r.log, ev)
	if r.emit != nil {
		r.emit.Emit(ev)
	}
	r.Recoveries++
	if instant {
		r.InstantRecoveries++
	}
	if inIRQ {
		r.InterruptRecoveries++
	}
	return ev, nil
}

// regionOf bounds the code region containing addr: the base kernel text or
// the owning module (from the guest module list). space names the region
// in kernel-view terms (kview.BaseKernel or the module name).
func (r *Runtime) regionOf(cpu *hv.CPU, addr uint32) (start, end uint32, space string, err error) {
	if addr >= mem.KernelTextGVA && addr < mem.KernelTextGVA+r.textSize {
		return mem.KernelTextGVA, mem.KernelTextGVA + r.textSize, "", nil
	}
	if mem.IsModuleGVA(addr) {
		mods, err := r.readModules(cpu)
		if err != nil {
			return 0, 0, "", err
		}
		for _, m := range mods {
			if addr >= m.Base && addr < m.Base+m.Size {
				return m.Base, m.Base + m.Size, m.Name, nil
			}
		}
	}
	return 0, 0, "", fmt.Errorf("core: %#x: %w", addr, ErrUnidentifiedRegion)
}
