package sim

import (
	"fmt"
	"sort"

	"facechange"
	"facechange/internal/apps"
	"facechange/internal/core"
	"facechange/internal/kernel"
	"facechange/internal/kview"
)

// Kind enumerates the simulated guest/administrator events.
type Kind uint8

const (
	// EvCtxSwitch fabricates a scheduler pick (rq->curr) and fires the
	// context-switch trap.
	EvCtxSwitch Kind = iota
	// EvResume fires the resume-userspace trap.
	EvResume
	// EvUD2 fabricates a kernel stack and fires a storm of invalid-opcode
	// exits inside the base kernel text.
	EvUD2
	// EvLoadView hot-plugs a view (synthetic or pool-profiled).
	EvLoadView
	// EvUnloadView unloads a view, biased toward currently active ones.
	EvUnloadView
	// EvModLoad loads a standard module into the guest.
	EvModLoad
	// EvModHide hides a module from the guest's module list.
	EvModHide
	// EvCachePressure toggles a tight page-cache limit.
	EvCachePressure
	// EvPoolProfile profiles applications on a concurrent pool and keeps
	// the views for later EvLoadView events.
	EvPoolProfile
	// EvToggle disables and re-enables the runtime (Section III-B4's
	// hot-unplug of the whole mechanism).
	EvToggle
	// EvMigrate live-migrates a loaded view to the simulator's target
	// runtime through the canonical image codec: freeze, export, encode,
	// decode, restore, commit — or thaw on the scripted abort path. The
	// applier asserts the migration invariants: recovered-span fidelity on
	// the target, no delta lost (applied+skipped accounts for every one)
	// and cache refcount balance after the source teardown.
	EvMigrate

	numKinds
)

var kindNames = [numKinds]string{
	"ctxswitch", "resume", "ud2", "loadview", "unloadview",
	"modload", "modhide", "cachepressure", "poolprofile", "toggle",
	"migrate",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// defaultWeights is the standard generation mix: mostly context switches
// and trap storms, with a steady trickle of hotplug and environment churn.
var defaultWeights = [numKinds]int{
	EvCtxSwitch:     34,
	EvResume:        14,
	EvUD2:           22,
	EvLoadView:      8,
	EvUnloadView:    6,
	EvModLoad:       2,
	EvModHide:       2,
	EvCachePressure: 4,
	EvPoolProfile:   2,
	EvToggle:        1,
}

// churnWeights skews the stream toward module load/hide and view hotplug:
// the mix that exercises snapshot rebuild-on-load, module-list-cache
// invalidation and root detachment under constant churn.
var churnWeights = [numKinds]int{
	EvCtxSwitch:     20,
	EvResume:        8,
	EvUD2:           14,
	EvLoadView:      18,
	EvUnloadView:    14,
	EvModLoad:       10,
	EvModHide:       8,
	EvCachePressure: 4,
	EvPoolProfile:   2,
	EvToggle:        2,
}

// migrateWeights folds a steady stream of live migrations into the default
// mix: views freeze, export through the canonical image codec, restore on
// the target runtime and tear down on the source while ordinary switch and
// recovery traffic keeps hitting both ends of the move.
var migrateWeights = [numKinds]int{
	EvCtxSwitch:     28,
	EvResume:        10,
	EvUD2:           18,
	EvLoadView:      12,
	EvUnloadView:    6,
	EvModLoad:       2,
	EvModHide:       2,
	EvCachePressure: 4,
	EvPoolProfile:   2,
	EvToggle:        1,
	EvMigrate:       8,
}

// mixWeights resolves a Config.Mix name.
func mixWeights(mix string) ([numKinds]int, error) {
	switch mix {
	case "default":
		return defaultWeights, nil
	case "churn":
		return churnWeights, nil
	case "migrate":
		return migrateWeights, nil
	default:
		return [numKinds]int{}, fmt.Errorf("sim: unknown event mix %q (want default, churn or migrate)", mix)
	}
}

// Event is one simulation step. A and B are free selector operands whose
// meaning depends on Kind; the same representation is produced by the
// seeded generator and decoded from fuzz scripts, so both drive identical
// appliers.
type Event struct {
	Kind Kind
	CPU  uint8
	A, B uint16
}

func (e Event) String() string {
	return fmt.Sprintf("%s cpu%d a=%d b=%d", e.Kind, e.CPU, e.A, e.B)
}

// eventBytes is the wire size of one scripted event.
const eventBytes = 6

// DecodeScript decodes a byte script (6 bytes per event: kind, cpu, a, b
// little-endian) into events — the fuzzing entry point's format.
func DecodeScript(data []byte) []Event {
	evs := make([]Event, 0, len(data)/eventBytes)
	for len(data) >= eventBytes {
		evs = append(evs, Event{
			Kind: Kind(data[0] % uint8(numKinds)),
			CPU:  data[1],
			A:    uint16(data[2]) | uint16(data[3])<<8,
			B:    uint16(data[4]) | uint16(data[5])<<8,
		})
		data = data[eventBytes:]
	}
	return evs
}

// genEvent draws the next event from the seeded stream.
func (s *Simulator) genEvent() Event {
	n := s.rng.Intn(s.weightTotal)
	kind := Kind(0)
	for i, w := range s.weights {
		if n < w {
			kind = Kind(i)
			break
		}
		n -= w
	}
	return Event{
		Kind: kind,
		CPU:  uint8(s.rng.Intn(s.cfg.CPUs)),
		A:    uint16(s.rng.Intn(1 << 16)),
		B:    uint16(s.rng.Intn(1 << 16)),
	}
}

// apply drives one event into the runtime, returning whatever error the
// runtime surfaced (the step loop classifies it as injected or as a bug).
func (s *Simulator) apply(ev Event) error {
	cpuID := int(ev.CPU) % s.cfg.CPUs
	switch ev.Kind {
	case EvCtxSwitch:
		return s.applyCtxSwitch(cpuID, ev)
	case EvResume:
		cpu := s.k.M.CPUs[cpuID]
		cpu.EIP = s.resumeAddr
		return s.rt.OnAddrTrap(s.k.M, cpu)
	case EvUD2:
		return s.applyUD2(cpuID, ev)
	case EvLoadView:
		return s.applyLoadView(ev)
	case EvUnloadView:
		return s.applyUnloadView(ev)
	case EvModLoad:
		return s.applyModLoad()
	case EvModHide:
		return s.applyModHide(ev)
	case EvCachePressure:
		return s.applyCachePressure(ev)
	case EvPoolProfile:
		return s.applyPoolProfile(ev)
	case EvToggle:
		return s.applyToggle()
	case EvMigrate:
		return s.applyMigrate(ev)
	}
	return nil
}

// applyCtxSwitch fabricates the scheduler-pick VMI state — a task struct
// in a per-CPU scratch slot pointed to by rq->curr — and fires the
// context-switch trap, exactly what the runtime would see in a live guest.
func (s *Simulator) applyCtxSwitch(cpuID int, ev Event) error {
	// Bias the scheduler pick toward profiled processes (3 in 4 when any
	// view is loaded) so vCPUs actually spend time on custom views and UD2
	// storms hit restricted mappings.
	loaded := s.rt.LoadedIndices()
	var comm string
	switch {
	case len(loaded) > 0 && int(ev.A)%4 != 3:
		comm = s.rt.ViewByIndex(loaded[int(ev.A)%len(loaded)]).Name
	case int(ev.A)%2 == 0:
		comm = "unprofiled"
	default:
		comm = "init"
	}
	pid := 100 + int(ev.B)%900

	if err := s.k.PickTask(cpuID, pid, comm); err != nil {
		return err
	}
	cpu := s.k.M.CPUs[cpuID]
	cpu.EIP = s.ctxAddr
	return s.rt.OnAddrTrap(s.k.M, cpu)
}

// applyUD2 fires a storm of invalid-opcode exits at addresses inside the
// base kernel text, each with a fabricated EBP frame chain whose return
// sites point back into the text — odd return addresses land on "0B 0F"
// shadow bytes and exercise instant recovery. When the guest carries a
// hidden module, one frame in four chains points into its code instead:
// the rootkit-hook shape, whose frame must symbolize as UNKNOWN and drive
// the detection engine's unknown-origin verdict.
func (s *Simulator) applyUD2(cpuID int, ev Event) error {
	cpu := s.k.M.CPUs[cpuID]
	var hidden []kernel.ModuleInfo
	for _, m := range s.k.Modules() {
		if !m.Visible {
			hidden = append(hidden, m)
		}
	}
	reps := 1 + int(ev.A)%3
	for rep := 0; rep < reps; rep++ {
		fn := s.textFuncs[(int(ev.B)+rep*31)%len(s.textFuncs)]
		eip := fn.Addr + uint32(s.rng.Intn(int(fn.Size)))

		var rets [3]uint32
		nframes := (int(ev.A>>8) + rep) % 4
		for i := range rets[:nframes] {
			if len(hidden) > 0 && s.rng.Intn(4) == 0 {
				m := hidden[s.rng.Intn(len(hidden))]
				// Even offset: hidden code is never instant-recovered (it
				// has no admitted region), only witnessed in the backtrace.
				rets[i] = m.Base + uint32(s.rng.Intn(int(m.Size)))&^1
			} else {
				callerFn := s.textFuncs[s.rng.Intn(len(s.textFuncs))]
				rets[i] = callerFn.Addr + 1 + uint32(s.rng.Intn(int(callerFn.Size)-1))
				if s.rng.Intn(2) == 0 {
					rets[i] |= 1 // odd return site: the "0B 0F" misparse shape
				}
			}
		}
		ebp, err := s.k.PlantFrames(cpuID, rets[:nframes])
		if err != nil {
			return err
		}
		cpu.EBP = ebp
		cpu.EIP = eip
		if _, err := s.rt.OnInvalidOpcode(s.k.M, cpu); err != nil {
			return err
		}
	}
	return nil
}

// applyLoadView hot-plugs a view: one kept from pool profiling when
// available, otherwise a synthetic view over a handful of kernel functions
// (and sometimes a module range). At the view cap it unloads instead, so
// long runs churn rather than saturate.
func (s *Simulator) applyLoadView(ev Event) error {
	if len(s.rt.LoadedIndices()) >= s.cfg.MaxViews {
		return s.applyUnloadView(ev)
	}
	var cfg *kview.View
	if len(s.profiled) > 0 && int(ev.A)%3 == 0 {
		cfg = s.profiled[int(ev.B)%len(s.profiled)]
	} else {
		cfg = kview.NewView(fmt.Sprintf("syn%03d", s.synCount%1000))
		s.synCount++
		nf := 2 + int(ev.A)%6
		for i := 0; i < nf; i++ {
			f := s.textFuncs[(int(ev.B)*7+i*13)%len(s.textFuncs)]
			cfg.Insert(kview.BaseKernel, f.Addr, f.End())
		}
		if int(ev.B)%4 == 0 {
			var visible []kernel.ModuleInfo
			for _, m := range s.k.Modules() {
				if m.Visible {
					visible = append(visible, m)
				}
			}
			if len(visible) > 0 {
				m := visible[int(ev.A)%len(visible)]
				n := m.Size
				if n > 0x2C0 {
					n = 0x2C0
				}
				cfg.Insert(m.Name, 0, n)
			}
		}
	}
	if _, err := s.rt.LoadView(cfg); err != nil {
		return err
	}
	s.res.Loads++
	return nil
}

// applyUnloadView unloads a loaded view, biased toward one that is active
// on a vCPU (the interesting case). With nothing loaded it instead checks
// that unloading a bogus index fails cleanly; one time in eight it also
// verifies that an immediate second unload of the same index fails.
func (s *Simulator) applyUnloadView(ev Event) error {
	loaded := s.rt.LoadedIndices()
	if len(loaded) == 0 {
		if err := s.rt.UnloadView(1 + int(ev.A)%7); err == nil {
			return fmt.Errorf("sim: unload of a bogus view index succeeded")
		}
		return nil
	}
	idx := loaded[int(ev.A)%len(loaded)]
	if int(ev.B)%2 == 0 {
		for c := 0; c < s.cfg.CPUs; c++ {
			if a := s.rt.ActiveView(c); a != core.FullView {
				idx = a
				break
			}
		}
	}
	if err := s.rt.UnloadView(idx); err != nil {
		return err
	}
	s.res.Unloads++
	if int(ev.B)%8 == 0 {
		if err := s.rt.UnloadView(idx); err == nil {
			return fmt.Errorf("sim: double unload of view %d succeeded", idx)
		}
	}
	return nil
}

// applyModLoad loads the next standard module not yet present.
func (s *Simulator) applyModLoad() error {
	present := map[string]bool{}
	for _, m := range s.k.Modules() {
		present[m.Name] = true
	}
	for _, spec := range kernel.StandardModules() {
		if !present[spec.Name] {
			if _, err := s.k.LoadModule(spec.Name); err != nil {
				return err
			}
			// The administrator knows about the load; the runtime's count
			// probe would also catch it on the next module-list read.
			s.rt.InvalidateModuleCache()
			return nil
		}
	}
	return nil // all loaded
}

// applyModHide hides a visible module (the rootkit self-hiding shape the
// runtime must keep symbolizing as UNKNOWN).
func (s *Simulator) applyModHide(ev Event) error {
	var visible []string
	for _, m := range s.k.Modules() {
		if m.Visible {
			visible = append(visible, m.Name)
		}
	}
	if len(visible) == 0 {
		return nil
	}
	if err := s.k.HideModule(visible[int(ev.A)%len(visible)]); err != nil {
		return err
	}
	// A rootkit hiding itself does not notify anyone — rely on the count
	// probe for detection in real flows; the explicit invalidation here
	// keeps scripted traces deterministic regardless of prior cache state.
	s.rt.InvalidateModuleCache()
	return nil
}

// applyCachePressure toggles a tight cache limit near current occupancy,
// so subsequent loads and copy-on-write recoveries hit ErrCachePressure.
// Only active when the cache fault channel is enabled.
func (s *Simulator) applyCachePressure(ev Event) error {
	if s.inj.Kinds()&FaultCache == 0 {
		return nil
	}
	c := s.rt.Cache()
	if c.Limit() == 0 {
		c.SetLimit(c.Stats().DistinctPages + 1 + int(ev.A)%4)
	} else {
		c.SetLimit(0)
	}
	return nil
}

// poolApps are the cheap workloads used by pool-profiling events.
var poolApps = []string{"top", "gzip", "bash"}

// applyPoolProfile runs a concurrent profiling pool over two applications
// and keeps the resulting views for later EvLoadView events. Pool sessions
// boot their own kernels (no injector attached), so a failure here is a
// real bug, not an injected fault. Rate-limited: at most one pool run per
// poolEvery steps.
func (s *Simulator) applyPoolProfile(ev Event) error {
	if s.cfg.NoPool || (s.lastPool != 0 && s.step-s.lastPool < s.cfg.poolEvery) {
		return nil
	}
	s.lastPool = s.step
	names := []string{poolApps[int(ev.A)%len(poolApps)], poolApps[(int(ev.A)+1)%len(poolApps)]}
	var list []apps.App
	for _, n := range names {
		a, ok := apps.ByName(n)
		if !ok {
			return fmt.Errorf("sim: unknown pool app %q", n)
		}
		list = append(list, a)
	}
	pool := facechange.NewPool(facechange.PoolConfig{Workers: s.cfg.Workers})
	views, err := pool.ProfileAll(list, facechange.ProfileConfig{
		Syscalls: 25 + int(ev.B)%25,
		Seed:     int64(1 + int(ev.A)%5),
		Budget:   1_000_000_000,
	})
	if err != nil {
		return err
	}
	// Append in sorted name order so the profiled list (and everything
	// derived from it) is deterministic regardless of worker scheduling.
	var got []string
	for name := range views {
		got = append(got, name)
	}
	sort.Strings(got)
	for _, name := range got {
		s.profiled = append(s.profiled, views[name])
	}
	if len(s.profiled) > 8 {
		s.profiled = s.profiled[len(s.profiled)-8:]
	}
	s.res.PoolRuns++
	return nil
}

// applyToggle hot-unplugs the whole mechanism and re-arms it: Disable must
// land every vCPU on the pristine full view with no trap refs left.
func (s *Simulator) applyToggle() error {
	s.rt.Disable()
	for c := 0; c < s.cfg.CPUs; c++ {
		if a := s.rt.ActiveView(c); a != core.FullView {
			return fmt.Errorf("sim: cpu%d still on view %d after Disable", c, a)
		}
	}
	if err := s.rt.CheckSwitchState(); err != nil {
		return fmt.Errorf("sim: after Disable: %w", err)
	}
	s.rt.Enable()
	return nil
}
