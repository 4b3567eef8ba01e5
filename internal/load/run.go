package load

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"facechange"
	"facechange/internal/apps"
	"facechange/internal/core"
	"facechange/internal/kernel"
	"facechange/internal/kview"
	"facechange/internal/mem"
	"facechange/internal/stats"
	"facechange/internal/telemetry"
)

// RunConfig parameterizes a load run.
type RunConfig struct {
	// Trace is the workload (GenTrace output).
	Trace *Trace
	// Runtimes is the number of live runtime machines driven in parallel;
	// app a is pinned to runtime a mod Runtimes (default 2).
	Runtimes int
	// Legacy drives the paper's per-entry EPT rewrite switch path instead
	// of the snapshot root-swap fast path.
	Legacy bool
	// SharedCore enables the runtime's shared-core policy: co-scheduled
	// apps on a vCPU coalesce into merged union views, so quantum-frequency
	// switching collapses into elisions. Changes the report digest.
	SharedCore bool
	// Profile builds real profiled views (facechange.ProfileAll) instead
	// of the default synthetic deterministic views.
	Profile bool
	// Nodes switches to fleet mode: views are published to an in-process
	// control-plane server and Nodes runtime VMs join, sync the catalog,
	// and are driven through the fleet node API (overrides Runtimes).
	Nodes int
	// Shards, when >1 in fleet mode, partitions the control plane into a
	// sharded multi-server plane: views are published onto the consistent-
	// hash ring, nodes auto-discover the topology through homing dialers,
	// and telemetry relays shard-local then hub-to-hub into the aggregator.
	// The replay itself is identical, so the report digest matches the
	// single-server fleet run for the same trace.
	Shards int
	// MigrateRate, in fleet mode, live-migrates applications between nodes
	// mid-replay: per 1000 trace events, this many migrations fire at
	// evenly spaced barriers, each moving one deterministically chosen app
	// through the real control-plane migration path (freeze, image
	// transfer, restore, commit); the app's remaining events then replay on
	// its new node with its warm recovery state intact. Folded into the
	// report digest only when set.
	MigrateRate float64
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (c *RunConfig) defaults() error {
	if c.Trace == nil {
		return fmt.Errorf("load: no trace")
	}
	if c.Runtimes <= 0 {
		c.Runtimes = 2
	}
	if c.Runtimes > len(c.Trace.Shares) {
		c.Runtimes = len(c.Trace.Shares)
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.MigrateRate > 0 && c.Nodes <= 1 {
		return fmt.Errorf("load: -migrate-rate needs fleet mode with at least 2 nodes")
	}
	return nil
}

// appSpec is one application's view material, deterministic from the
// catalog and the trace seed: the view configuration to load (or publish,
// in fleet mode), the functions it includes (backtrace frame material)
// and the excluded functions (recovery targets).
type appSpec struct {
	idx      int
	name     string
	cfg      *kview.View
	included []*kernel.Func
	excluded []*kernel.Func
}

// eligibleFuncs returns the base-kernel text functions usable as view
// members and recovery targets (mirrors eval's recovery storm filter).
func eligibleFuncs(syms *kernel.SymbolTable, textSize uint32) []*kernel.Func {
	var out []*kernel.Func
	for _, f := range syms.Funcs() {
		if f.Module != "" || f.Size < 16 {
			continue
		}
		if f.Addr < mem.KernelTextGVA || f.End() > mem.KernelTextGVA+textSize {
			continue
		}
		out = append(out, f)
	}
	return out
}

// buildSyntheticSpecs derives one deterministic view per app: each
// eligible function joins the view with probability ~0.3 under a per-app
// seeded stream, the rest form the recovery target pool. Identical on
// every machine with the same kernel image and seed, which is what lets
// standalone workers and fleet nodes agree without coordination.
func buildSyntheticSpecs(syms *kernel.SymbolTable, textSize uint32, names []string, seed int64) ([]*appSpec, error) {
	funcs := eligibleFuncs(syms, textSize)
	if len(funcs) < 8 {
		return nil, fmt.Errorf("load: only %d eligible kernel functions", len(funcs))
	}
	specs := make([]*appSpec, 0, len(names))
	for i, name := range names {
		rng := rand.New(rand.NewSource(int64(uint64(seed) ^ uint64(i+1)*0x9E3779B97F4A7C15)))
		spec := &appSpec{idx: i, name: name, cfg: kview.NewView(name)}
		for _, f := range funcs {
			if rng.Float64() < 0.3 && len(spec.included) < 96 {
				spec.included = append(spec.included, f)
			} else if len(spec.excluded) < 512 {
				spec.excluded = append(spec.excluded, f)
			}
		}
		if len(spec.included) == 0 {
			spec.included = append(spec.included, funcs[0])
			spec.excluded = spec.excluded[1:]
		}
		if len(spec.excluded) == 0 {
			return nil, fmt.Errorf("load: app %s has no excluded functions", name)
		}
		for _, f := range spec.included {
			spec.cfg.Insert(kview.BaseKernel, f.Addr, f.End())
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// buildProfiledSpecs profiles the catalog applications for real
// (facechange.ProfileAll, 60 system calls each) and derives each app's
// included/excluded pools from the profiled view's base-kernel ranges.
func buildProfiledSpecs(syms *kernel.SymbolTable, textSize uint32, list []apps.App, seed int64) ([]*appSpec, error) {
	views, err := facechange.ProfileAll(list, facechange.ProfileConfig{
		Syscalls: 60,
		Seed:     seed,
		Budget:   2_000_000_000,
	})
	if err != nil {
		return nil, fmt.Errorf("load: profiling: %w", err)
	}
	funcs := eligibleFuncs(syms, textSize)
	specs := make([]*appSpec, 0, len(list))
	for i, app := range list {
		v := views[app.Name]
		if v == nil {
			return nil, fmt.Errorf("load: no profiled view for %s", app.Name)
		}
		spec := &appSpec{idx: i, name: app.Name, cfg: v}
		ranges := v.Ranges(kview.BaseKernel)
		for _, f := range funcs {
			inView := false
			for _, rg := range ranges {
				if f.Addr < rg.End && f.End() > rg.Start {
					inView = true
					break
				}
			}
			if inView {
				spec.included = append(spec.included, f)
			} else if len(spec.excluded) < 512 {
				spec.excluded = append(spec.excluded, f)
			}
		}
		if len(spec.included) == 0 || len(spec.excluded) == 0 {
			return nil, fmt.Errorf("load: profiled view for %s leaves no usable pools", app.Name)
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// appState is one app's per-runtime replay state.
type appState struct {
	*appSpec
	viewIdx   int
	recovered []bool // excluded-pool index → already recovered (warm)
}

// rig drives one live runtime through a trace shard.
type rig struct {
	k          *kernel.Kernel
	rt         *core.Runtime
	ctxAddr    uint32
	resumeAddr uint32
	apps       map[uint8]*appState
	pend       []bool // per-vCPU: a deferred switch is waiting for resume
	shared     bool   // shared-core: active view may be a merged view
	closed     bool   // closed-loop pacing
	think      uint64
	res        *runtimeResult
}

// runtimeResult accumulates one runtime's measurements; merged in
// runtime-index order afterwards, so the aggregate is deterministic.
type runtimeResult struct {
	sw, resu, rec, all stats.Hist
	wall               stats.Hist
	apps               map[int]*appAccum
	warm, idle         uint64
	recoveries         uint64
	instant, interrupt uint64
	switches           uint64
	elided, merged     uint64
	events             uint64
	cycles             uint64
	cache              mem.CacheStats
	sink               *telemetry.HistogramSink
}

type appAccum struct {
	sw, rec      stats.Hist
	events, warm uint64
}

func (r *runtimeResult) app(idx int) *appAccum {
	a, ok := r.apps[idx]
	if !ok {
		a = &appAccum{}
		r.apps[idx] = a
	}
	return a
}

// newRig boots a runtime-phase machine with the given view material
// loaded and assigned. modules are loaded into the guest first (profiled
// views may reference module spaces).
func newRig(cpus int, legacy, sharedCore bool, specs []*appSpec, modules []string) (*rig, error) {
	k, err := kernel.New(kernel.Config{Clock: kernel.ClockKVM, NCPU: cpus})
	if err != nil {
		return nil, err
	}
	for _, m := range modules {
		if _, err := k.LoadModule(m); err != nil {
			return nil, fmt.Errorf("load: module %s: %w", m, err)
		}
	}
	opts := core.FastOptions()
	if legacy {
		opts = core.DefaultOptions()
	}
	opts.SharedCore = sharedCore
	rt, err := core.New(core.Setup{Machine: k.M, Symbols: k.Syms, TextSize: k.Img.TextSize(), Opts: opts})
	if err != nil {
		return nil, err
	}
	rig := newRigOn(k, rt)
	rig.shared = sharedCore
	for _, spec := range specs {
		idx, err := rt.LoadView(spec.cfg)
		if err != nil {
			return nil, fmt.Errorf("load: view %s: %w", spec.name, err)
		}
		rig.addApp(spec, idx)
	}
	return rig, nil
}

// newRigOn wraps an existing machine/runtime pair (fleet nodes sync their
// views through the control plane instead of loading them locally).
func newRigOn(k *kernel.Kernel, rt *core.Runtime) *rig {
	return &rig{
		k:          k,
		rt:         rt,
		ctxAddr:    k.Syms.MustAddr("context_switch"),
		resumeAddr: k.Syms.MustAddr("resume_userspace"),
		apps:       make(map[uint8]*appState),
		pend:       make([]bool, len(k.M.CPUs)),
		res: &runtimeResult{
			apps: make(map[int]*appAccum),
			sink: telemetry.NewHistogramSink(),
		},
	}
}

func (g *rig) addApp(spec *appSpec, viewIdx int) {
	g.apps[uint8(spec.idx)] = &appState{
		appSpec:   spec,
		viewIdx:   viewIdx,
		recovered: make([]bool, len(spec.excluded)),
	}
}

// ctxSwitch fabricates a scheduler pick (task struct + rq->curr, exactly
// the VMI state a live guest presents) and fires the context-switch trap.
func (g *rig) ctxSwitch(cpuID int, pid int, comm string) error {
	if err := g.k.PickTask(cpuID, pid, comm); err != nil {
		return err
	}
	cpu := g.k.M.CPUs[cpuID]
	cpu.EIP = g.ctxAddr
	g.k.M.Charge(g.k.M.Cost.VMExit)
	return g.rt.OnAddrTrap(g.k.M, cpu)
}

// resume fires the resume-userspace trap (only meaningful while a
// deferred switch is pending — a live guest only exits there while the
// breakpoint is armed).
func (g *rig) resume(cpuID int) error {
	cpu := g.k.M.CPUs[cpuID]
	cpu.EIP = g.resumeAddr
	g.k.M.Charge(g.k.M.Cost.VMExit)
	return g.rt.OnAddrTrap(g.k.M, cpu)
}

// covered reports whether the vCPU's installed view serves the app:
// its own view, or — under shared-core — a merged view it is a member of.
func (g *rig) covered(cpuID int, st *appState) bool {
	if g.shared {
		return g.rt.ActiveCovers(cpuID, st.viewIdx)
	}
	return g.rt.ActiveView(cpuID) == st.viewIdx
}

// ensureActive lands the app's view on the vCPU (committing a deferred
// switch if the runtime armed one) so a fabricated UD2 hits the right
// restricted mapping. Under shared-core the landed view may be a merged
// union view covering the app.
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
		return fmt.Errorf("load: view %s not active after switch", st.name)
	}
	return nil
}

// ud2At fabricates a kernel stack whose frames return into the app's own
// loaded code and fires the invalid-opcode exit at fn's entry.
func (g *rig) ud2At(cpuID int, st *appState, fn *kernel.Func, arg uint16) (bool, error) {
	var rets [3]uint32
	nframes := int(arg>>8) % 4
	for i := range rets[:nframes] {
		caller := st.included[(int(arg)*7+i*13)%len(st.included)]
		// Even offsets only: odd return sites over real code could read
		// "0B 0F" and instant-recover spans this replay does not track.
		rets[i] = caller.Addr + (uint32(arg)%caller.Size)&^1
	}
	ebp, err := g.k.PlantFrames(cpuID, rets[:nframes])
	if err != nil {
		return false, err
	}
	cpu := g.k.M.CPUs[cpuID]
	cpu.EBP = ebp
	cpu.EIP = fn.Addr
	g.k.M.Charge(g.k.M.Cost.VMExit)
	return g.rt.OnInvalidOpcode(g.k.M, cpu)
}

// resetLogEvery bounds the runtime's recovery log during long replays:
// counters are accumulated first, then the log (with its backtraces) is
// released.
const resetLogEvery = 4096

func (g *rig) drainCounters() {
	g.res.recoveries += g.rt.Recoveries
	g.res.instant += g.rt.InstantRecoveries
	g.res.interrupt += g.rt.InterruptRecoveries
	g.rt.ResetLog()
}

// replay drives the rig through its trace shard.
func (g *rig) replay(events []Event) error {
	m := g.k.M
	g.rt.Enable()
	for i, ev := range events {
		st, ok := g.apps[ev.App]
		if !ok {
			return fmt.Errorf("load: event for unassigned app %d", ev.App)
		}
		cpuID := int(ev.CPU) % len(m.CPUs)

		// Pacing: open-loop idles forward to the arrival timestamp (an
		// overloaded machine stays behind and the sample absorbs queueing
		// delay); closed-loop charges think time.
		arrival := m.Cycles()
		if g.closed {
			m.Charge(g.think)
			arrival = m.Cycles()
		} else if ev.At > arrival {
			m.Charge(ev.At - arrival)
			arrival = ev.At
		} else {
			arrival = ev.At
		}

		wallStart := time.Now()
		switch ev.Op {
		case OpSwitch:
			if err := g.ctxSwitch(cpuID, 100+st.idx, st.name); err != nil {
				return err
			}
			g.pend[cpuID] = !g.covered(cpuID, st)
			d := m.Cycles() - arrival
			g.res.sw.Record(d)
			g.res.all.Record(d)
			a := g.res.app(st.idx)
			a.sw.Record(d)
			a.events++
		case OpResume:
			if !g.pend[cpuID] {
				// No deferred switch pending: the breakpoint is not
				// armed, a live guest would not exit here.
				g.res.app(st.idx).events++
				break
			}
			if err := g.resume(cpuID); err != nil {
				return err
			}
			g.pend[cpuID] = false
			d := m.Cycles() - arrival
			g.res.resu.Record(d)
			g.res.all.Record(d)
			g.res.app(st.idx).events++
		case OpRecovery:
			if err := g.ensureActive(cpuID, st); err != nil {
				return err
			}
			ti := int(ev.Arg) % len(st.excluded)
			a := g.res.app(st.idx)
			a.events++
			if st.recovered[ti] {
				// The span is already in the view: the code executes
				// without trapping (the paper's decaying recovery rate).
				g.res.warm++
				a.warm++
				break
			}
			handled, err := g.ud2At(cpuID, st, st.excluded[ti], ev.Arg)
			if err != nil {
				return err
			}
			if !handled {
				return fmt.Errorf("load: recovery of %s for %s not handled", st.excluded[ti].Name, st.name)
			}
			st.recovered[ti] = true
			d := m.Cycles() - arrival
			g.res.rec.Record(d)
			g.res.all.Record(d)
			a.rec.Record(d)
		case OpIdle:
			if err := g.ctxSwitch(cpuID, 1, "init"); err != nil {
				return err
			}
			g.pend[cpuID] = false
			d := m.Cycles() - arrival
			g.res.sw.Record(d)
			g.res.all.Record(d)
			g.res.idle++
		}
		g.res.wall.Record(uint64(time.Since(wallStart)))
		g.res.events++
		if (i+1)%resetLogEvery == 0 {
			g.drainCounters()
		}
	}
	g.drainCounters()
	g.res.switches = g.rt.ViewSwitches
	g.res.elided = g.rt.ElidedSwitches
	g.res.merged = g.rt.MergedViewLoads
	g.res.cache = g.rt.CacheStats()
	g.res.cycles = m.Cycles()
	return nil
}

// shard splits the trace into per-runtime event slices (app mod N),
// preserving event order within each shard.
func shard(tr *Trace, runtimes int) [][]Event {
	out := make([][]Event, runtimes)
	for _, ev := range tr.Events {
		r := int(ev.App) % runtimes
		out[r] = append(out[r], ev)
	}
	return out
}

// catalogNames returns the first n catalog app names (Table I order).
func catalogNames(n int) ([]string, []apps.App) {
	cat := apps.Catalog()
	if n > len(cat) {
		n = len(cat)
	}
	names := make([]string, 0, n)
	list := make([]apps.App, 0, n)
	for _, a := range cat[:n] {
		names = append(names, a.Name)
		list = append(list, a)
	}
	return names, list
}

// buildSpecs resolves the view material for a run (synthetic by default,
// profiled under cfg.Profile) plus the guest modules the views need.
func buildSpecs(cfg *RunConfig) ([]*appSpec, []string, error) {
	names, list := catalogNames(len(cfg.Trace.Shares))
	// Any booted kernel exposes the (identical) symbol table and text
	// size the builders need.
	k, err := kernel.New(kernel.Config{Clock: kernel.ClockKVM})
	if err != nil {
		return nil, nil, err
	}
	if cfg.Profile {
		moduleSet := map[string]bool{}
		for _, a := range list {
			for _, m := range a.Modules {
				moduleSet[m] = true
			}
		}
		modules := make([]string, 0, len(moduleSet))
		for m := range moduleSet {
			modules = append(modules, m)
		}
		sort.Strings(modules)
		specs, err := buildProfiledSpecs(k.Syms, k.Img.TextSize(), list, cfg.Trace.Cfg.Seed)
		return specs, modules, err
	}
	specs, err := buildSyntheticSpecs(k.Syms, k.Img.TextSize(), names, cfg.Trace.Cfg.Seed)
	return specs, nil, err
}

// Run replays the trace against cfg.Runtimes live runtimes in parallel
// (or a fleet, when cfg.Nodes is set) and assembles the report.
func Run(cfg RunConfig) (*Report, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	if cfg.Nodes > 0 {
		return runFleet(&cfg)
	}
	specs, modules, err := buildSpecs(&cfg)
	if err != nil {
		return nil, err
	}
	shards := shard(cfg.Trace, cfg.Runtimes)

	results := make([]*runtimeResult, cfg.Runtimes)
	errs := make(chan error, cfg.Runtimes)
	for i := 0; i < cfg.Runtimes; i++ {
		var mine []*appSpec
		for _, s := range specs {
			if s.idx%cfg.Runtimes == i {
				mine = append(mine, s)
			}
		}
		go func(i int, mine []*appSpec, events []Event) {
			g, err := newRig(cfg.Trace.Cfg.CPUs, cfg.Legacy, cfg.SharedCore, mine, modules)
			if err != nil {
				errs <- fmt.Errorf("load: runtime %d: %w", i, err)
				return
			}
			g.closed = cfg.Trace.Cfg.Arrival == "closed"
			g.think = cfg.Trace.Cfg.Think
			g.rt.SetEmitter(g.res.sink)
			if err := g.replay(events); err != nil {
				errs <- fmt.Errorf("load: runtime %d: %w", i, err)
				return
			}
			results[i] = g.res
			errs <- nil
		}(i, mine, shards[i])
	}
	for i := 0; i < cfg.Runtimes; i++ {
		if err := <-errs; err != nil {
			return nil, err
		}
	}
	cfg.Logf("load: replayed %d events over %d runtimes", len(cfg.Trace.Events), cfg.Runtimes)
	return assemble(&cfg, specs, results, nil), nil
}
