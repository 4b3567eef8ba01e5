// Baseline measurement: a machine-readable snapshot of the charged cost
// of the runtime's hot paths (view switches, recovery traps, module
// symbolization) under both switch implementations, emitted by
// `fcbench -baseline` as BENCH_baseline.json so perf regressions show up
// as a diff.
package eval

import (
	"fmt"

	"facechange/internal/core"
	"facechange/internal/kernel"
	"facechange/internal/kview"
	"facechange/internal/mem"
	"facechange/internal/stats"
)

// SwitchBaseline is the charged cost of custom→custom view switches for
// one switch implementation at one vCPU count.
type SwitchBaseline struct {
	Mode     string `json:"mode"` // "snapshot" or "legacy"
	VCPUs    int    `json:"vcpus"`
	Switches uint64 `json:"switches"`
	// Per-switch EPT mutation rates, from the hardware-model counters.
	RootSwapsPerSwitch float64 `json:"root_swaps_per_switch"`
	PDSwapsPerSwitch   float64 `json:"pd_swaps_per_switch"`
	PTESwapsPerSwitch  float64 `json:"pte_swaps_per_switch"`
	// EPTCyclesPerSwitch is the counters × cost-model product: the charged
	// EPT cost of one switch, excluding the constant VM-exit overhead.
	EPTCyclesPerSwitch float64 `json:"ept_cycles_per_switch"`
}

// RecoveryBaseline is the charged cost of a UD2 kernel-code recovery
// (VM exit + backtrace VMI + COW remap) under one switch implementation.
type RecoveryBaseline struct {
	Mode                     string  `json:"mode"`
	Recoveries               uint64  `json:"recoveries"`
	ChargedCyclesPerRecovery float64 `json:"charged_cycles_per_recovery"`
	// Per-recovery charged-cycle percentiles (recoveries vary with the
	// size of the recovered span), from the shared histogram.
	CyclesP50 uint64 `json:"cycles_p50"`
	CyclesP95 uint64 `json:"cycles_p95"`
	CyclesP99 uint64 `json:"cycles_p99"`
}

// SymbolizeBaseline is the charged VMI cost of module symbolization with
// a cold and a warm module-list cache.
type SymbolizeBaseline struct {
	ColdWalkCycles     uint64 `json:"cold_walk_cycles"`
	CachedLookupCycles uint64 `json:"cached_lookup_cycles"`
}

// Baseline aggregates the hot-path cost measurements.
type Baseline struct {
	GeneratedBy string             `json:"generated_by"`
	CostModel   map[string]uint64  `json:"cost_model"`
	Switches    []SwitchBaseline   `json:"switches"`
	Recovery    []RecoveryBaseline `json:"recovery"`
	Symbolize   SymbolizeBaseline  `json:"symbolize"`
}

// baselineRig is a runtime-phase machine with two single-function views
// and fabricated scheduler state, the eval-side analogue of the core
// package's test rig (driven purely through exported API).
type baselineRig struct {
	k   *kernel.Kernel
	rt  *core.Runtime
	idx map[string]int
	ctx uint32 // context_switch trap address
}

func newBaselineRig(ncpu int, opts core.Options, mods ...string) (*baselineRig, error) {
	k, err := kernel.New(kernel.Config{Clock: kernel.ClockKVM, NCPU: ncpu})
	if err != nil {
		return nil, err
	}
	for _, m := range mods {
		if _, err := k.LoadModule(m); err != nil {
			return nil, err
		}
	}
	rt, err := core.New(core.Setup{Machine: k.M, Symbols: k.Syms, TextSize: k.Img.TextSize(), Opts: opts})
	if err != nil {
		return nil, err
	}
	rig := &baselineRig{k: k, rt: rt, idx: map[string]int{}, ctx: k.Syms.MustAddr("context_switch")}
	for app, fn := range map[string]string{"appA": "sys_getpid", "appB": "sys_read"} {
		f, ok := k.Syms.ByName(fn)
		if !ok {
			return nil, fmt.Errorf("eval: missing symbol %s", fn)
		}
		cfg := kview.NewView(app)
		cfg.Insert(kview.BaseKernel, f.Addr, f.End())
		idx, err := rt.LoadView(cfg)
		if err != nil {
			return nil, err
		}
		rig.idx[app] = idx
	}
	return rig, nil
}

// ctxSwitch fabricates a scheduler pick of a task named comm on a vCPU and
// fires the context-switch trap.
func (rig *baselineRig) ctxSwitch(cpuID int, comm string) error {
	if err := rig.k.PickTask(cpuID, 100+cpuID, comm); err != nil {
		return err
	}
	cpu := rig.k.M.CPUs[cpuID]
	cpu.EIP = rig.ctx
	return rig.rt.OnAddrTrap(rig.k.M, cpu)
}

func baselineOpts(mode string) core.Options {
	var o core.Options
	if mode == "snapshot" {
		o = core.FastOptions()
	} else {
		o = core.DefaultOptions()
	}
	o.SwitchAtResume = false
	o.SameViewElision = false
	return o
}

// measureSwitches drives rounds custom→custom switches on every vCPU and
// derives the per-switch EPT mutation cost from the hardware-model
// counters.
func measureSwitches(mode string, ncpu, rounds int) (SwitchBaseline, error) {
	rig, err := newBaselineRig(ncpu, baselineOpts(mode), "af_packet", "snd")
	if err != nil {
		return SwitchBaseline{}, err
	}
	comms := [2]string{"appA", "appB"}
	for c := 0; c < ncpu; c++ {
		if err := rig.ctxSwitch(c, comms[0]); err != nil {
			return SwitchBaseline{}, err
		}
		rig.k.M.CPUs[c].EPT.ResetCounters()
	}
	for i := 0; i < rounds; i++ {
		for c := 0; c < ncpu; c++ {
			if err := rig.ctxSwitch(c, comms[(i+1)%2]); err != nil {
				return SwitchBaseline{}, err
			}
		}
	}
	var pd, pte, root uint64
	for c := 0; c < ncpu; c++ {
		p, t := rig.k.M.CPUs[c].EPT.Counters()
		pd += p
		pte += t
		root += rig.k.M.CPUs[c].EPT.RootSwaps()
	}
	cost := rig.k.M.Cost
	switches := uint64(rounds * ncpu)
	n := float64(switches)
	return SwitchBaseline{
		Mode:               mode,
		VCPUs:              ncpu,
		Switches:           switches,
		RootSwapsPerSwitch: float64(root) / n,
		PDSwapsPerSwitch:   float64(pd) / n,
		PTESwapsPerSwitch:  float64(pte) / n,
		EPTCyclesPerSwitch: float64(pd*cost.EPTPDSwap+pte*cost.EPTPTESwap+root*cost.EPTPSwitch) / n,
	}, nil
}

// measureRecovery drives a storm of UD2 recovery traps over excluded
// kernel functions under a minimal view.
func measureRecovery(mode string) (RecoveryBaseline, error) {
	rig, err := newBaselineRig(1, baselineOpts(mode))
	if err != nil {
		return RecoveryBaseline{}, err
	}
	cpu := rig.k.M.CPUs[0]
	if err := rig.ctxSwitch(0, "appA"); err != nil {
		return RecoveryBaseline{}, err
	}
	anchor, _ := rig.k.Syms.ByName("sys_getpid")
	var recoveries uint64
	var hist stats.Hist
	before := rig.k.M.Cycles()
	for _, f := range rig.k.Syms.Funcs() {
		if f.Module != "" || f.Size < 16 || f.Name == anchor.Name {
			continue
		}
		if f.Addr < mem.KernelTextGVA || f.End() > mem.KernelTextGVA+rig.k.Img.TextSize() {
			continue
		}
		cpu.EIP, cpu.EBP = f.Addr, 0
		start := rig.k.M.Cycles()
		handled, err := rig.rt.OnInvalidOpcode(rig.k.M, cpu)
		if err != nil {
			return RecoveryBaseline{}, err
		}
		if !handled {
			return RecoveryBaseline{}, fmt.Errorf("eval: recovery at %s not handled", f.Name)
		}
		hist.Record(rig.k.M.Cycles() - start)
		if recoveries++; recoveries >= 64 {
			break
		}
	}
	sum := hist.Summarize()
	return RecoveryBaseline{
		Mode:                     mode,
		Recoveries:               recoveries,
		ChargedCyclesPerRecovery: float64(rig.k.M.Cycles()-before) / float64(recoveries),
		CyclesP50:                sum.P50,
		CyclesP95:                sum.P95,
		CyclesP99:                sum.P99,
	}, nil
}

// measureSymbolize compares the charged VMI cost of a module
// symbolization against a cold and a warm module-list cache.
func measureSymbolize() (SymbolizeBaseline, error) {
	rig, err := newBaselineRig(1, core.DefaultOptions(), "af_packet")
	if err != nil {
		return SymbolizeBaseline{}, err
	}
	cpu := rig.k.M.CPUs[0]
	var addr uint32
	for _, f := range rig.k.Syms.Funcs() {
		if f.Module == "af_packet" {
			addr = f.Addr
			break
		}
	}
	if addr == 0 {
		return SymbolizeBaseline{}, fmt.Errorf("eval: no af_packet function")
	}
	rig.rt.InvalidateModuleCache()
	before := rig.k.M.Cycles()
	rig.rt.Symbolize(cpu, addr)
	cold := rig.k.M.Cycles() - before
	before = rig.k.M.Cycles()
	rig.rt.Symbolize(cpu, addr)
	warm := rig.k.M.Cycles() - before
	return SymbolizeBaseline{ColdWalkCycles: cold, CachedLookupCycles: warm}, nil
}

// MeasureBaseline runs every hot-path measurement and assembles the
// machine-readable baseline.
func MeasureBaseline() (*Baseline, error) {
	b := &Baseline{GeneratedBy: "fcbench -baseline"}
	for _, mode := range []string{"snapshot", "legacy"} {
		for _, ncpu := range []int{1, 4, 8} {
			sw, err := measureSwitches(mode, ncpu, 64)
			if err != nil {
				return nil, err
			}
			b.Switches = append(b.Switches, sw)
		}
		rec, err := measureRecovery(mode)
		if err != nil {
			return nil, err
		}
		b.Recovery = append(b.Recovery, rec)
	}
	sym, err := measureSymbolize()
	if err != nil {
		return nil, err
	}
	b.Symbolize = sym

	// Record the cost model the numbers were charged under, so a diff in
	// the baseline can be told apart from a diff in the model.
	rig, err := newBaselineRig(1, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	c := rig.k.M.Cost
	b.CostModel = map[string]uint64{
		"vm_exit":      c.VMExit,
		"vmi_read":     c.VMIRead,
		"ept_pd_swap":  c.EPTPDSwap,
		"ept_pte_swap": c.EPTPTESwap,
		"eptp_switch":  c.EPTPSwitch,
	}
	return b, nil
}

// Format renders the baseline as the human-readable companion to the
// JSON artifact.
func (b *Baseline) Format() string {
	out := ""
	for _, s := range b.Switches {
		out += fmt.Sprintf("switch   %-8s %d vCPU: %6.1f EPT cycles/switch (%.2f root, %.2f PD, %.2f PTE swaps)\n",
			s.Mode, s.VCPUs, s.EPTCyclesPerSwitch, s.RootSwapsPerSwitch, s.PDSwapsPerSwitch, s.PTESwapsPerSwitch)
	}
	for _, r := range b.Recovery {
		out += fmt.Sprintf("recovery %-8s %6.1f charged cycles/recovery over %d recoveries\n",
			r.Mode, r.ChargedCyclesPerRecovery, r.Recoveries)
	}
	out += fmt.Sprintf("symbolize: cold module walk %d cycles, cached lookup %d cycles\n",
		b.Symbolize.ColdWalkCycles, b.Symbolize.CachedLookupCycles)
	return out
}
