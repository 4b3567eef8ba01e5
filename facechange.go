// Package facechange is a Go reproduction of FACE-CHANGE (Gu,
// Saltaformaggio, Zhang, Xu — DSN 2014): application-driven dynamic kernel
// view switching in a virtual machine.
//
// The package is a facade over a deterministic full-machine simulator:
//
//   - a byte-level guest (internal/isa, internal/kernel) whose Linux-like
//     kernel image is generated from a function catalog;
//   - a hypervisor with per-vCPU EPTs, address traps and invalid-opcode
//     exits (internal/hv, internal/mem);
//   - the paper's profiling phase (internal/profiler) and runtime phase
//     (internal/core): per-application kernel views, EPT view switching at
//     context switches, and UD2-driven kernel code recovery with attack
//     provenance.
//
// Typical use mirrors the paper's two phases:
//
//	app, _ := apps.ByName("top")                      // workload
//	view, _ := facechange.Profile(app, facechange.ProfileConfig{})
//	vm, _ := facechange.NewVM(facechange.VMConfig{})  // KVM runtime
//	vm.LoadView(view)                                 // hot-plug the view
//	vm.Runtime.Enable()
//	vm.StartApp(app, 1, 500)
//	vm.Run(500_000_000, nil)
//	for _, ev := range vm.Runtime.Log() { fmt.Print(ev) }
package facechange

import (
	"fmt"

	"facechange/internal/apps"
	"facechange/internal/core"
	"facechange/internal/kernel"
	"facechange/internal/kview"
	"facechange/internal/profiler"
)

// DefaultKbdPeriod is the keyboard-interrupt period used for interactive
// application sessions.
const DefaultKbdPeriod = 120000

// ProfileConfig controls a profiling session.
type ProfileConfig struct {
	// Syscalls is the number of system calls the profiled workload
	// executes (default 600).
	Syscalls int
	// Seed makes the workload deterministic (default 1).
	Seed int64
	// Budget bounds the session in simulated cycles (default 4e9).
	Budget uint64
}

func (c *ProfileConfig) defaults() {
	if c.Syscalls == 0 {
		c.Syscalls = 600
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Budget == 0 {
		c.Budget = 4_000_000_000
	}
}

// Profile runs the paper's profiling phase for one application in an
// independent QEMU-environment session (TSC clocksource, Section III-A)
// and returns its kernel view configuration.
func Profile(app apps.App, cfg ProfileConfig) (*kview.View, error) {
	cfg.defaults()
	kcfg := kernel.Config{Clock: kernel.ClockTSC}
	if app.Interactive {
		kcfg.KbdPeriod = DefaultKbdPeriod
	}
	k, err := kernel.New(kcfg)
	if err != nil {
		return nil, fmt.Errorf("facechange: profile %s: %w", app.Name, err)
	}
	// The session owns its guest outright, and the view it returns holds
	// only address ranges, so the guest's RAM goes back to the free list
	// for the next session at once, not when a collection finds it.
	defer k.Host.Release()
	for _, m := range app.Modules {
		if _, err := k.LoadModule(m); err != nil {
			return nil, fmt.Errorf("facechange: profile %s: %w", app.Name, err)
		}
	}
	p := profiler.New(k)
	task := k.StartTask(kernel.TaskSpec{
		Name:   app.Name,
		Script: apps.Limit(app.Script(cfg.Seed), cfg.Syscalls),
	})
	task.SignalScript = apps.DefaultSignalScript()
	p.Track(task)
	if err := k.M.Run(cfg.Budget, func() bool { return task.State == kernel.TaskDead }); err != nil {
		return nil, fmt.Errorf("facechange: profile %s: %w", app.Name, err)
	}
	if task.State != kernel.TaskDead {
		return nil, fmt.Errorf("facechange: profile %s: workload did not finish within budget", app.Name)
	}
	v, ok := p.ViewFor(task.PID)
	if !ok {
		return nil, fmt.Errorf("facechange: profile %s: no view", app.Name)
	}
	return v, nil
}

// ProfileAll profiles every application in independent sessions and
// returns the views keyed by name. Sessions run concurrently on a default
// Pool (one worker per CPU); failures are aggregated per app in a
// ProfileErrors, and the returned map holds every view that did profile.
func ProfileAll(list []apps.App, cfg ProfileConfig) (map[string]*kview.View, error) {
	return NewPool(PoolConfig{}).ProfileAll(list, cfg)
}

// VMConfig configures a runtime-phase virtual machine (the paper's KVM
// environment).
type VMConfig struct {
	// NCPU is the number of vCPUs (default 1, the paper's prototype).
	NCPU int
	// Modules are benign modules to load at boot.
	Modules []string
	// ExtraModules compiles additional module images into the kernel
	// (e.g. rootkits) without loading them.
	ExtraModules []kernel.ModuleSpec
	// Options are the FACE-CHANGE design toggles (default: the paper's
	// configuration).
	Options *core.Options
}

// VM is a runtime-phase machine with FACE-CHANGE attached.
type VM struct {
	Kernel  *kernel.Kernel
	Runtime *core.Runtime
}

// NewVM boots a KVM-environment guest, without periodic keyboard
// interrupts, and attaches a (disabled) FACE-CHANGE runtime. A VM needs
// no closing: once nothing references it or any slice of its guest RAM,
// the garbage collector returns the RAM to the free list for the next
// guest.
func NewVM(cfg VMConfig) (*VM, error) {
	k, err := kernel.New(kernel.Config{
		Clock:        kernel.ClockKVM,
		NCPU:         cfg.NCPU,
		ExtraModules: cfg.ExtraModules,
	})
	if err != nil {
		return nil, fmt.Errorf("facechange: new vm: %w", err)
	}
	for _, m := range cfg.Modules {
		if _, err := k.LoadModule(m); err != nil {
			return nil, fmt.Errorf("facechange: new vm: %w", err)
		}
	}
	opts := core.DefaultOptions()
	if cfg.Options != nil {
		opts = *cfg.Options
	}
	rt, err := core.New(core.Setup{
		Machine:  k.M,
		Symbols:  k.Syms,
		TextSize: k.Img.TextSize(),
		Opts:     opts,
	})
	if err != nil {
		return nil, fmt.Errorf("facechange: new vm: %w", err)
	}
	return &VM{Kernel: k, Runtime: rt}, nil
}

// LoadView materializes a kernel view and binds it to its application
// name.
func (vm *VM) LoadView(v *kview.View) (int, error) { return vm.Runtime.LoadView(v) }

// StartApp launches an application workload in the guest, limited to n
// system calls (n <= 0 runs forever).
func (vm *VM) StartApp(app apps.App, seed int64, n int) *kernel.Task {
	s := app.Script(seed)
	if n > 0 {
		s = apps.Limit(s, n)
	}
	t := vm.Kernel.StartTask(kernel.TaskSpec{Name: app.Name, Script: s})
	t.SignalScript = apps.DefaultSignalScript()
	return t
}

// Run executes the guest for the given simulated-cycle budget; stop (may
// be nil) is polled at interrupt boundaries.
func (vm *VM) Run(budget uint64, stop func() bool) error {
	return vm.Kernel.M.Run(budget, stop)
}

// RunUntilDead runs until every guest task has exited (or the budget is
// exhausted, which returns an error).
func (vm *VM) RunUntilDead(budget uint64) error {
	if err := vm.Kernel.M.Run(budget, vm.Kernel.AllScriptsDone); err != nil {
		return err
	}
	if !vm.Kernel.AllScriptsDone() {
		return fmt.Errorf("facechange: tasks still alive after %d cycles", budget)
	}
	return nil
}
