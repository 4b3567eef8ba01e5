package core

import (
	"errors"
	"maps"
	"testing"

	"facechange/internal/kernel"
	"facechange/internal/kview"
	"facechange/internal/mem"
)

// switchRig is a runtime-phase machine with two single-function views
// loaded; kernel.PickTask fabricates its scheduler picks, so tests can
// stage arbitrary context-switch sequences without running guest code.
// Benchmarks share it (testing.TB); mods names guest modules to load
// before the views so every view also shadows scattered module pages.
type switchRig struct {
	k   *kernel.Kernel
	rt  *Runtime
	idx map[string]int // app name → view index
}

func newSwitchRig(t testing.TB, ncpu int, opts Options, mods ...string) *switchRig {
	t.Helper()
	k, err := kernel.New(kernel.Config{Clock: kernel.ClockKVM, NCPU: ncpu})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mods {
		if _, err := k.LoadModule(m); err != nil {
			t.Fatalf("LoadModule %s: %v", m, err)
		}
	}
	rt, err := New(Setup{Machine: k.M, Symbols: k.Syms, TextSize: k.Img.TextSize(), Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	rig := &switchRig{k: k, rt: rt, idx: map[string]int{}}
	for app, fn := range map[string]string{"appA": "sys_getpid", "appB": "sys_read"} {
		f, ok := k.Syms.ByName(fn)
		if !ok {
			t.Fatalf("missing symbol %s", fn)
		}
		cfg := kview.NewView(app)
		cfg.Insert(kview.BaseKernel, f.Addr, f.End())
		idx, err := rt.LoadView(cfg)
		if err != nil {
			t.Fatalf("LoadView %s: %v", app, err)
		}
		rig.idx[app] = idx
	}
	return rig
}

// trap drives one OnAddrTrap exit on a vCPU: a context-switch trap with
// the next task's comm, or a resume-userspace trap.
func (rig *switchRig) trap(t testing.TB, cpuID int, at, comm string) {
	t.Helper()
	cpu := rig.k.M.CPUs[cpuID]
	switch at {
	case "ctx":
		if err := rig.k.PickTask(cpuID, 100+cpuID, comm); err != nil {
			t.Fatal(err)
		}
		cpu.EIP = rig.rt.ctxSwitchAddr
	case "resume":
		cpu.EIP = rig.rt.resumeAddr
	default:
		t.Fatalf("bad trap point %q", at)
	}
	if err := rig.rt.OnAddrTrap(rig.k.M, cpu); err != nil {
		t.Fatalf("OnAddrTrap(cpu%d, %s %q): %v", cpuID, at, comm, err)
	}
}

// view resolves a symbolic view name ("full", "appA", "appB") to an index.
func (rig *switchRig) view(name string) int {
	if name == "full" {
		return FullView
	}
	return rig.idx[name]
}

func TestOnAddrTrapTable(t *testing.T) {
	type step struct {
		cpu  int
		at   string // "ctx" or "resume"
		comm string // incoming task for ctx traps

		wantActive []string // per-vCPU active view after the step
		wantArmed  []bool   // per-vCPU resumeArmed after the step
		wantRefs   int      // shared resume-breakpoint refcount
	}
	cases := []struct {
		name     string
		ncpu     int
		opts     func() Options
		steps    []step
		switches uint64 // total ViewSwitches at the end
	}{
		{
			// The paper's default: a custom view is not installed at
			// context_switch but deferred to resume_userspace, so pending
			// I/O for the outgoing view is not missed (Section III-B2).
			name: "deferred-switch-at-resume",
			ncpu: 1,
			opts: DefaultOptions,
			steps: []step{
				{cpu: 0, at: "ctx", comm: "appA",
					wantActive: []string{"full"}, wantArmed: []bool{true}, wantRefs: 1},
				{cpu: 0, at: "resume",
					wantActive: []string{"appA"}, wantArmed: []bool{false}, wantRefs: 0},
			},
			switches: 1,
		},
		{
			// Ablation: with SwitchAtResume off the view switches
			// immediately at the context-switch trap.
			name: "immediate-switch-without-resume-deferral",
			ncpu: 1,
			opts: func() Options { o := DefaultOptions(); o.SwitchAtResume = false; return o },
			steps: []step{
				{cpu: 0, at: "ctx", comm: "appA",
					wantActive: []string{"appA"}, wantArmed: []bool{false}, wantRefs: 0},
			},
			switches: 1,
		},
		{
			// Same-view elision: scheduling another process with the same
			// view must not re-switch, and must cancel a pending deferred
			// switch to the same view.
			name: "same-view-elision",
			ncpu: 1,
			opts: DefaultOptions,
			steps: []step{
				{cpu: 0, at: "ctx", comm: "appA",
					wantActive: []string{"full"}, wantArmed: []bool{true}, wantRefs: 1},
				{cpu: 0, at: "resume",
					wantActive: []string{"appA"}, wantArmed: []bool{false}, wantRefs: 0},
				// appA → appA: elided, nothing armed.
				{cpu: 0, at: "ctx", comm: "appA",
					wantActive: []string{"appA"}, wantArmed: []bool{false}, wantRefs: 0},
			},
			switches: 1,
		},
		{
			// Returning to the full view (a process with no custom view) is
			// never deferred, and cancels a pending deferred switch.
			name: "full-view-switch-is-immediate",
			ncpu: 1,
			opts: DefaultOptions,
			steps: []step{
				{cpu: 0, at: "ctx", comm: "appA",
					wantActive: []string{"full"}, wantArmed: []bool{true}, wantRefs: 1},
				{cpu: 0, at: "ctx", comm: "unprofiled",
					wantActive: []string{"full"}, wantArmed: []bool{false}, wantRefs: 0},
			},
			switches: 0, // full → full elided
		},
		{
			// With elision disabled every context switch pays the EPT
			// rewrite, even view → same view (the ablation measures this).
			name: "elision-disabled-always-switches",
			ncpu: 1,
			opts: func() Options {
				o := DefaultOptions()
				o.SameViewElision = false
				o.SwitchAtResume = false
				return o
			},
			steps: []step{
				{cpu: 0, at: "ctx", comm: "appA",
					wantActive: []string{"appA"}, wantArmed: []bool{false}, wantRefs: 0},
				{cpu: 0, at: "ctx", comm: "appA",
					wantActive: []string{"appA"}, wantArmed: []bool{false}, wantRefs: 0},
			},
			switches: 2,
		},
		{
			// The resume_userspace breakpoint is shared hardware state: when
			// vCPU 0 arms it, vCPU 1 passing resume_userspace must ignore
			// the trap and leave it armed for vCPU 0.
			name: "multi-vcpu-shared-breakpoint-disarm",
			ncpu: 2,
			opts: DefaultOptions,
			steps: []step{
				{cpu: 0, at: "ctx", comm: "appA",
					wantActive: []string{"full", "full"}, wantArmed: []bool{true, false}, wantRefs: 1},
				// vCPU 1 hits the shared breakpoint without having armed it.
				{cpu: 1, at: "resume",
					wantActive: []string{"full", "full"}, wantArmed: []bool{true, false}, wantRefs: 1},
				{cpu: 0, at: "resume",
					wantActive: []string{"appA", "full"}, wantArmed: []bool{false, false}, wantRefs: 0},
			},
			switches: 1,
		},
		{
			// Both vCPUs defer concurrently: the refcount keeps the shared
			// breakpoint armed until the second vCPU has switched.
			name: "multi-vcpu-both-armed",
			ncpu: 2,
			opts: DefaultOptions,
			steps: []step{
				{cpu: 0, at: "ctx", comm: "appA",
					wantActive: []string{"full", "full"}, wantArmed: []bool{true, false}, wantRefs: 1},
				{cpu: 1, at: "ctx", comm: "appB",
					wantActive: []string{"full", "full"}, wantArmed: []bool{true, true}, wantRefs: 2},
				{cpu: 1, at: "resume",
					wantActive: []string{"full", "appB"}, wantArmed: []bool{true, false}, wantRefs: 1},
				{cpu: 0, at: "resume",
					wantActive: []string{"appA", "appB"}, wantArmed: []bool{false, false}, wantRefs: 0},
			},
			switches: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rig := newSwitchRig(t, tc.ncpu, tc.opts())
			for i, s := range tc.steps {
				rig.trap(t, s.cpu, s.at, s.comm)
				for c := 0; c < tc.ncpu; c++ {
					if got, want := rig.rt.cpus[c].active, rig.view(s.wantActive[c]); got != want {
						t.Errorf("step %d: cpu%d active = %d, want %d (%s)", i, c, got, want, s.wantActive[c])
					}
					if got := rig.rt.cpus[c].resumeArmed; got != s.wantArmed[c] {
						t.Errorf("step %d: cpu%d resumeArmed = %v, want %v", i, c, got, s.wantArmed[c])
					}
				}
				if got := rig.rt.resumeTrapRefs; got != s.wantRefs {
					t.Errorf("step %d: resumeTrapRefs = %d, want %d", i, got, s.wantRefs)
				}
			}
			if rig.rt.ViewSwitches != tc.switches {
				t.Errorf("ViewSwitches = %d, want %d", rig.rt.ViewSwitches, tc.switches)
			}
		})
	}
}

// TestUnloadActiveView: unloading a view that a vCPU is actively running
// under must revert that vCPU to the pristine full view, and a deferred
// switch targeting the unloaded view must resolve to the full view at the
// pending resume trap — never to a freed page table.
func TestUnloadActiveView(t *testing.T) {
	rig := newSwitchRig(t, 2, DefaultOptions())
	rig.rt.Enable()
	idx := rig.idx["appA"]

	// cpu0 ends up actively on appA; cpu1 has a deferred switch to appA.
	rig.trap(t, 0, "ctx", "appA")
	rig.trap(t, 0, "resume", "")
	rig.trap(t, 1, "ctx", "appA")
	if got := rig.rt.ActiveView(0); got != idx {
		t.Fatalf("setup: cpu0 active = %d, want %d", got, idx)
	}
	if !rig.rt.cpus[1].resumeArmed || rig.rt.cpus[1].last != idx {
		t.Fatalf("setup: cpu1 armed=%v last=%d, want deferred switch to %d",
			rig.rt.cpus[1].resumeArmed, rig.rt.cpus[1].last, idx)
	}

	if err := rig.rt.UnloadView(idx); err != nil {
		t.Fatalf("UnloadView of active view: %v", err)
	}

	// cpu0 reverted to the full view with identity EPT.
	if got := rig.rt.ActiveView(0); got != FullView {
		t.Errorf("cpu0 active = %d after unload, want full view", got)
	}
	if _, redirected := rig.k.M.CPUs[0].EPT.TranslatePage(mem.KernelTextGPA); redirected {
		t.Error("cpu0 text page still redirected after unloading its active view")
	}
	// cpu1's deferred switch retargeted to the full view, trap still armed.
	if got := rig.rt.cpus[1].last; got != FullView {
		t.Errorf("cpu1 deferred view = %d after unload, want full view", got)
	}
	if !rig.rt.cpus[1].resumeArmed {
		t.Error("cpu1 resume trap disarmed by unload; pending resume would be missed")
	}
	if err := rig.rt.CheckSwitchState(); err != nil {
		t.Errorf("inconsistent switch state after unload: %v", err)
	}

	// The pending resume resolves cleanly to the full view.
	rig.trap(t, 1, "resume", "")
	if got := rig.rt.ActiveView(1); got != FullView {
		t.Errorf("cpu1 active = %d after deferred resume, want full view", got)
	}
	if got := rig.rt.resumeTrapRefs; got != 0 {
		t.Errorf("resume refcount = %d after all resumes, want 0", got)
	}

	// The slot is gone: double unload fails, the name no longer resolves.
	if err := rig.rt.UnloadView(idx); err == nil {
		t.Error("second UnloadView of the same index succeeded")
	}
	if got := rig.rt.ViewIndex("appA"); got != FullView {
		t.Errorf("ViewIndex(appA) = %d after unload, want full view", got)
	}
}

// TestUnloadActiveViewImmediate is the same hazard without deferral: with
// switch-at-resume off the view is installed at the context-switch trap,
// so the unload itself must pull the EPT redirects.
func TestUnloadActiveViewImmediate(t *testing.T) {
	opts := DefaultOptions()
	opts.SwitchAtResume = false
	opts.SameViewElision = false
	rig := newSwitchRig(t, 1, opts)
	idx := rig.idx["appB"]

	rig.trap(t, 0, "ctx", "appB")
	if got := rig.rt.ActiveView(0); got != idx {
		t.Fatalf("setup: cpu0 active = %d, want %d", got, idx)
	}
	if err := rig.rt.UnloadView(idx); err != nil {
		t.Fatalf("UnloadView: %v", err)
	}
	if got := rig.rt.ActiveView(0); got != FullView {
		t.Errorf("cpu0 active = %d after unload, want full view", got)
	}
	if _, redirected := rig.k.M.CPUs[0].EPT.TranslatePage(mem.KernelTextGPA); redirected {
		t.Error("text page still redirected after unload")
	}
	if err := rig.rt.CheckSwitchState(); err != nil {
		t.Errorf("inconsistent switch state: %v", err)
	}
}

// TestLoadViewPartialFailureReleasesCache: when staging fails midway
// (cache pressure on a fresh page), LoadView must release every page it
// already interned — the cache snapshot is identical before and after the
// failed load, and lifting the limit lets the same load succeed.
func TestLoadViewPartialFailureReleasesCache(t *testing.T) {
	rig := newSwitchRig(t, 1, DefaultOptions())
	c := rig.rt.Cache()

	before := c.Snapshot()
	// Cap the cache at its current population: re-interning resident
	// content still succeeds, but the first page with fresh content fails.
	c.SetLimit(c.Stats().DistinctPages)

	f, ok := rig.k.Syms.ByName("sys_write")
	if !ok {
		t.Fatal("missing symbol sys_write")
	}
	cfg := kview.NewView("appC")
	cfg.Insert(kview.BaseKernel, f.Addr, f.End())

	if _, err := rig.rt.LoadView(cfg); !errors.Is(err, mem.ErrCachePressure) {
		t.Fatalf("LoadView under cache pressure: err = %v, want ErrCachePressure", err)
	}
	after := c.Snapshot()
	if !maps.Equal(before, after) {
		t.Fatalf("failed LoadView leaked cache references:\n before %v\n after  %v", before, after)
	}
	if got := rig.rt.ViewIndex("appC"); got != FullView {
		t.Errorf("failed load left appC resolvable to view %d", got)
	}

	// Lifting the limit makes the identical load succeed.
	c.SetLimit(0)
	idx, err := rig.rt.LoadView(cfg)
	if err != nil {
		t.Fatalf("LoadView after lifting limit: %v", err)
	}
	if err := rig.rt.UnloadView(idx); err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(before, c.Snapshot()) {
		t.Error("load/unload cycle did not restore the cache snapshot")
	}
}

// TestSwitchToRemapsEPT verifies the EPT effect of switchTo in both
// base-kernel switch modes: the text pages translate to the view's shadow
// pages while active and back to identity after reverting to the full
// view.
func TestSwitchToRemapsEPT(t *testing.T) {
	for _, mode := range []struct {
		name       string
		pdGranular bool
	}{
		{"pd-granular", true},
		{"pte-granular", false},
	} {
		t.Run(mode.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.PDGranularSwitch = mode.pdGranular
			rig := newSwitchRig(t, 1, opts)
			cpu := rig.k.M.CPUs[0]
			v := rig.rt.ViewByIndex(rig.idx["appA"])

			rig.rt.switchTo(cpu, rig.idx["appA"])
			for _, gpa := range []uint32{mem.KernelTextGPA, mem.KernelTextGPA + 17*mem.PageSize} {
				hpa, redirected := cpu.EPT.TranslatePage(gpa)
				if !redirected {
					t.Fatalf("text page %#x not redirected under the view", gpa)
				}
				if want := shadowHPA(t, v, gpa); hpa != want {
					t.Errorf("text page %#x → %#x, want shadow %#x", gpa, hpa, want)
				}
			}

			rig.rt.switchTo(cpu, FullView)
			if _, redirected := cpu.EPT.TranslatePage(mem.KernelTextGPA); redirected {
				t.Error("text page still redirected after reverting to the full view")
			}
		})
	}
}
