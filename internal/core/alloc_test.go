package core

import (
	"fmt"
	"testing"

	"facechange/internal/kernel"
	"facechange/internal/kview"
	"facechange/internal/mem"
	"facechange/internal/telemetry"
)

// allocRig fabricates scheduler state exactly as a guest context switch
// would leave it, so OnAddrTrap can be driven in a tight loop.
type allocRig struct {
	k   *kernel.Kernel
	rt  *Runtime
	ctx uint32
	// resume is the resume_userspace trap address when custom-view
	// switches are deferred to it (SwitchAtResume), 0 when they commit at
	// the context-switch trap.
	resume uint32
}

// allocApps are the rig's two profiled apps, one single-function view each.
var allocApps = [2]string{"appA", "appB"}

// newAllocRig boots the rig; deferred keeps SwitchAtResume on, so every
// pick takes the context-switch trap and then the resume trap that
// commits the switch. Otherwise the switch commits at the first trap.
func newAllocRig(t *testing.T, opts Options, deferred bool) *allocRig {
	t.Helper()
	opts.SwitchAtResume = deferred
	k, rt := runtimeMachine(t, nil, opts)
	rig := &allocRig{k: k, rt: rt, ctx: k.Syms.MustAddr("context_switch")}
	if deferred {
		rig.resume = k.Syms.MustAddr("resume_userspace")
	}
	for i, app := range allocApps {
		fn := []string{"sys_getpid", "sys_read"}[i]
		f, ok := k.Syms.ByName(fn)
		if !ok {
			t.Fatalf("missing symbol %s", fn)
		}
		cfg := kview.NewView(app)
		cfg.Insert(kview.BaseKernel, f.Addr, f.End())
		if _, err := rt.LoadView(cfg); err != nil {
			t.Fatalf("LoadView: %v", err)
		}
	}
	return rig
}

// pick fabricates a scheduler pick of app i on vCPU 0 and fires the
// context-switch trap, then the resume trap if the rig defers switches;
// callers measure all of it, so the pins cover the fabricator too.
func (rig *allocRig) pick(i int) error {
	if err := rig.k.PickTask(0, 100+i, allocApps[i]); err != nil {
		return err
	}
	cpu := rig.k.M.CPUs[0]
	cpu.EIP = rig.ctx
	if err := rig.rt.OnAddrTrap(rig.k.M, cpu); err != nil || rig.resume == 0 {
		return err
	}
	cpu.EIP = rig.resume
	return rig.rt.OnAddrTrap(rig.k.M, cpu)
}

// measureSwitchAllocs reports allocations per custom→custom view switch
// with no telemetry emitter attached (the production default).
func measureSwitchAllocs(t *testing.T, opts Options, deferred bool) float64 {
	t.Helper()
	rig := newAllocRig(t, opts, deferred)
	var err error
	// Warm up both directions: first-touch EPT mutations may allocate
	// (map growth inside the hardware model); steady state must not.
	for i := 0; i < 4 && err == nil; i++ {
		err = rig.pick(i % 2)
	}
	if err != nil {
		t.Fatalf("warmup: %v", err)
	}
	before := rig.rt.ViewSwitches
	n := 0
	avg := testing.AllocsPerRun(100, func() {
		if e := rig.pick(n % 2); e != nil {
			err = e
		}
		n++
	})
	if err != nil {
		t.Fatalf("switch: %v", err)
	}
	if got := rig.rt.ViewSwitches - before; got != uint64(n) {
		t.Fatalf("%d picks committed %d switches — the pin measured a dead path", n, got)
	}
	if refs := rig.rt.resumeTrapRefs; refs != 0 {
		t.Fatalf("resume trap left armed (%d refs) after the switches committed", refs)
	}
	return avg
}

// allocModes are the two switch implementations every pin table covers.
var allocModes = []struct {
	name string
	opts Options
}{
	{"snapshot", FastOptions()},
	{"legacy", DefaultOptions()},
}

// TestSnapshotSwitchZeroAllocs pins the snapshot switch path — trap entry,
// VMI rq->curr read, view lookup, EPTP root swap, disabled-telemetry emit
// — at zero heap allocations per switch. This is the path a production
// guest pays on every context switch; a regression here is a per-switch
// GC tax on the whole machine.
func TestSnapshotSwitchZeroAllocs(t *testing.T) {
	if avg := measureSwitchAllocs(t, FastOptions(), false); avg != 0 {
		t.Errorf("snapshot switch path allocates %.1f objects/switch, want 0", avg)
	}
}

// TestLegacySwitchZeroAllocs pins the legacy per-entry rewrite path at
// zero steady-state allocations per switch (PD slots and module PTE maps
// are reused after warm-up).
func TestLegacySwitchZeroAllocs(t *testing.T) {
	if avg := measureSwitchAllocs(t, DefaultOptions(), false); avg != 0 {
		t.Errorf("legacy switch path allocates %.1f objects/switch, want 0", avg)
	}
}

// TestDeferredSwitchZeroAllocs pins the paper's default switch timing
// at zero allocations per switch on both switch paths: the context-switch
// trap arms the resume_userspace breakpoint and the resume trap disarms
// it and commits the switch.
func TestDeferredSwitchZeroAllocs(t *testing.T) {
	for _, mode := range allocModes {
		t.Run(mode.name, func(t *testing.T) {
			if avg := measureSwitchAllocs(t, mode.opts, true); avg != 0 {
				t.Errorf("deferred %s switch allocates %.1f objects/switch, want 0", mode.name, avg)
			}
		})
	}
}

// TestRecoveryTrapAllocs pins a warm UD2 recovery trap — backtrace over
// a planted frame chain, symbolize, whole-function fetch into pages the
// view already owns, log append — at no more than one allocation: the
// exact-size copy of the backtrace that the logged event retains.
func TestRecoveryTrapAllocs(t *testing.T) {
	for _, mode := range allocModes {
		t.Run(mode.name, func(t *testing.T) {
			rig := newAllocRig(t, mode.opts, false)
			if err := rig.pick(0); err != nil {
				t.Fatal(err)
			}
			getpid := rig.k.Syms.MustAddr("sys_getpid")
			var targets []uint32
			for _, f := range textFuncs(t, rig.k) {
				if f.Name != "sys_getpid" && f.Name != "sys_read" && len(targets) < 16 {
					targets = append(targets, f.Addr)
				}
			}
			ebp, err := rig.k.PlantFrames(0, []uint32{getpid + 2, getpid + 4})
			if err != nil {
				t.Fatal(err)
			}
			cpu := rig.k.M.CPUs[0]
			trap := func(i int) error {
				cpu.EIP, cpu.EBP = targets[i%len(targets)], ebp
				handled, err := rig.rt.OnInvalidOpcode(rig.k.M, cpu)
				if err == nil && !handled {
					err = fmt.Errorf("trap at %#x not handled", cpu.EIP)
				}
				return err
			}
			// Warm: every target recovered once, so its pages are the
			// view's own and the per-vCPU arena has grown.
			for i := range targets {
				if err := trap(i); err != nil {
					t.Fatal(err)
				}
			}
			rig.rt.ResetLog()
			n := 0
			avg := testing.AllocsPerRun(100, func() {
				if e := trap(n); e != nil {
					err = e
				}
				n++
			})
			if err != nil {
				t.Fatal(err)
			}
			log := rig.rt.Log()
			if rig.rt.Recoveries != uint64(n) || len(log[len(log)-1].Backtrace) != 2 {
				t.Fatalf("%d traps made %d recoveries (last backtrace %d frames), want one each with 2 frames — the pin measured another path",
					n, rig.rt.Recoveries, len(log[len(log)-1].Backtrace))
			}
			if avg > 1 {
				t.Errorf("warm %s recovery trap allocates %.1f objects/trap, want at most 1", mode.name, avg)
			}
		})
	}
}

// TestElidedSwitchZeroAllocs pins the same-view elision path (trap that
// decides not to switch) at zero allocations.
func TestElidedSwitchZeroAllocs(t *testing.T) {
	rig := newAllocRig(t, FastOptions(), false)
	var err error
	if err = rig.pick(0); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if e := rig.pick(0); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Errorf("elided switch allocates %.1f objects/trap, want 0", avg)
	}
}

// TestEmitterAttachedStillSwitches sanity-checks that the zero-alloc
// rewrite did not break the instrumented path: with an emitter attached
// the switch still emits, and detaching restores the zero-alloc path.
func TestEmitterAttachedStillSwitches(t *testing.T) {
	rig := newAllocRig(t, FastOptions(), false)
	var got []string
	rig.rt.SetEmitter(emitFunc(func(view string) { got = append(got, view) }))
	if err := rig.pick(0); err != nil {
		t.Fatal(err)
	}
	if err := rig.pick(1); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "appA" || got[1] != "appB" {
		t.Fatalf("emitted switches = %v, want [appA appB]", got)
	}
	rig.rt.SetEmitter(nil)
	n := 0
	avg := testing.AllocsPerRun(100, func() {
		rig.pick(n % 2)
		n++
	})
	if avg != 0 {
		t.Errorf("detached emitter still allocates %.1f objects/switch", avg)
	}
}

// TestEnabledTelemetrySwitchZeroAllocs pins the switch path with a live
// telemetry hub attached: trap entry, VMI read, view lookup, root swap
// AND the Emit into the per-vCPU ring must stay allocation-free — the
// instrumented machine pays no GC tax over the silent one.
func TestEnabledTelemetrySwitchZeroAllocs(t *testing.T) {
	rig := newAllocRig(t, FastOptions(), false)
	hub := telemetry.NewHub(telemetry.HubConfig{CPUs: 1, RingSize: 4096})
	rig.rt.SetEmitter(hub)
	var err error
	for i := 0; i < 4 && err == nil; i++ {
		err = rig.pick(i % 2)
	}
	if err != nil {
		t.Fatalf("warmup: %v", err)
	}
	n := 0
	avg := testing.AllocsPerRun(100, func() {
		if e := rig.pick(n % 2); e != nil {
			err = e
		}
		n++
	})
	if err != nil {
		t.Fatalf("switch: %v", err)
	}
	if avg != 0 {
		t.Errorf("enabled-telemetry switch allocates %.1f objects/switch, want 0", avg)
	}
	if hub.Emitted() == 0 {
		t.Fatal("hub saw no events — the pin measured a dead path")
	}
}

// TestEnabledTelemetryElidedZeroAllocs pins the elided-switch event path
// (same-view trap with a hub attached) at zero allocations.
func TestEnabledTelemetryElidedZeroAllocs(t *testing.T) {
	rig := newAllocRig(t, FastOptions(), false)
	hub := telemetry.NewHub(telemetry.HubConfig{CPUs: 1, RingSize: 4096})
	rig.rt.SetEmitter(hub)
	var err error
	if err = rig.pick(0); err != nil {
		t.Fatal(err)
	}
	before := rig.rt.ElidedSwitches
	avg := testing.AllocsPerRun(100, func() {
		if e := rig.pick(0); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Errorf("enabled-telemetry elided switch allocates %.1f objects/trap, want 0", avg)
	}
	if rig.rt.ElidedSwitches == before {
		t.Fatal("no elisions counted — the pin measured a dead path")
	}
}

// TestFuncSpanZeroAllocs pins the prologue scan at zero allocations with
// no fault injector attached: funcSpan reads guest memory in place, so
// neither a view load (base-kernel and module ranges) nor a cold
// recovery copies a scan region into the arena.
func TestFuncSpanZeroAllocs(t *testing.T) {
	opts := FastOptions()
	opts.SwitchAtResume = false
	rig := newSwitchRig(t, 1, opts, "af_packet")
	rt := rig.rt
	getpid := rig.k.Syms.MustAddr("sys_getpid")
	cfg := kview.NewView("appM")
	cfg.Insert(kview.BaseKernel, getpid, getpid+1)
	for _, m := range rig.k.Modules() {
		f := moduleFunc(t, rig.k, m.Name)
		cfg.Insert(m.Name, f.Addr-m.Base, f.End()-m.Base)
	}
	if _, err := rt.LoadView(cfg); err != nil {
		t.Fatalf("LoadView: %v", err)
	}
	cpu := rig.k.M.CPUs[0]
	if err := rt.switchTo(cpu, rig.idx["appA"]); err != nil {
		t.Fatal(err)
	}
	fn, ok := rig.k.Syms.ByName("sys_read")
	if !ok {
		t.Fatal("missing symbol sys_read")
	}
	cpu.EIP, cpu.EBP = fn.Addr, 0
	if handled, err := rt.OnInvalidOpcode(rig.k.M, cpu); err != nil || !handled {
		t.Fatalf("OnInvalidOpcode(sys_read): handled=%v err=%v", handled, err)
	}
	if rt.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1 cold recovery", rt.Recoveries)
	}
	if c := cap(rt.arenas[0].regionBuf); c != 0 {
		t.Errorf("scan region copied into the arena (cap %d) with no injector attached", c)
	}
	lo, hi := mem.KernelTextGVA, mem.KernelTextGVA+rt.textSize
	var err error
	avg := testing.AllocsPerRun(100, func() {
		if _, _, e := rt.funcSpan(rt.arenas[0], fn.Addr, fn.Addr+1, lo, hi); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Errorf("funcSpan allocates %.1f objects/scan, want 0", avg)
	}
}

// TestLoadViewStagingAllocs: a load stages into page buffers the runtime
// keeps, so its allocations do not grow with the number of pages it
// writes. Both views stay resident, so every measured reload interns only
// cache hits and the difference between the two loads is staging alone.
func TestLoadViewStagingAllocs(t *testing.T) {
	rig := newSwitchRig(t, 1, FastOptions(), "af_packet", "snd")
	rt := rig.rt
	getpid := rig.k.Syms.MustAddr("sys_getpid")
	small := kview.NewView("small")
	small.Insert(kview.BaseKernel, getpid, getpid+1)
	big := kview.NewView("big")
	for i, f := range textFuncs(t, rig.k) {
		if i%4 == 0 {
			big.Insert(kview.BaseKernel, f.Addr, f.End())
		}
	}
	staged := map[string]int{}
	for _, cfg := range []*kview.View{small, big} {
		if _, err := rt.LoadView(cfg); err != nil {
			t.Fatalf("LoadView %s: %v", cfg.App, err)
		}
		staged[cfg.App] = rt.stage.used
	}
	if staged["big"] < 10*staged["small"] {
		t.Fatalf("staged pages: big %d, small %d; want big to write many more", staged["big"], staged["small"])
	}
	var err error
	reload := func(cfg *kview.View) float64 {
		return testing.AllocsPerRun(20, func() {
			idx, e := rt.LoadView(cfg)
			if e == nil {
				e = rt.UnloadView(idx)
			}
			if e != nil {
				err = e
			}
		})
	}
	a, b := reload(small), reload(big)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("allocs/load: %.0f staging %d pages, %.0f staging %d pages", a, staged["small"], b, staged["big"])
	if b > a+2 {
		t.Errorf("staging %d more pages costs %.0f more allocations, want none", staged["big"]-staged["small"], b-a)
	}
}

type emitFunc func(view string)

func (f emitFunc) Emit(ev Event) {
	if ev.Kind.String() == "eptp-swap" {
		f(ev.View)
	} else {
		f(fmt.Sprintf("unexpected:%s", ev.Kind))
	}
}
