package core

import (
	"fmt"
	"sync"
	"testing"

	"facechange/internal/kernel"
	"facechange/internal/mem"
)

// snapOpts is the snapshot-switching test configuration: immediate
// switches (no resume deferral) so tests observe EPT effects at the
// context-switch trap.
func snapOpts() Options {
	o := FastOptions()
	o.SwitchAtResume = false
	return o
}

// textFuncs returns base-kernel functions inside the shadowed text, the
// pool recovery tests draw from.
func textFuncs(t testing.TB, k *kernel.Kernel) []*kernel.Func {
	t.Helper()
	var out []*kernel.Func
	for _, f := range k.Syms.Funcs() {
		if f.Module == "" && f.Size >= 16 && f.Addr >= mem.KernelTextGVA &&
			f.End() <= mem.KernelTextGVA+k.Img.TextSize() {
			out = append(out, f)
		}
	}
	if len(out) == 0 {
		t.Fatal("no base-kernel functions in symbol table")
	}
	return out
}

// moduleFunc returns one function of a loaded guest module.
func moduleFunc(t testing.TB, k *kernel.Kernel, mod string) *kernel.Func {
	t.Helper()
	for _, f := range k.Syms.Funcs() {
		if f.Module == mod && f.Size >= 16 {
			return f
		}
	}
	t.Fatalf("no function in module %q", mod)
	return nil
}

// TestSnapshotSwitchSingleRootSwap is the acceptance criterion: with
// SnapshotSwitch enabled a custom→custom view switch performs exactly one
// root-swap op — no PD writes, no PTE writes — and charges exactly one
// Cost.EPTPSwitch.
func TestSnapshotSwitchSingleRootSwap(t *testing.T) {
	rig := newSwitchRig(t, 1, snapOpts(), "af_packet", "snd")
	cpu := rig.k.M.CPUs[0]

	rig.trap(t, 0, "ctx", "appA")
	cpu.EPT.ResetCounters()
	cycles := rig.k.M.Cycles()

	if err := rig.rt.switchTo(cpu, rig.idx["appB"]); err != nil {
		t.Fatal(err)
	}

	pd, pte := cpu.EPT.Counters()
	if root := cpu.EPT.RootSwaps(); root != 1 || pd != 0 || pte != 0 {
		t.Errorf("custom→custom switch cost %d root swaps, %d PD writes, %d PTE writes; want exactly 1/0/0", root, pd, pte)
	}
	if got, want := rig.k.M.Cycles()-cycles, rig.k.M.Cost.EPTPSwitch; got != want {
		t.Errorf("charged %d cycles for the switch, want exactly Cost.EPTPSwitch = %d", got, want)
	}
	vB := rig.rt.ViewByIndex(rig.idx["appB"])
	if cpu.EPT.Root() != vB.root {
		t.Error("vCPU EPT root is not appB's root")
	}

	// Reverting to the full view is also a single root swap (to nil).
	cpu.EPT.ResetCounters()
	if err := rig.rt.switchTo(cpu, FullView); err != nil {
		t.Fatal(err)
	}
	if root := cpu.EPT.RootSwaps(); root != 1 {
		t.Errorf("revert to full view cost %d root swaps, want 1", root)
	}
	if cpu.EPT.Root() != nil {
		t.Error("full view left a shared root installed")
	}
}

// TestSnapshotVsLegacySwitchCost pins the second acceptance criterion:
// with module pages in play, the snapshot path's charged switch cost is at
// least 5x below the legacy rewrite path's.
func TestSnapshotVsLegacySwitchCost(t *testing.T) {
	cost := func(opts Options) uint64 {
		rig := newSwitchRig(t, 1, opts, "af_packet", "snd")
		cpu := rig.k.M.CPUs[0]
		rig.trap(t, 0, "ctx", "appA")
		before := rig.k.M.Cycles()
		if err := rig.rt.switchTo(cpu, rig.idx["appB"]); err != nil {
			t.Fatal(err)
		}
		return rig.k.M.Cycles() - before
	}
	legacyOpts := DefaultOptions()
	legacyOpts.SwitchAtResume = false
	legacy, snapshot := cost(legacyOpts), cost(snapOpts())
	if snapshot == 0 || legacy < 5*snapshot {
		t.Errorf("legacy switch charges %d cycles vs snapshot %d; want ≥5x reduction", legacy, snapshot)
	}
}

// TestSnapshotSwitchEPTAgreement: after a snapshot switch every text page
// and module page translates to the view's shadow pages through the shared
// root, and CheckVCPUMappings (including its root-identity check) passes.
func TestSnapshotSwitchEPTAgreement(t *testing.T) {
	rig := newSwitchRig(t, 2, snapOpts(), "af_packet")
	rig.trap(t, 0, "ctx", "appA")
	rig.trap(t, 1, "ctx", "appB")

	for cpuID, app := range map[int]string{0: "appA", 1: "appB"} {
		v := rig.rt.ViewByIndex(rig.idx[app])
		samples := pageGPAs(v)
		if len(v.mods) == 0 {
			t.Fatalf("%s shadows no module pages; rig should have loaded af_packet", app)
		}
		if err := rig.rt.CheckVCPUMappings(cpuID, samples); err != nil {
			t.Errorf("cpu%d on %s: %v", cpuID, app, err)
		}
	}
}

// TestRecoveryCOWRemapsEPT: a recovery on one vCPU privatizes a
// cache-shared page, and every vCPU running the view translates to the
// private page at once: through the view's root under snapshot switching,
// through the root's PT objects for PD-granular text, and by rewritten
// live PTEs otherwise. Each switch mode runs with a text and a module
// page, the view active on two vCPUs.
func TestRecoveryCOWRemapsEPT(t *testing.T) {
	legacy := func(pdGranular bool) Options {
		o := DefaultOptions()
		o.SwitchAtResume = false
		o.PDGranularSwitch = pdGranular
		return o
	}
	modes := []struct {
		name string
		opts Options
	}{
		{"snapshot", snapOpts()},
		{"pd-granular", legacy(true)},
		{"pte-granular", legacy(false)},
	}
	for _, mode := range modes {
		for _, kind := range []string{"text", "module"} {
			t.Run(mode.name+"/"+kind, func(t *testing.T) {
				rig := newSwitchRig(t, 2, mode.opts, "af_packet")
				rig.trap(t, 0, "ctx", "appA")
				rig.trap(t, 1, "ctx", "appA")
				v := rig.rt.ViewByIndex(rig.idx["appA"])

				fn := textFuncs(t, rig.k)[3]
				if kind == "module" {
					fn = moduleFunc(t, rig.k, "af_packet")
				}
				page := mem.PageAlignDown(gpaFor(fn.Addr))
				if !isShared(v, page) {
					t.Fatalf("precondition: page %#x is not cache-shared", page)
				}
				// Trap the excluded function on cpu0: recovery COWs the page.
				cpu0 := rig.k.M.CPUs[0]
				cpu0.EIP, cpu0.EBP = fn.Addr, 0
				if handled, err := rig.rt.OnInvalidOpcode(rig.k.M, cpu0); err != nil || !handled {
					t.Fatalf("OnInvalidOpcode: handled=%v err=%v", handled, err)
				}
				if isShared(v, page) {
					t.Fatalf("page %#x still cache-shared after recovery", page)
				}

				want := shadowHPA(t, v, page)
				for cpuID := 0; cpuID < 2; cpuID++ {
					cpu := rig.k.M.CPUs[cpuID]
					if got, _ := cpu.EPT.TranslatePage(page); got != want {
						t.Errorf("cpu%d translates %#x → %#x after COW, want private %#x", cpuID, page, got, want)
					}
					var code [2]byte
					if err := cpu.Mem().Read(fn.Addr, code[:]); err != nil {
						t.Fatal(err)
					}
					if code == [2]byte{ud2Page[0], ud2Page[1]} {
						t.Errorf("cpu%d still reads UD2 at %s after recovery", cpuID, fn.Name)
					}
				}
			})
		}
	}
}

// TestUnloadViewWhileSnapshotActive is the snapshot-mode unload
// regression: unloading a view whose shared root is installed on a vCPU
// must detach the root (back to the identity local root), retarget
// deferred switches, and invalidate the snapshot so stale references fail
// loudly.
func TestUnloadViewWhileSnapshotActive(t *testing.T) {
	opts := FastOptions() // deferral on: exercises the st.last retarget too
	rig := newSwitchRig(t, 2, opts)
	rig.rt.Enable()
	idx := rig.idx["appA"]
	v := rig.rt.ViewByIndex(idx)

	rig.trap(t, 0, "ctx", "appA")
	rig.trap(t, 0, "resume", "")
	rig.trap(t, 1, "ctx", "appA")
	if rig.k.M.CPUs[0].EPT.Root() != v.root {
		t.Fatal("setup: cpu0 is not on appA's root")
	}

	if err := rig.rt.UnloadView(idx); err != nil {
		t.Fatalf("UnloadView of snapshot-active view: %v", err)
	}
	if rig.k.M.CPUs[0].EPT.Root() != nil {
		t.Error("cpu0 still references a shared root after unload")
	}
	if _, redirected := rig.k.M.CPUs[0].EPT.TranslatePage(mem.KernelTextGPA); redirected {
		t.Error("cpu0 text page still redirected after unload")
	}
	if v.root != nil {
		t.Error("unloaded view still holds its root")
	}
	if got := rig.rt.cpus[1].last; got != FullView {
		t.Errorf("cpu1 deferred view = %d after unload, want full view", got)
	}
	if err := rig.rt.CheckSwitchState(); err != nil {
		t.Errorf("inconsistent switch state after unload: %v", err)
	}
	rig.trap(t, 1, "resume", "")
	if got := rig.rt.ActiveView(1); got != FullView {
		t.Errorf("cpu1 active = %d after deferred resume, want full view", got)
	}
}

// TestConcurrentSwitchDuringCOWRecovery hammers a view's shared root from
// four vCPUs at once — one in a recovery storm (COW privatizations
// patching the root) while three switch views under it. Run under
// `go test -race`; afterwards the switch state and every vCPU's mappings
// must agree.
func TestConcurrentSwitchDuringCOWRecovery(t *testing.T) {
	const ncpu = 4
	rig := newSwitchRig(t, ncpu, snapOpts(), "af_packet")
	funcs := textFuncs(t, rig.k)

	// cpu0 starts on appA (the view the storm mutates).
	rig.trap(t, 0, "ctx", "appA")

	errCh := make(chan error, ncpu)
	var wg sync.WaitGroup

	// Recovery storm on cpu0.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cpu := rig.k.M.CPUs[0]
		for j := 0; j < 64; j++ {
			fn := funcs[j%len(funcs)]
			cpu.EIP, cpu.EBP = fn.Addr, 0
			if _, err := rig.rt.OnInvalidOpcode(rig.k.M, cpu); err != nil {
				errCh <- fmt.Errorf("cpu0 recovery %d: %w", j, err)
				return
			}
		}
	}()

	// cpu1..3 cycle appA → appB → full via fabricated context switches.
	comms := []string{"appA", "appB", "unprofiled"}
	for c := 1; c < ncpu; c++ {
		wg.Add(1)
		go func(cpuID int) {
			defer wg.Done()
			cpu := rig.k.M.CPUs[cpuID]
			for j := 0; j < 64; j++ {
				comm := comms[(j+cpuID)%len(comms)]
				if err := rig.k.PickTask(cpuID, 200+cpuID, comm); err != nil {
					errCh <- err
					return
				}
				cpu.EIP = rig.rt.ctxSwitchAddr
				if err := rig.rt.OnAddrTrap(rig.k.M, cpu); err != nil {
					errCh <- fmt.Errorf("cpu%d switch %d: %w", cpuID, j, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	if err := rig.rt.CheckSwitchState(); err != nil {
		t.Fatal(err)
	}
	samples := pageGPAs(rig.rt.ViewByIndex(rig.idx["appA"]))
	for c := 0; c < ncpu; c++ {
		if err := rig.rt.CheckVCPUMappings(c, samples); err != nil {
			t.Errorf("cpu%d after concurrent storm: %v", c, err)
		}
	}
	if rig.rt.Recoveries == 0 {
		t.Error("storm produced no recoveries")
	}
}
