package facechange_test

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"facechange"
	"facechange/internal/apps"
	"facechange/internal/kernel"
	"facechange/internal/kview"
	"facechange/internal/malware"
	"facechange/internal/mem"
)

func TestQuickstartFlow(t *testing.T) {
	app, ok := apps.ByName("top")
	if !ok {
		t.Fatal("no top app")
	}
	view, err := facechange.Profile(app, facechange.ProfileConfig{Syscalls: 300})
	if err != nil {
		t.Fatalf("Profile: %v", err)
	}
	if view.Size() == 0 {
		t.Fatal("empty view")
	}
	vm, err := facechange.NewVM(facechange.VMConfig{})
	if err != nil {
		t.Fatalf("NewVM: %v", err)
	}
	if _, err := vm.LoadView(view); err != nil {
		t.Fatalf("LoadView: %v", err)
	}
	vm.Runtime.Enable()
	vm.StartApp(app, 1, 300)
	if err := vm.RunUntilDead(6_000_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if vm.Runtime.ViewSwitches == 0 {
		t.Error("no view switches")
	}
}

func TestProfileRejectsUnfinishableWorkload(t *testing.T) {
	app, _ := apps.ByName("top")
	_, err := facechange.Profile(app, facechange.ProfileConfig{Syscalls: 100000, Budget: 1_000_000})
	if err == nil || !strings.Contains(err.Error(), "did not finish") {
		t.Errorf("err = %v, want budget exhaustion", err)
	}
}

func TestMultiVCPUEnforcement(t *testing.T) {
	// Section V-C future work: per-vCPU EPTs and per-vCPU view switching.
	top, _ := apps.ByName("top")
	gzip, _ := apps.ByName("gzip")
	vTop, err := facechange.Profile(top, facechange.ProfileConfig{Syscalls: 250})
	if err != nil {
		t.Fatal(err)
	}
	vGzip, err := facechange.Profile(gzip, facechange.ProfileConfig{Syscalls: 250})
	if err != nil {
		t.Fatal(err)
	}
	vm, err := facechange.NewVM(facechange.VMConfig{NCPU: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(vm.Kernel.M.CPUs) != 2 {
		t.Fatalf("%d vCPUs", len(vm.Kernel.M.CPUs))
	}
	if vm.Kernel.M.CPUs[0].EPT == vm.Kernel.M.CPUs[1].EPT {
		t.Fatal("vCPUs must have separate EPTs")
	}
	if _, err := vm.LoadView(vTop); err != nil {
		t.Fatal(err)
	}
	if _, err := vm.LoadView(vGzip); err != nil {
		t.Fatal(err)
	}
	vm.Runtime.Enable()
	a := vm.StartApp(top, 1, 250)
	b := vm.StartApp(gzip, 1, 250)
	if err := vm.RunUntilDead(8_000_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if a.State != kernel.TaskDead || b.State != kernel.TaskDead {
		t.Fatalf("tasks stuck: %v %v", a.State, b.State)
	}
	// Process-context recoveries must still be absent (robustness holds
	// per vCPU).
	for _, ev := range vm.Runtime.Log() {
		if !ev.Interrupt && !strings.HasPrefix(ev.Fn, "kvm_clock") &&
			!strings.HasPrefix(ev.Fn, "pvclock") && !strings.HasPrefix(ev.Fn, "native_read_tsc") {
			t.Errorf("unexpected recovery on multi-vCPU run: %s (cpu %d)", ev.Fn, ev.CPU)
		}
	}
}

// TestDKOMBlindSpot reproduces the Section V-B limitation: a rootkit that
// only manipulates kernel *data* (hiding a module by unlinking it from the
// module list) executes no foreign kernel code, so FACE-CHANGE observes
// nothing.
func TestDKOMBlindSpot(t *testing.T) {
	app, _ := apps.ByName("top")
	view, err := facechange.Profile(app, facechange.ProfileConfig{Syscalls: 250})
	if err != nil {
		t.Fatal(err)
	}
	vm, err := facechange.NewVM(facechange.VMConfig{Modules: []string{"af_packet"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.LoadView(view); err != nil {
		t.Fatal(err)
	}
	vm.Runtime.Enable()
	// The DKOM attack: unlink af_packet from the module list (data-only
	// manipulation; no new code ever executes).
	if err := vm.Kernel.HideModule("af_packet"); err != nil {
		t.Fatal(err)
	}
	vm.StartApp(app, 1, 250)
	if err := vm.RunUntilDead(6_000_000_000); err != nil {
		t.Fatal(err)
	}
	for _, ev := range vm.Runtime.Log() {
		if !ev.Interrupt && !strings.HasPrefix(ev.Fn, "kvm_clock") &&
			!strings.HasPrefix(ev.Fn, "pvclock") && !strings.HasPrefix(ev.Fn, "native_read_tsc") {
			t.Errorf("DKOM manipulation should be invisible, yet recovered %s", ev.Fn)
		}
	}
}

// TestInViewParasiteBlindSpot reproduces the Section V-A limitation: a
// payload that only uses kernel functionality within the victim's own view
// triggers no recovery and evades detection.
func TestInViewParasiteBlindSpot(t *testing.T) {
	app, _ := apps.ByName("apache")
	view, err := facechange.Profile(app, facechange.ProfileConfig{Syscalls: 500})
	if err != nil {
		t.Fatal(err)
	}
	// Baseline: clean run, collect benign recovery names.
	clean := func(script kernel.Script) map[string]bool {
		vm, err := facechange.NewVM(facechange.VMConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := vm.LoadView(view); err != nil {
			t.Fatal(err)
		}
		vm.Runtime.Enable()
		task := vm.Kernel.StartTask(kernel.TaskSpec{Name: "apache", Script: script})
		task.SignalScript = apps.DefaultSignalScript()
		if err := vm.Run(6_000_000_000, func() bool { return task.State == kernel.TaskDead }); err != nil {
			t.Fatal(err)
		}
		names := map[string]bool{}
		for _, ev := range vm.Runtime.Log() {
			names[strings.SplitN(ev.Fn, "+", 2)[0]] = true
		}
		return names
	}
	base := clean(apps.Limit(app.Script(1), 200))

	// A C&C parasite inside the web server using only the web server's
	// own kernel services: it waits for its operator on the server's
	// listening socket and serves stolen files over the accepted
	// connection — all code paths apache itself exercises (Section V-A's
	// command-and-control example).
	parasite := []kernel.Syscall{
		{Nr: kernel.SysSocket, Sock: kernel.SockTCP},
		{Nr: kernel.SysBind, Sock: kernel.SockTCP},
		{Nr: kernel.SysListen, Sock: kernel.SockTCP},
		{Nr: kernel.SysAccept, Sock: kernel.SockTCP, Blocks: 1},
		{Nr: kernel.SysRead, File: kernel.FileSocketFD, Sock: kernel.SockTCP, Blocks: 1},
		{Nr: kernel.SysOpen, File: kernel.FileExt4},
		{Nr: kernel.SysRead, File: kernel.FileExt4},
		{Nr: kernel.SysWrite, File: kernel.FileSocketFD, Sock: kernel.SockTCP},
	}
	infected := make([]kernel.Syscall, 0, 200+len(parasite))
	s := app.Script(1)
	for i := 0; i < 100; i++ {
		c, _ := s.Next()
		infected = append(infected, c)
	}
	infected = append(infected, parasite...)
	for i := 0; i < 100; i++ {
		c, _ := s.Next()
		infected = append(infected, c)
	}
	infected = append(infected, kernel.Syscall{Nr: kernel.SysExit})
	got := clean(&kernel.SliceScript{Calls: infected})
	for name := range got {
		if !base[name] {
			t.Errorf("in-view parasite should be undetectable, yet recovered %s", name)
		}
	}
}

// TestAttackProvenanceLogFormat end-to-end: the Injectso attack's recovery
// log must read like Figure 4 (bind chain with symbolized backtraces).
func TestAttackProvenanceLogFormat(t *testing.T) {
	app, _ := apps.ByName("top")
	view, err := facechange.Profile(app, facechange.ProfileConfig{Syscalls: 300})
	if err != nil {
		t.Fatal(err)
	}
	vm, err := facechange.NewVM(facechange.VMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.LoadView(view); err != nil {
		t.Fatal(err)
	}
	vm.Runtime.Enable()
	attack, _ := malware.ByName("Injectso")
	task, err := attack.Launch(vm.Kernel, 1, 200)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(6_000_000_000, func() bool { return task.State == kernel.TaskDead }); err != nil {
		t.Fatal(err)
	}
	var all strings.Builder
	for _, ev := range vm.Runtime.Log() {
		all.WriteString(ev.String())
	}
	log := all.String()
	for _, want := range []string{
		"<inet_bind+0x0> for kernel[top]",
		"<udp_v4_get_port+0x0> for kernel[top]",
		"<syscall_call+0x",
	} {
		if !strings.Contains(log, want) {
			t.Errorf("provenance log missing %q", want)
		}
	}
}

// TestProfileMergedReducesRecoveries: merging several profiling sessions
// (Section III-A2's coverage concern) reduces benign recoveries on an
// unseen workload.
func TestProfileMergedReducesRecoveries(t *testing.T) {
	app, _ := apps.ByName("firefox")
	single, err := facechange.Profile(app, facechange.ProfileConfig{Syscalls: 250, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := facechange.NewPool(facechange.PoolConfig{}).ProfileMerged(app, facechange.ProfileConfig{Syscalls: 250}, 1, 2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Size() < single.Size() {
		t.Fatal("merged view smaller than a single session")
	}
	recoveries := func(view *kview.View) uint64 {
		vm, err := facechange.NewVM(facechange.VMConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := vm.LoadView(view); err != nil {
			t.Fatal(err)
		}
		vm.Runtime.Enable()
		task := vm.StartApp(app, 99, 250) // unseen seed
		if err := vm.Run(10_000_000_000, func() bool { return task.State == kernel.TaskDead }); err != nil {
			t.Fatal(err)
		}
		return vm.Runtime.Recoveries
	}
	rSingle := recoveries(single)
	rMerged := recoveries(merged)
	t.Logf("recoveries on unseen workload: single-session=%d merged-4-sessions=%d", rSingle, rMerged)
	if rMerged > rSingle {
		t.Errorf("merged profile should not recover more: single=%d merged=%d", rSingle, rMerged)
	}
}

// TestViewAmelioration: the recovery log feeds back into the view
// configuration; the ameliorated view eliminates the recoveries it
// absorbed (Section III-B3's administrator loop).
func TestViewAmelioration(t *testing.T) {
	app, _ := apps.ByName("top")
	view, err := facechange.Profile(app, facechange.ProfileConfig{Syscalls: 300})
	if err != nil {
		t.Fatal(err)
	}
	run := func(v *kview.View) (uint64, *kview.View) {
		vm, err := facechange.NewVM(facechange.VMConfig{})
		if err != nil {
			t.Fatal(err)
		}
		idx, err := vm.LoadView(v)
		if err != nil {
			t.Fatal(err)
		}
		vm.Runtime.Enable()
		task := vm.StartApp(app, 1, 300)
		if err := vm.Run(10_000_000_000, func() bool { return task.State == kernel.TaskDead }); err != nil {
			t.Fatal(err)
		}
		amel, err := vm.Runtime.AmelioratedView(idx)
		if err != nil {
			t.Fatal(err)
		}
		return vm.Runtime.Recoveries, amel
	}
	r1, ameliorated := run(view)
	if r1 == 0 {
		t.Skip("no recoveries to ameliorate (kvmclock chain already covered?)")
	}
	if ameliorated.Size() <= view.Size() {
		t.Fatal("ameliorated view did not grow")
	}
	r2, _ := run(ameliorated)
	t.Logf("recoveries: original view=%d ameliorated view=%d", r1, r2)
	if r2 != 0 {
		t.Errorf("ameliorated view still recovered %d times on the same workload", r2)
	}
}

// TestProfilingDeterministic: identical seeds produce byte-identical view
// configurations across independent sessions.
func TestProfilingDeterministic(t *testing.T) {
	app, _ := apps.ByName("mysqld")
	v1, err := facechange.Profile(app, facechange.ProfileConfig{Syscalls: 250, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := facechange.Profile(app, facechange.ProfileConfig{Syscalls: 250, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := v1.Marshal()
	b2, _ := v2.Marshal()
	if string(b1) != string(b2) {
		t.Fatal("profiling is not deterministic for identical seeds")
	}
	// Note: different seeds may legitimately produce identical views —
	// each script's deterministic coverage pass already exercises every
	// operation, so the randomized tail often adds no new ranges. Distinct
	// applications, however, must differ.
	other, _ := apps.ByName("top")
	v3, err := facechange.Profile(other, facechange.ProfileConfig{Syscalls: 250, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b3, _ := v3.Marshal()
	if string(b1) == string(b3) {
		t.Fatal("distinct applications produced identical profiles")
	}
}

// TestProfileOnRecycledRAM: a profiling session returns its guest RAM for
// the next session to reuse, so profiling B, then A, then B again runs
// the second B on RAM that A dirtied. Both B views must be byte-identical.
func TestProfileOnRecycledRAM(t *testing.T) {
	a, _ := apps.ByName("apache")
	b, _ := apps.ByName("gzip")
	cfg := facechange.ProfileConfig{Syscalls: 150, Seed: 3}
	var wire [2][]byte
	for i, app := range []apps.App{b, a, b} {
		v, err := facechange.Profile(app, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if app.Name != b.Name {
			continue
		}
		if wire[i/2], err = v.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(wire[0], wire[1]) {
		t.Fatalf("%s profiled after %s differs from its first profile (%d vs %d bytes)", b.Name, a.Name, len(wire[1]), len(wire[0]))
	}
}

// TestDroppedVMRecyclesRAM: a runtime VM that ran real guest code — two
// profiled views and a module loaded, recoveries that copied shared view
// pages on write — and is then dropped without Release gives its guest RAM
// back once the garbage collector finds nothing references it. The next
// NewVM boots on that RAM, allocates no fresh guest RAM, and reads all
// 40 MB exactly as a VM booted on fresh RAM does. A Slice of a dropped
// VM's RAM holds the RAM back: while the slice lives the next VM boots
// elsewhere, and once the slice is dropped too the RAM comes back.
func TestDroppedVMRecyclesRAM(t *testing.T) {
	top, _ := apps.ByName("top")
	gzip, _ := apps.ByName("gzip")
	var views []*kview.View
	for _, app := range []apps.App{top, gzip} {
		v, err := facechange.Profile(app, facechange.ProfileConfig{Syscalls: 150})
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, v)
	}
	cfg := facechange.VMConfig{NCPU: 2, Modules: []string{"af_packet"}}
	// boot returns a new VM and whether it allocated fresh guest RAM
	// instead of taking RAM from the free list.
	boot := func() (*facechange.VM, bool) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		vm, err := facechange.NewVM(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return vm, after.TotalAlloc-before.TotalAlloc >= uint64(mem.GuestRAMSize)
	}
	ram := func(vm *facechange.VM) []byte {
		t.Helper()
		b, err := vm.Kernel.Host.ReadSlice(0, int(mem.GuestRAMSize))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// addr names a VM's RAM without keeping it alive.
	addr := func(vm *facechange.VM) uintptr { return reflect.ValueOf(ram(vm)).Pointer() }
	collect := func() {
		t.Helper()
		if err := awaitFinalizers(); err != nil {
			t.Fatal(err)
		}
	}

	// Guests that earlier tests dropped go back on the free list when they
	// are collected; let that happen now, so that none lands on top of the
	// RAM this test drops.
	collect()
	if freshVMRAM == nil {
		// Empty the free list, so the reference guest boots on fresh RAM.
		var vms []*facechange.VM
		for fresh := false; !fresh; {
			var vm *facechange.VM
			vm, fresh = boot()
			vms = append(vms, vm)
		}
		freshVMRAM = bytes.Clone(ram(vms[len(vms)-1]))
		for _, vm := range vms {
			vm.Kernel.Host.Release()
		}
	}
	want := freshVMRAM

	dropped := func() uintptr {
		vm, _ := boot()
		for _, v := range views {
			if _, err := vm.LoadView(v); err != nil {
				t.Fatal(err)
			}
		}
		vm.Runtime.Enable()
		vm.StartApp(top, 1, 150)
		vm.StartApp(gzip, 1, 150)
		if err := vm.RunUntilDead(8_000_000_000); err != nil {
			t.Fatal(err)
		}
		if vm.Runtime.CacheStats().Privatized == 0 {
			t.Fatal("no recovery copied a shared view page")
		}
		return addr(vm)
	}()
	collect()
	next, fresh := boot()
	if got := addr(next); got != dropped || fresh {
		t.Fatalf("the next VM booted on RAM at %#x (fresh: %v), not on the dropped VM's at %#x", got, fresh, dropped)
	}
	if got := ram(next); !bytes.Equal(got, want) {
		i := 0
		for got[i] == want[i] {
			i++
		}
		t.Fatalf("RAM of a dropped VM differs from a fresh boot's at %#x: %#x, want %#x", i, got[i], want[i])
	}
	next.Kernel.Host.Release()

	held, dropped := func() ([]byte, uintptr) {
		vm, _ := boot()
		s, err := vm.Kernel.Host.Slice(0, mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		return s, addr(vm)
	}()
	collect()
	other, _ := boot()
	if addr(other) == dropped {
		t.Fatal("a dropped VM's RAM came back while a Slice of it was live")
	}
	runtime.KeepAlive(held)
	other.Kernel.Host.Release()
	collect()
	if last, _ := boot(); addr(last) != dropped {
		t.Fatalf("once its last Slice was dropped, the next VM booted on RAM at %#x, not on the dropped VM's at %#x", addr(last), dropped)
	}
}

// freshVMRAM is the guest RAM of TestDroppedVMRecyclesRAM's VM booted on
// fresh RAM. It is taken once per process: fresh RAM stays on the free
// list for good, so taking it on every run of the test would grow the
// list by 40 MB a run.
var freshVMRAM []byte

// awaitFinalizers runs a garbage collection and waits until every
// finalizer it queued has run, or reports an error after a minute. The
// runtime runs finalizers one at a time on a single goroutine, which
// takes its whole queue at once. A sentinel queued by a collection that
// starts after an earlier sentinel ran therefore runs after the batch
// that held the earlier one, and so after everything queued before it.
func awaitFinalizers() error {
	runtime.GC()
	for i := 0; i < 2; i++ {
		done := make(chan struct{})
		runtime.SetFinalizer(&sentinel{done}, func(s *sentinel) { close(s.done) })
		runtime.GC()
		select {
		case <-done:
		case <-time.After(time.Minute):
			return errors.New("finalizers did not run within a minute")
		}
	}
	return nil
}

// sentinel is an object whose finalizer tells awaitFinalizers it ran.
type sentinel struct{ done chan struct{} }
