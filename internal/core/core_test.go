package core

import (
	"strings"
	"testing"

	"facechange/internal/isa"
	"facechange/internal/kernel"
	"facechange/internal/kview"
	"facechange/internal/mem"
	"facechange/internal/profiler"
)

// profileApp runs the paper's profiling phase: a QEMU-environment machine
// (TSC clock), the workload executed to completion in a tracked task, and
// the exported kernel view configuration.
func profileApp(t *testing.T, name string, calls []kernel.Syscall, modules ...string) *kview.View {
	t.Helper()
	k, err := kernel.New(kernel.Config{Clock: kernel.ClockTSC})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range modules {
		if _, err := k.LoadModule(m); err != nil {
			t.Fatal(err)
		}
	}
	p := profiler.New(k)
	cs := append(append([]kernel.Syscall{}, calls...), kernel.Syscall{Nr: kernel.SysExit})
	task := k.StartTask(kernel.TaskSpec{Name: name, Script: &kernel.SliceScript{Calls: cs}})
	p.Track(task)
	if err := k.M.Run(800_000_000, k.AllScriptsDone); err != nil {
		t.Fatalf("profiling run: %v", err)
	}
	v, ok := p.ViewFor(task.PID)
	if !ok || v.Size() == 0 {
		t.Fatalf("profiling produced no view")
	}
	return v
}

// runtimeMachine builds the paper's runtime phase: a KVM-environment
// machine with FACE-CHANGE attached.
func runtimeMachine(t *testing.T, modules []string, opts Options) (*kernel.Kernel, *Runtime) {
	t.Helper()
	k, err := kernel.New(kernel.Config{Clock: kernel.ClockKVM})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range modules {
		if _, err := k.LoadModule(m); err != nil {
			t.Fatal(err)
		}
	}
	rt, err := New(Setup{
		Machine:  k.M,
		Symbols:  k.Syms,
		TextSize: k.Img.TextSize(),
		Opts:     opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	return k, rt
}

func topScript() []kernel.Syscall {
	return []kernel.Syscall{
		{Nr: kernel.SysOpen, File: kernel.FileProcfs},
		{Nr: kernel.SysRead, File: kernel.FileProcfs, UserWork: 30000},
		{Nr: kernel.SysSysinfo},
		{Nr: kernel.SysWrite, File: kernel.FileTTY, UserWork: 30000},
		{Nr: kernel.SysNanosleep, Blocks: 1},
		{Nr: kernel.SysClose},
	}
}

func repeat(calls []kernel.Syscall, n int) []kernel.Syscall {
	out := make([]kernel.Syscall, 0, len(calls)*n)
	for i := 0; i < n; i++ {
		out = append(out, calls...)
	}
	return out
}

func TestRobustnessSameWorkloadNoProcessRecoveries(t *testing.T) {
	// The paper's robustness goal: under the profiled workload, the only
	// recoveries are environment-induced (kvmclock, profiled under QEMU
	// but run under KVM) or interrupt-context, never the application's own
	// code paths.
	view := profileApp(t, "top", repeat(topScript(), 8))
	k, rt := runtimeMachine(t, nil, DefaultOptions())
	idx, err := rt.LoadView(view)
	if err != nil {
		t.Fatalf("LoadView: %v", err)
	}
	rt.Enable()
	task := k.StartTask(kernel.TaskSpec{
		Name:   "top",
		Script: &kernel.SliceScript{Calls: append(repeat(topScript(), 8), kernel.Syscall{Nr: kernel.SysExit})},
	})
	if err := k.M.Run(2_000_000_000, k.AllScriptsDone); err != nil {
		t.Fatalf("runtime run: %v", err)
	}
	if task.State != kernel.TaskDead {
		t.Fatalf("task did not complete under its view: %v", task.State)
	}
	if rt.ViewSwitches == 0 {
		t.Error("no view switches despite enforcement")
	}
	kvmRecovered := false
	for _, ev := range rt.Log() {
		if strings.HasPrefix(ev.Fn, "kvm_clock") || strings.HasPrefix(ev.Fn, "pvclock") {
			kvmRecovered = true
			continue
		}
		if ev.Interrupt {
			continue
		}
		t.Errorf("unexpected process-context recovery: %s", ev.Fn)
	}
	if !kvmRecovered {
		t.Error("expected the benign kvmclock recovery chain (QEMU-profiled, KVM-run)")
	}
	_ = idx
	if n, _ := k.M.Misparses(); n != 0 {
		t.Errorf("%d silent kernel misparses — instant recovery should prevent all", n)
	}
}

func TestOutOfViewExecutionDetected(t *testing.T) {
	// Strictness: a payload reaching kernel code outside the victim's view
	// triggers recoveries that reveal the attack chain (the Injectso/
	// Figure 4 scenario: a UDP server inside top).
	view := profileApp(t, "top", repeat(topScript(), 8))
	k, rt := runtimeMachine(t, nil, DefaultOptions())
	if _, err := rt.LoadView(view); err != nil {
		t.Fatal(err)
	}
	rt.Enable()
	payload := []kernel.Syscall{
		{Nr: kernel.SysSocket, Sock: kernel.SockUDP},
		{Nr: kernel.SysBind, Sock: kernel.SockUDP},
		{Nr: kernel.SysRecvfrom, Sock: kernel.SockUDP, Blocks: 1},
	}
	script := append(repeat(topScript(), 2), payload...)
	script = append(script, kernel.Syscall{Nr: kernel.SysExit})
	task := k.StartTask(kernel.TaskSpec{Name: "top", Script: &kernel.SliceScript{Calls: script}})
	if err := k.M.Run(2_000_000_000, k.AllScriptsDone); err != nil {
		t.Fatalf("run: %v", err)
	}
	if task.State != kernel.TaskDead {
		t.Fatalf("task stuck: %v", task.State)
	}
	recovered := map[string]bool{}
	for _, ev := range rt.Log() {
		recovered[strings.SplitN(ev.Fn, "+", 2)[0]] = true
	}
	for _, want := range []string{"inet_create", "inet_bind", "udp_v4_get_port", "udp_recvmsg"} {
		if !recovered[want] {
			t.Errorf("attack chain function %s not recovered/logged", want)
		}
	}
}

func TestUnionViewMissesAttack(t *testing.T) {
	// The paper's "blind spot" result: under a union (system-wide
	// minimized) view that includes network applications, the UDP payload
	// recovers nothing and goes undetected.
	top := profileApp(t, "top", repeat(topScript(), 8))
	netApp := profileApp(t, "netapp", repeat([]kernel.Syscall{
		{Nr: kernel.SysSocket, Sock: kernel.SockUDP},
		{Nr: kernel.SysBind, Sock: kernel.SockUDP},
		{Nr: kernel.SysSendto, Sock: kernel.SockUDP},
		{Nr: kernel.SysRecvfrom, Sock: kernel.SockUDP, Blocks: 1},
	}, 3))
	union := kview.UnionViews("union", top, netApp)

	k, rt := runtimeMachine(t, nil, DefaultOptions())
	if _, err := rt.LoadView(union); err != nil {
		t.Fatal(err)
	}
	if err := rt.AssignView("top", rt.ViewIndex("union")); err != nil {
		t.Fatal(err)
	}
	rt.Enable()
	script := append(repeat(topScript(), 2),
		kernel.Syscall{Nr: kernel.SysSocket, Sock: kernel.SockUDP},
		kernel.Syscall{Nr: kernel.SysBind, Sock: kernel.SockUDP},
		kernel.Syscall{Nr: kernel.SysExit})
	k.StartTask(kernel.TaskSpec{Name: "top", Script: &kernel.SliceScript{Calls: script}})
	if err := k.M.Run(2_000_000_000, k.AllScriptsDone); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, ev := range rt.Log() {
		if strings.HasPrefix(ev.Fn, "inet_") || strings.HasPrefix(ev.Fn, "udp_") {
			t.Errorf("union view should not recover %s (blind spot demo)", ev.Fn)
		}
	}
}

func TestWholeFunctionLoadMatchesSymbolBoundaries(t *testing.T) {
	k, rt := runtimeMachine(t, nil, DefaultOptions())
	// Pick assorted functions and ask funcSpan to expand a mid-function
	// byte range; it must land exactly on the symbol's boundaries (modulo
	// trailing alignment padding).
	for _, name := range []string{"sys_read", "tcp_sendmsg", "pipe_poll", "schedule", "vsnprintf"} {
		f, ok := k.Syms.ByName(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		mid := f.Addr + f.Size/2
		start, end, err := rt.funcSpan(rt.arenas[0], mid, mid+1, mem.KernelTextGVA, mem.KernelTextGVA+rt.textSize)
		if err != nil {
			t.Fatalf("funcSpan(%s): %v", name, err)
		}
		if start != f.Addr {
			t.Errorf("%s: span start %#x, symbol start %#x", name, start, f.Addr)
		}
		// End may include alignment padding but must not clip the function
		// or swallow the next one’s body.
		if end < f.End() || end > f.End()+kernel.FuncAlign {
			t.Errorf("%s: span end %#x, symbol end %#x", name, end, f.End())
		}
	}
}

func TestInstantRecoveryOfMisparsingReturnSite(t *testing.T) {
	// Constructed Figure 3 scenario: a kernel stack whose return address
	// is odd, landing on "0B 0F" in the UD2 fill. With instant recovery
	// the caller is recovered during the backtrace; without it, execution
	// would silently misparse.
	k, rt := runtimeMachine(t, nil, DefaultOptions())
	// Empty view: everything UD2.
	empty := kview.NewView("empty")
	// Give it one dummy range so LoadView accepts it (a single function).
	f, _ := k.Syms.ByName("sys_getpid")
	empty.Insert(kview.BaseKernel, f.Addr, f.Addr+4)
	idx, err := rt.LoadView(empty)
	if err != nil {
		t.Fatal(err)
	}
	cpu := k.M.CPUs[0]
	rt.cpus[0].active = idx
	rt.switchTo(cpu, FullView) // no-op path guard
	rt.cpus[0].active = FullView
	rt.switchTo(cpu, idx)

	// Find a caller with an odd return site: scan call instructions in
	// do_sys_poll for one at odd next-address parity.
	caller, _ := k.Syms.ByName("do_sys_poll")
	callee, _ := k.Syms.ByName("pipe_poll")
	text := k.Img.Text
	var retAddr uint32
	for off := caller.Addr; off < caller.End(); off++ {
		if text[off-mem.KernelTextGVA] == isa.ByteCall && (off+5)%2 == 1 {
			retAddr = off + 5
			break
		}
	}
	if retAddr == 0 {
		t.Skip("no odd call site in do_sys_poll; parity depends on catalog layout")
	}
	// Fabricate the stack: EBP chain with one frame returning to retAddr.
	sp := mem.KernelStackGVA + 4*mem.KernelStackSize - 64
	acc := cpu.Mem()
	if err := acc.WriteU32(sp, 0); err != nil { // prev ebp = 0 (chain end)
		t.Fatal(err)
	}
	if err := acc.WriteU32(sp+4, retAddr); err != nil {
		t.Fatal(err)
	}
	cpu.EBP = sp
	cpu.EIP = callee.Addr // UD2 under the empty view
	cpu.Mode = 1

	handled, err := rt.OnInvalidOpcode(k.M, cpu)
	if err != nil || !handled {
		t.Fatalf("OnInvalidOpcode: handled=%v err=%v", handled, err)
	}
	// Both the faulting function and the misparsing caller must now be
	// readable as real code through the view.
	var b [2]byte
	if err := acc.Read(callee.Addr, b[:]); err != nil || b[0] != isa.BytePushEBP {
		t.Errorf("faulting function not recovered: % x (err %v)", b, err)
	}
	if err := acc.Read(retAddr, b[:]); err != nil {
		t.Fatal(err)
	}
	if b[0] == isa.ByteOrAcc && b[1] == isa.Byte0F {
		t.Error("odd return site still misparses: instant recovery failed")
	}
	foundInstant := false
	for _, ev := range rt.Log() {
		if ev.Instant {
			foundInstant = true
		}
	}
	if !foundInstant {
		t.Error("no instant recovery logged")
	}
	// Restore the full view for cleanliness.
	rt.switchTo(cpu, FullView)
}

func TestHiddenRootkitProvenanceUnknown(t *testing.T) {
	// A hidden module's code must symbolize as UNKNOWN (Figure 5).
	rk := kernel.ModuleSpec{
		Name: "kbeast",
		Funcs: []kernel.FnSpec{
			{Name: "kbeast_hook", Sub: "rk", Size: 512, Steps: []kernel.Step{kernel.C("strnlen")}},
		},
	}
	k, err := kernel.New(kernel.Config{Clock: kernel.ClockKVM, ExtraModules: []kernel.ModuleSpec{rk}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.LoadModule("kbeast"); err != nil {
		t.Fatal(err)
	}
	rt, err := New(Setup{Machine: k.M, Symbols: k.Syms, TextSize: k.Img.TextSize(), Opts: DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	cpu := k.M.CPUs[0]
	f, _ := k.Syms.ByName("kbeast_hook")
	if got := rt.Symbolize(cpu, f.Addr+8); !strings.HasPrefix(got, "kbeast_hook+") {
		t.Errorf("visible module symbolized as %q", got)
	}
	if err := k.HideModule("kbeast"); err != nil {
		t.Fatal(err)
	}
	if got := rt.Symbolize(cpu, f.Addr+8); got != "UNKNOWN" {
		t.Errorf("hidden module symbolized as %q, want UNKNOWN", got)
	}
}

func TestSameViewElisionReducesSwitches(t *testing.T) {
	view := profileApp(t, "worker", repeat([]kernel.Syscall{
		{Nr: kernel.SysGetpid, UserWork: 30000},
	}, 4))
	run := func(opts Options) uint64 {
		k, rt := runtimeMachine(t, nil, opts)
		if _, err := rt.LoadView(view); err != nil {
			t.Fatal(err)
		}
		// Two processes share the same comm, hence the same view.
		for i := 0; i < 2; i++ {
			k.StartTask(kernel.TaskSpec{Name: "worker", Script: &kernel.LoopScript{Calls: []kernel.Syscall{
				{Nr: kernel.SysGetpid, UserWork: 30000},
			}}})
		}
		rt.Enable()
		if err := k.M.Run(30_000_000, nil); err != nil {
			t.Fatalf("run: %v", err)
		}
		return rt.ViewSwitches
	}
	withElision := run(DefaultOptions())
	noElision := DefaultOptions()
	noElision.SameViewElision = false
	withoutElision := run(noElision)
	if withElision >= withoutElision {
		t.Errorf("elision did not reduce switches: with=%d without=%d", withElision, withoutElision)
	}
}

func TestDisableRestoresFullView(t *testing.T) {
	view := profileApp(t, "top", topScript())
	k, rt := runtimeMachine(t, nil, DefaultOptions())
	if _, err := rt.LoadView(view); err != nil {
		t.Fatal(err)
	}
	rt.Enable()
	k.StartTask(kernel.TaskSpec{Name: "top", Script: &kernel.LoopScript{Calls: topScript()}})
	if err := k.M.Run(50_000_000, nil); err != nil {
		t.Fatalf("run with views: %v", err)
	}
	rt.Disable()
	for i := range k.M.CPUs {
		if rt.ActiveView(i) != FullView {
			t.Errorf("cpu %d still on view %d after Disable", i, rt.ActiveView(i))
		}
	}
	// The guest must keep running unrestricted, with no new recoveries.
	before := len(rt.Log())
	if err := k.M.Run(50_000_000, nil); err != nil {
		t.Fatalf("run after disable: %v", err)
	}
	if len(rt.Log()) != before {
		t.Error("recoveries after Disable")
	}
}

func TestUnloadViewHotplug(t *testing.T) {
	view := profileApp(t, "top", topScript())
	k, rt := runtimeMachine(t, nil, DefaultOptions())
	idx, err := rt.LoadView(view)
	if err != nil {
		t.Fatal(err)
	}
	rt.Enable()
	k.StartTask(kernel.TaskSpec{Name: "top", Script: &kernel.LoopScript{Calls: topScript()}})
	if err := k.M.Run(50_000_000, nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := rt.UnloadView(idx); err != nil {
		t.Fatalf("UnloadView: %v", err)
	}
	if rt.ViewIndex("top") != FullView {
		t.Error("unloaded view still assigned")
	}
	// The application keeps running under the full view.
	if err := k.M.Run(50_000_000, nil); err != nil {
		t.Fatalf("run after unload: %v", err)
	}
	if err := rt.UnloadView(idx); err == nil {
		t.Error("double unload should fail")
	}
}

func TestEventStringFormat(t *testing.T) {
	ev := Event{
		Addr: 0xc0211370,
		Fn:   "pipe_poll+0x0",
		View: "top",
		Backtrace: []Frame{
			{Addr: 0xc021a526, Sym: "do_sys_poll+0x136"},
			{Addr: 0xc01033ec, Sym: "syscall_call+0x7"},
		},
	}
	s := ev.String()
	for _, want := range []string{"Recover 0xc0211370 <pipe_poll+0x0> for kernel[top]",
		"|-- 0xc021a526 <do_sys_poll+0x136>"} {
		if !strings.Contains(s, want) {
			t.Errorf("log format missing %q in:\n%s", want, s)
		}
	}
}
