package kernel

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"facechange/internal/hv"
	"facechange/internal/isa"
	"facechange/internal/mem"
)

func buildTestKernel(t *testing.T, cfg Config) *Kernel {
	t.Helper()
	k, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return k
}

func TestBuildImageLayout(t *testing.T) {
	img, err := BuildImage(BaseCatalog(), StandardModules())
	if err != nil {
		t.Fatalf("BuildImage: %v", err)
	}
	if img.TextSize() == 0 {
		t.Fatal("empty kernel text")
	}
	var prev *Func
	for _, f := range img.Symbols.Funcs() {
		if f.Module != "" {
			continue
		}
		if f.Addr%FuncAlign != 0 {
			t.Errorf("%s at %#x not %d-aligned", f.Name, f.Addr, FuncAlign)
		}
		off := f.Addr - mem.KernelTextGVA
		if !isa.HasPrologueAt(img.Text, int(off)) {
			t.Errorf("%s at %#x lacks prologue signature", f.Name, f.Addr)
		}
		if prev != nil && f.Addr < prev.End() {
			t.Errorf("%s overlaps %s", f.Name, prev.Name)
		}
		prev = f
	}
	t.Logf("kernel text: %d bytes, %d functions", img.TextSize(), len(img.Symbols.Funcs()))
}

func TestImageHasPaperChains(t *testing.T) {
	img, err := BuildImage(BaseCatalog(), StandardModules())
	if err != nil {
		t.Fatalf("BuildImage: %v", err)
	}
	// Every symbol the paper's figures mention must exist.
	for _, name := range []string{
		"syscall_call", "sys_poll", "do_sys_poll", "pipe_poll",
		"inet_create", "sys_bind", "security_socket_bind", "apparmor_socket_bind",
		"inet_bind", "inet_addr_type", "lock_sock_nested", "udp_v4_get_port",
		"udp_lib_get_port", "udp_lib_lport_inuse", "release_sock",
		"sys_recvfrom", "sock_recvmsg", "security_socket_recvmsg",
		"apparmor_socket_recvmsg", "sock_common_recvmsg", "udp_recvmsg",
		"__skb_recv_datagram", "prepare_to_wait_exclusive",
		"kvm_clock_get_cycles", "kvm_clock_read", "pvclock_clocksource_read",
		"native_read_tsc",
		"strnlen", "vsnprintf", "snprintf", "filp_open",
		"__jbd2_log_start_commit", "__ext4_journal_stop", "ext4_dirty_inode",
		"__mark_inode_dirty", "file_update_time", "__generic_file_aio_write",
		"generic_file_aio_write", "ext4_file_write", "do_sync_write",
	} {
		if _, ok := img.Symbols.ByName(name); !ok {
			t.Errorf("missing symbol %s", name)
		}
	}
}

func TestModuleLink(t *testing.T) {
	img, err := BuildImage(BaseCatalog(), StandardModules())
	if err != nil {
		t.Fatalf("BuildImage: %v", err)
	}
	code, err := img.LinkModule("af_packet", mem.ModuleGVA+mem.PageSize)
	if err != nil {
		t.Fatalf("LinkModule: %v", err)
	}
	if len(code) == 0 {
		t.Fatal("empty module code")
	}
	f, ok := img.Symbols.ByName("packet_create")
	if !ok || f.Addr < mem.ModuleGVA {
		t.Fatalf("packet_create not relocated: %+v", f)
	}
	if got, ok := img.Symbols.ByAddr(f.Addr + 5); !ok || got.Name != "packet_create" {
		t.Errorf("ByAddr(packet_create+5) = %+v, %v", got, ok)
	}
	if _, err := img.LinkModule("af_packet", mem.ModuleGVA); err == nil {
		t.Error("double link should fail")
	}
}

func TestSymbolizeUnknown(t *testing.T) {
	img, err := BuildImage(BaseCatalog(), nil)
	if err != nil {
		t.Fatalf("BuildImage: %v", err)
	}
	if got, ok := img.Symbols.ByAddr(mem.ModuleGVA + 0x1234); ok {
		t.Errorf("ByAddr(unmapped module addr) = %+v, want no function", got)
	}
}

// runKernel drives the machine until the stop condition or budget.
func runKernel(t *testing.T, k *Kernel, budget uint64, stop func() bool) {
	t.Helper()
	if err := k.M.Run(budget, stop); err != nil {
		t.Fatalf("machine run: %v", err)
	}
}

func TestSingleTaskSyscalls(t *testing.T) {
	k := buildTestKernel(t, Config{Clock: ClockTSC})
	task := k.StartTask(TaskSpec{
		Name: "unit",
		Script: &SliceScript{Calls: []Syscall{
			{Nr: SysGetpid},
			{Nr: SysOpen, File: FileExt4},
			{Nr: SysRead, File: FileExt4},
			{Nr: SysWrite, File: FileExt4, Journal: true},
			{Nr: SysClose},
			{Nr: SysExit},
		}},
	})
	runKernel(t, k, 80_000_000, k.AllScriptsDone)
	if task.State != TaskDead {
		t.Fatalf("task state = %v, want dead (completed %d syscalls)", task.State, task.SyscallsDone)
	}
	if task.SyscallsDone < 5 {
		t.Errorf("completed %d syscalls, want >= 5", task.SyscallsDone)
	}
}

func TestBlockingSyscallSleepsAndWakes(t *testing.T) {
	k := buildTestKernel(t, Config{Clock: ClockTSC})
	task := k.StartTask(TaskSpec{
		Name: "reader",
		Script: &SliceScript{Calls: []Syscall{
			{Nr: SysRead, File: FileExt4, Blocks: 1}, // page-cache miss → disk wait
			{Nr: SysExit},
		}},
	})
	runKernel(t, k, 80_000_000, k.AllScriptsDone)
	if task.State != TaskDead {
		t.Fatalf("blocked task never completed: state=%v wait=%v", task.State, task.Wait)
	}
	if k.ContextSwitches == 0 {
		t.Error("blocking must cause context switches")
	}
}

func TestTwoTasksShareCPU(t *testing.T) {
	k := buildTestKernel(t, Config{Clock: ClockTSC})
	mk := func(name string) *Task {
		return k.StartTask(TaskSpec{
			Name: name,
			Script: &SliceScript{Calls: []Syscall{
				{Nr: SysGetpid, UserWork: 200000},
				{Nr: SysGetpid, UserWork: 200000},
				{Nr: SysGetpid, UserWork: 200000},
				{Nr: SysExit},
			}},
		})
	}
	a, b := mk("a"), mk("b")
	runKernel(t, k, 200_000_000, k.AllScriptsDone)
	if a.State != TaskDead || b.State != TaskDead {
		t.Fatalf("tasks did not finish: a=%v b=%v", a.State, b.State)
	}
	if k.ContextSwitches < 2 {
		t.Errorf("expected preemptive sharing, got %d switches", k.ContextSwitches)
	}
}

func TestForkSpawnsChild(t *testing.T) {
	k := buildTestKernel(t, Config{Clock: ClockTSC})
	child := TaskSpec{Name: "child", Script: &SliceScript{Calls: []Syscall{
		{Nr: SysGetpid},
		{Nr: SysExit},
	}}}
	parent := k.StartTask(TaskSpec{
		Name: "parent",
		Script: &SliceScript{Calls: []Syscall{
			{Nr: SysFork, Spawn: &child},
			{Nr: SysWaitpid, Blocks: 1},
			{Nr: SysExit},
		}},
	})
	runKernel(t, k, 200_000_000, k.AllScriptsDone)
	if parent.State != TaskDead {
		t.Fatalf("parent stuck: %v (wait=%v)", parent.State, parent.Wait)
	}
	ct, ok := func() (*Task, bool) {
		for _, tk := range k.tasks {
			if tk.Name == "child" {
				return tk, true
			}
		}
		return nil, false
	}()
	if !ok {
		t.Fatal("child task never created")
	}
	if ct.State != TaskDead || ct.SyscallsDone < 1 {
		t.Errorf("child did not run: state=%v done=%d", ct.State, ct.SyscallsDone)
	}
}

func TestExecveReplacesImage(t *testing.T) {
	k := buildTestKernel(t, Config{Clock: ClockTSC})
	repl := TaskSpec{Name: "newimg", Script: &SliceScript{Calls: []Syscall{
		{Nr: SysGetpid},
		{Nr: SysExit},
	}}}
	task := k.StartTask(TaskSpec{
		Name: "orig",
		Script: &SliceScript{Calls: []Syscall{
			{Nr: SysExecve, Spawn: &repl},
		}},
	})
	runKernel(t, k, 100_000_000, k.AllScriptsDone)
	if task.Name != "newimg" {
		t.Errorf("comm after execve = %q", task.Name)
	}
	if task.State != TaskDead {
		t.Errorf("task did not run replacement script to exit: %v", task.State)
	}
}

func TestSignalDeliveryRunsHandlerScript(t *testing.T) {
	k := buildTestKernel(t, Config{Clock: ClockTSC})
	handlerRan := false
	task := k.StartTask(TaskSpec{
		Name: "sigapp",
		Script: &SliceScript{Calls: []Syscall{
			{Nr: SysRtSigaction},
			{Nr: SysSetitimer},
			{Nr: SysPause, Blocks: 1},
			{Nr: SysPause, Blocks: 1},
			{Nr: SysExit},
		}},
	})
	task.SignalScript = FuncScript(func() (Syscall, bool) {
		if handlerRan {
			return Syscall{}, false
		}
		handlerRan = true
		return Syscall{Nr: SysRtSigreturn}, true
	})
	runKernel(t, k, 400_000_000, k.AllScriptsDone)
	if !handlerRan {
		t.Error("signal handler script never ran")
	}
	if task.State != TaskDead {
		t.Errorf("task stuck in %v (wait %v)", task.State, task.Wait)
	}
}

func TestModuleLoadAndDispatch(t *testing.T) {
	k := buildTestKernel(t, Config{Clock: ClockTSC})
	if _, err := k.LoadModule("af_packet"); err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	task := k.StartTask(TaskSpec{
		Name: "tcpdump",
		Script: &SliceScript{Calls: []Syscall{
			{Nr: SysSocket, Sock: SockPacket},
			{Nr: SysBind, Sock: SockPacket},
			{Nr: SysRecvfrom, Sock: SockPacket, Blocks: 1},
			{Nr: SysExit},
		}},
	})
	runKernel(t, k, 200_000_000, k.AllScriptsDone)
	if task.State != TaskDead {
		t.Fatalf("packet task stuck: %v wait=%v", task.State, task.Wait)
	}
}

func TestDispatchWithoutModuleFails(t *testing.T) {
	k := buildTestKernel(t, Config{Clock: ClockTSC})
	k.StartTask(TaskSpec{
		Name: "tcpdump",
		Script: &SliceScript{Calls: []Syscall{
			{Nr: SysSocket, Sock: SockPacket},
			{Nr: SysExit},
		}},
	})
	err := k.M.Run(50_000_000, k.AllScriptsDone)
	if err == nil {
		t.Fatal("dispatch to unloaded module must fail")
	}
}

func TestVMIMirrorsCurrentTask(t *testing.T) {
	k := buildTestKernel(t, Config{Clock: ClockTSC})
	task := k.StartTask(TaskSpec{
		Name: "vmiapp",
		Script: &LoopScript{Calls: []Syscall{
			{Nr: SysGetpid, UserWork: 5000},
		}},
	})
	runKernel(t, k, 2_000_000, nil)
	// Read the current pointer and task struct like a hypervisor would.
	cur, err := k.Host.ReadU32(VMICurrentBase - mem.KernelBase)
	if err != nil {
		t.Fatal(err)
	}
	if cur < VMITaskBase {
		t.Fatalf("current pointer %#x out of range", cur)
	}
	pid, err := k.Host.ReadU32(cur - mem.KernelBase + VMITaskPIDOff)
	if err != nil {
		t.Fatal(err)
	}
	comm := make([]byte, VMICommLen)
	if err := k.Host.Read(cur-mem.KernelBase+VMITaskCommOff, comm); err != nil {
		t.Fatal(err)
	}
	name := strings.TrimRight(string(comm), "\x00")
	// The current task is either our app or the idle task, depending on
	// where the budget expired.
	if name != "vmiapp" && name != "swapper" {
		t.Errorf("VMI comm = %q", name)
	}
	if name == "vmiapp" && int(pid) != task.PID {
		t.Errorf("VMI pid = %d, want %d", pid, task.PID)
	}
}

func TestVMIModuleListHidesHiddenModule(t *testing.T) {
	k := buildTestKernel(t, Config{Clock: ClockTSC, ExtraModules: []ModuleSpec{{
		Name:  "rk",
		Funcs: []FnSpec{fn("rk_payload", "rk", 256)},
	}}})
	if _, err := k.LoadModule("af_packet"); err != nil {
		t.Fatal(err)
	}
	if _, err := k.LoadModule("rk"); err != nil {
		t.Fatal(err)
	}
	count, _ := k.Host.ReadU32(VMIModCountAddr - mem.KernelBase)
	if count != 2 {
		t.Fatalf("visible modules = %d, want 2", count)
	}
	if err := k.HideModule("rk"); err != nil {
		t.Fatal(err)
	}
	count, _ = k.Host.ReadU32(VMIModCountAddr - mem.KernelBase)
	if count != 1 {
		t.Fatalf("after hide, visible modules = %d, want 1", count)
	}
	// The kernel-side truth still knows it.
	mods := k.Modules()
	if len(mods) != 2 || mods[1].Visible {
		t.Errorf("kernel truth should keep hidden module: %+v", mods)
	}
}

func TestHookSlotRedirectsDispatch(t *testing.T) {
	k := buildTestKernel(t, Config{Clock: ClockTSC, ExtraModules: []ModuleSpec{{
		Name: "rk",
		Funcs: []FnSpec{
			fn("rk_hooked_getpid", "rk", 256, C("strnlen")),
		},
	}}})
	if _, err := k.LoadModule("rk"); err != nil {
		t.Fatal(err)
	}
	if err := k.HookSlot(SlotSyscall, uint32(SysGetpid), "rk_hooked_getpid"); err != nil {
		t.Fatal(err)
	}
	task := k.StartTask(TaskSpec{
		Name: "victim",
		Script: &SliceScript{Calls: []Syscall{
			{Nr: SysGetpid},
			{Nr: SysExit},
		}},
	})
	// Record executed blocks to prove the hook (and its strnlen callee) ran
	// in the victim's context.
	hookFn, _ := k.Syms.ByName("rk_hooked_getpid")
	sawHook := false
	k.M.AddBlockListener(func(ctx hv.ExecContext, start, end uint32) {
		if start >= hookFn.Addr && start < hookFn.End() && ctx.PID == task.PID {
			sawHook = true
		}
	})
	runKernel(t, k, 100_000_000, k.AllScriptsDone)
	if task.State != TaskDead {
		t.Fatalf("victim stuck: %v", task.State)
	}
	if !sawHook {
		t.Error("hooked syscall-table entry never dispatched to rootkit code")
	}
}

func TestMultiCPURoundRobin(t *testing.T) {
	k := buildTestKernel(t, Config{Clock: ClockTSC, NCPU: 2})
	var tasks []*Task
	for i := 0; i < 4; i++ {
		tasks = append(tasks, k.StartTask(TaskSpec{
			Name: "worker",
			Script: &SliceScript{Calls: []Syscall{
				{Nr: SysGetpid, UserWork: 50000},
				{Nr: SysExit},
			}},
		}))
	}
	runKernel(t, k, 400_000_000, k.AllScriptsDone)
	for i, task := range tasks {
		if task.State != TaskDead {
			t.Errorf("task %d stuck: %v", i, task.State)
		}
	}
}

// TestKvmclockOnlyUnderKVM verifies the Section III-B3 environment
// divergence: the kvmclock chain executes only when the clocksource is
// kvmclock, so profiling under QEMU (TSC) never records it.
func TestKvmclockOnlyUnderKVM(t *testing.T) {
	for _, tc := range []struct {
		name  string
		clock ClockSource
		want  bool
	}{
		{"qemu-tsc", ClockTSC, false},
		{"kvmclock", ClockKVM, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := buildTestKernel(t, Config{Clock: tc.clock})
			kvmFn, _ := k.Syms.ByName("kvm_clock_get_cycles")
			executed := false
			k.M.AddBlockListener(func(ctx hv.ExecContext, start, end uint32) {
				if start >= kvmFn.Addr && start < kvmFn.End() {
					executed = true
				}
			})
			k.StartTask(TaskSpec{Name: "app", Script: &LoopScript{Calls: []Syscall{
				{Nr: SysGetpid, UserWork: 10000},
			}}})
			runKernel(t, k, 3_000_000, nil)
			if executed != tc.want {
				t.Errorf("kvm_clock_get_cycles executed=%v, want %v", executed, tc.want)
			}
		})
	}
}

// TestRecycledGuestRAMMatchesFresh: a guest booted on RAM that an earlier
// guest overwrote byte by byte and released reads, all 40 MB of it,
// exactly what a guest booted on unscribbled RAM reads. The guest model
// never reads RAM it did not write, so no run of a guest notices a page
// the free list's scrub left dirty; this comparison does. Two garbage
// collections between the release and the next boot must not lose the
// released RAM.
func TestRecycledGuestRAMMatchesFresh(t *testing.T) {
	// Guests that earlier tests dropped go back on the free list when they
	// are collected; let that happen now, so that none lands on top of the
	// RAM this test releases.
	if err := awaitFinalizers(); err != nil {
		t.Fatal(err)
	}
	boot := func() *Kernel {
		k := buildTestKernel(t, Config{NCPU: 2})
		for _, m := range []string{"af_packet", "snd"} {
			if _, err := k.LoadModule(m); err != nil {
				t.Fatal(err)
			}
		}
		return k
	}
	ram := func(k *Kernel) []byte {
		b, err := k.Host.ReadSlice(0, int(mem.GuestRAMSize))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	junk := make([]byte, mem.PageSize)
	for i := range junk {
		junk[i] = byte(i*7 + 1)
	}
	ref := boot()
	want := append([]byte(nil), ram(ref)...)
	ref.Host.Release()
	for cycle := 0; cycle < 3; cycle++ {
		first := boot()
		all, err := first.Host.Slice(0, int(mem.GuestRAMSize))
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(all); off += mem.PageSize {
			copy(all[off:], junk)
		}
		firstRAM := &all[0]
		first.Host.Release()
		runtime.GC()
		runtime.GC()
		second := boot()
		got := ram(second)
		if &got[0] != firstRAM {
			t.Fatalf("cycle %d: the next guest booted on other RAM, not the RAM released before two GCs", cycle)
		}
		if !bytes.Equal(got, want) {
			i := 0
			for got[i] == want[i] {
				i++
			}
			t.Fatalf("cycle %d: recycled guest RAM differs from a fresh guest's at %#x: %#x, want %#x", cycle, i, got[i], want[i])
		}
		second.Host.Release()
	}
}

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
