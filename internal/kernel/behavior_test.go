package kernel

import (
	"testing"

	"facechange/internal/hv"
)

// ranges returns whether fn's range was executed, via a block listener.
func fnExecutionRecorder(k *Kernel, names ...string) func() map[string]bool {
	executed := map[string]bool{}
	type span struct {
		name       string
		start, end uint32
	}
	var spans []span
	for _, n := range names {
		if f, ok := k.Syms.ByName(n); ok && f.Addr != 0 {
			spans = append(spans, span{n, f.Addr, f.End()})
		}
	}
	k.M.AddBlockListener(func(ctx hv.ExecContext, start, end uint32) {
		for _, s := range spans {
			if start >= s.start && start < s.end {
				executed[s.name] = true
			}
		}
	})
	return func() map[string]bool { return executed }
}

func TestSchedulerFairness(t *testing.T) {
	k := buildTestKernel(t, Config{Clock: ClockTSC})
	mk := func(name string) *Task {
		return k.StartTask(TaskSpec{Name: name, Script: &LoopScript{Calls: []Syscall{
			{Nr: SysGetpid, UserWork: 20000},
		}}})
	}
	a, b := mk("a"), mk("b")
	runKernel(t, k, 30_000_000, nil)
	if a.SyscallsDone == 0 || b.SyscallsDone == 0 {
		t.Fatalf("starvation: a=%d b=%d", a.SyscallsDone, b.SyscallsDone)
	}
	ratio := float64(a.SyscallsDone) / float64(b.SyscallsDone)
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("unfair scheduling: a=%d b=%d", a.SyscallsDone, b.SyscallsDone)
	}
}

func TestKeyboardInterruptDrivesTTYPath(t *testing.T) {
	k := buildTestKernel(t, Config{Clock: ClockTSC, KbdPeriod: 60000})
	done := fnExecutionRecorder(k, "atkbd_interrupt", "kbd_keycode", "n_tty_receive_buf", "n_tty_read")
	task := k.StartTask(TaskSpec{Name: "sh", Script: &SliceScript{Calls: []Syscall{
		{Nr: SysRead, File: FileTTY, Blocks: 1},
		{Nr: SysRead, File: FileTTY, Blocks: 1},
		{Nr: SysExit},
	}}})
	runKernel(t, k, 100_000_000, k.AllScriptsDone)
	if task.State != TaskDead {
		t.Fatalf("tty reader stuck: %v (wait %v)", task.State, task.Wait)
	}
	ex := done()
	for _, fn := range []string{"atkbd_interrupt", "kbd_keycode", "n_tty_receive_buf", "n_tty_read"} {
		if !ex[fn] {
			t.Errorf("keyboard path did not execute %s", fn)
		}
	}
}

func TestDiskInterruptCompletesRead(t *testing.T) {
	k := buildTestKernel(t, Config{Clock: ClockTSC})
	done := fnExecutionRecorder(k, "ahci_interrupt", "blk_complete_request", "submit_bio")
	task := k.StartTask(TaskSpec{Name: "r", Script: &SliceScript{Calls: []Syscall{
		{Nr: SysRead, File: FileExt4, Blocks: 1},
		{Nr: SysExit},
	}}})
	runKernel(t, k, 100_000_000, k.AllScriptsDone)
	if task.State != TaskDead {
		t.Fatalf("reader stuck: %v", task.State)
	}
	ex := done()
	if !ex["submit_bio"] || !ex["ahci_interrupt"] || !ex["blk_complete_request"] {
		t.Errorf("block I/O path incomplete: %v", ex)
	}
}

func TestNICInterruptDeliversRxChain(t *testing.T) {
	k := buildTestKernel(t, Config{Clock: ClockTSC})
	done := fnExecutionRecorder(k, "nic_interrupt", "net_rx_action", "tcp_v4_rcv", "sock_def_readable")
	task := k.StartTask(TaskSpec{Name: "netapp", Script: &SliceScript{Calls: []Syscall{
		{Nr: SysSocket, Sock: SockTCP},
		{Nr: SysRecvfrom, Sock: SockTCP, Blocks: 1},
		{Nr: SysExit},
	}}})
	runKernel(t, k, 100_000_000, k.AllScriptsDone)
	if task.State != TaskDead {
		t.Fatalf("receiver stuck: %v", task.State)
	}
	ex := done()
	for _, fn := range []string{"nic_interrupt", "net_rx_action", "tcp_v4_rcv", "sock_def_readable"} {
		if !ex[fn] {
			t.Errorf("rx chain did not execute %s", fn)
		}
	}
}

func TestSoundModuleDispatch(t *testing.T) {
	k := buildTestKernel(t, Config{Clock: ClockTSC})
	if _, err := k.LoadModule("snd"); err != nil {
		t.Fatal(err)
	}
	done := fnExecutionRecorder(k, "snd_pcm_open", "snd_pcm_write", "snd_pcm_ioctl")
	task := k.StartTask(TaskSpec{Name: "player", Script: &SliceScript{Calls: []Syscall{
		{Nr: SysOpen, File: FileSound},
		{Nr: SysIoctl, File: FileSound},
		{Nr: SysWrite, File: FileSound, Blocks: 1},
		{Nr: SysExit},
	}}})
	runKernel(t, k, 100_000_000, k.AllScriptsDone)
	if task.State != TaskDead {
		t.Fatalf("player stuck: %v (wait %v)", task.State, task.Wait)
	}
	ex := done()
	for _, fn := range []string{"snd_pcm_open", "snd_pcm_write", "snd_pcm_ioctl"} {
		if !ex[fn] {
			t.Errorf("sound path did not execute %s", fn)
		}
	}
}

func TestPipePingPong(t *testing.T) {
	k := buildTestKernel(t, Config{Clock: ClockTSC})
	mk := func(name string) *Task {
		return k.StartTask(TaskSpec{Name: name, Script: &LoopScript{Calls: []Syscall{
			{Nr: SysWrite, File: FilePipe},
			{Nr: SysRead, File: FilePipe, Blocks: 1},
		}}})
	}
	a, b := mk("ping"), mk("pong")
	runKernel(t, k, 10_000_000, nil)
	if a.SyscallsDone < 20 || b.SyscallsDone < 20 {
		t.Errorf("ping-pong too slow: a=%d b=%d (pipe wakeups broken?)", a.SyscallsDone, b.SyscallsDone)
	}
}

func TestSleepTicksStretchesSleep(t *testing.T) {
	k := buildTestKernel(t, Config{Clock: ClockTSC})
	short := k.StartTask(TaskSpec{Name: "short", Script: &LoopScript{Calls: []Syscall{
		{Nr: SysNanosleep, Blocks: 1},
	}}})
	long := k.StartTask(TaskSpec{Name: "long", Script: &LoopScript{Calls: []Syscall{
		{Nr: SysNanosleep, Blocks: 1, SleepTicks: 50},
	}}})
	runKernel(t, k, 20_000_000, nil)
	if long.SyscallsDone >= short.SyscallsDone {
		t.Errorf("SleepTicks had no effect: short=%d long=%d", short.SyscallsDone, long.SyscallsDone)
	}
}

func TestTaskPinnedToCPU(t *testing.T) {
	k := buildTestKernel(t, Config{Clock: ClockTSC, NCPU: 2})
	var tasks []*Task
	for i := 0; i < 4; i++ {
		tasks = append(tasks, k.StartTask(TaskSpec{Name: "w", Script: &LoopScript{Calls: []Syscall{
			{Nr: SysGetpid, UserWork: 10000},
			{Nr: SysNanosleep, Blocks: 1},
		}}}))
	}
	runKernel(t, k, 20_000_000, nil)
	// Pinning: tasks must be spread over both CPUs at creation.
	byCPU := map[int]int{}
	for _, task := range tasks {
		byCPU[task.cpu]++
	}
	if byCPU[0] != 2 || byCPU[1] != 2 {
		t.Errorf("tasks not balanced across CPUs: %v", byCPU)
	}
}

func TestInterruptContextAttribution(t *testing.T) {
	k := buildTestKernel(t, Config{Clock: ClockTSC})
	timerFn, _ := k.Syms.ByName("timer_interrupt")
	schedFn, _ := k.Syms.ByName("schedule")
	var timerIRQ, timerProc, schedIRQ int
	k.M.AddBlockListener(func(ctx hv.ExecContext, start, end uint32) {
		if start >= timerFn.Addr && start < timerFn.End() {
			if ctx.IRQ {
				timerIRQ++
			} else {
				timerProc++
			}
		}
		if start >= schedFn.Addr && start < schedFn.End() && ctx.IRQ {
			schedIRQ++
		}
	})
	k.StartTask(TaskSpec{Name: "spin", Script: &LoopScript{Calls: []Syscall{
		{Nr: SysGetpid, UserWork: 15000},
	}}})
	runKernel(t, k, 10_000_000, nil)
	if timerIRQ == 0 {
		t.Error("timer handler never attributed to interrupt context")
	}
	if timerProc > 0 {
		t.Errorf("timer handler attributed to process context %d times", timerProc)
	}
	if schedIRQ > 0 {
		t.Errorf("schedule attributed to interrupt context %d times (preemption must be process context)", schedIRQ)
	}
}

func TestIretWithoutFrameFails(t *testing.T) {
	k := buildTestKernel(t, Config{Clock: ClockTSC})
	cpu := k.M.CPUs[0]
	// The idle task has no pending frames.
	if err := k.Iret(cpu); err == nil {
		t.Error("iret with empty frame stack must fail")
	}
}

func TestUnknownSoftwareInterruptFails(t *testing.T) {
	k := buildTestKernel(t, Config{Clock: ClockTSC})
	cpu := k.M.CPUs[0]
	if err := k.Int(cpu, 0x21); err == nil {
		t.Error("non-syscall software interrupt must fail")
	}
}

func TestSyscallFromIdleFails(t *testing.T) {
	k := buildTestKernel(t, Config{Clock: ClockTSC})
	cpu := k.M.CPUs[0]
	if err := k.Int(cpu, 0x80); err == nil {
		t.Error("syscall from the idle task must fail")
	}
}

func TestScriptHelpers(t *testing.T) {
	s := &SliceScript{Calls: []Syscall{{Nr: SysGetpid}, {Nr: SysExit}}}
	if c, ok := s.Next(); !ok || c.Nr != SysGetpid {
		t.Error("SliceScript first call wrong")
	}
	s.Next()
	if _, ok := s.Next(); ok {
		t.Error("SliceScript must end")
	}
	l := &LoopScript{Calls: []Syscall{{Nr: SysGetpid}}}
	for i := 0; i < 5; i++ {
		if c, ok := l.Next(); !ok || c.Nr != SysGetpid {
			t.Error("LoopScript must loop")
		}
	}
	empty := &LoopScript{}
	if _, ok := empty.Next(); ok {
		t.Error("empty LoopScript must end")
	}
	n := 0
	f := FuncScript(func() (Syscall, bool) { n++; return Syscall{}, n < 3 })
	f.Next()
	f.Next()
	if _, ok := f.Next(); ok {
		t.Error("FuncScript must propagate ok")
	}
}

func TestNICBacklogBoundsAndConsumption(t *testing.T) {
	k := buildTestKernel(t, Config{Clock: ClockTSC})
	server := k.StartTask(TaskSpec{Name: "srv", Script: &LoopScript{Calls: []Syscall{
		{Nr: SysAccept, Sock: SockTCP, Blocks: 1, UserWork: 40000},
	}}})
	k.SetNICRate(5000, SockTCP) // arrivals far faster than service
	runKernel(t, k, 5_000_000, nil)
	if server.SyscallsDone == 0 {
		t.Fatal("server accepted nothing")
	}
	// Served cannot exceed the arrivals (no phantom accepts).
	arrivals := uint64(5_000_000 / 5000)
	if server.SyscallsDone > arrivals+130 { // backlog bound + in flight
		t.Errorf("served %d with ~%d arrivals: phantom accepts", server.SyscallsDone, arrivals)
	}
}

// TestKernelThreadsRunInOwnContext: background kernel threads (kjournald,
// kswapd) execute kernel code in their own process context, so profiling
// an application on a machine with them running must not record their
// code.
func TestKernelThreadsRunInOwnContext(t *testing.T) {
	k := buildTestKernel(t, Config{Clock: ClockTSC, BackgroundThreads: true})
	var kj *Task
	for _, tk := range k.tasks {
		if tk.Name == "kjournald" && tk.State != TaskDead {
			kj = tk
			break
		}
	}
	if kj == nil {
		t.Fatal("kjournald not started")
	}
	ckpt, _ := k.Syms.ByName("jbd2_log_do_checkpoint")
	var inKjournald, inApp int
	app := k.StartTask(TaskSpec{Name: "app", Script: &LoopScript{Calls: []Syscall{
		{Nr: SysGetpid, UserWork: 20000},
	}}})
	k.M.AddBlockListener(func(ctx hv.ExecContext, start, end uint32) {
		if start >= ckpt.Addr && start < ckpt.End() {
			switch ctx.PID {
			case kj.PID:
				inKjournald++
			case app.PID:
				inApp++
			}
		}
	})
	runKernel(t, k, 40_000_000, nil)
	if inKjournald == 0 {
		t.Error("kjournald never did checkpoint work")
	}
	if inApp != 0 {
		t.Errorf("checkpoint work attributed to the app %d times", inApp)
	}
	if kj.State == TaskDead {
		t.Error("kernel thread exited")
	}
}

// TestKernelThreadsDoNotBlockCompletion: AllScriptsDone ignores resident
// kernel threads.
func TestKernelThreadsDoNotBlockCompletion(t *testing.T) {
	k := buildTestKernel(t, Config{Clock: ClockTSC, BackgroundThreads: true})
	k.StartTask(TaskSpec{Name: "one", Script: &SliceScript{Calls: []Syscall{
		{Nr: SysGetpid},
		{Nr: SysExit},
	}}})
	runKernel(t, k, 100_000_000, k.AllScriptsDone)
	if !k.AllScriptsDone() {
		t.Error("kernel threads should not block AllScriptsDone")
	}
}
