package kernel

import (
	"fmt"
	"sort"

	"facechange/internal/hv"
	"facechange/internal/isa"
	"facechange/internal/mem"
)

// Tunable timing parameters (simulated cycles unless stated).
const (
	// DefaultTimerPeriod is the interval between timer interrupts.
	DefaultTimerPeriod = 40000
	// SchedQuantum is the number of ticks a task runs before preemption.
	SchedQuantum = 3
	// diskLatency is the delay until a disk-interrupt completion.
	diskLatency = 18000
	// nicLatency is the delay until a pending network frame arrives.
	nicLatency = 9000
	// timerWait is the default timeout sleep duration.
	timerWait = 25000
	// fallbackWait bounds event waits so a lost wake cannot deadlock.
	fallbackWait = 800000
	// itimerTicks is the interval-timer period in ticks (setitimer/alarm).
	itimerTicks = 4
	// maxTasks bounds task slots (kernel stack area and VMI table size).
	maxTasks = 250
)

// ModuleInfo describes one loaded kernel module.
type ModuleInfo struct {
	Name    string
	Base    uint32
	Size    uint32
	Visible bool
}

type event struct {
	at     uint64
	vector uint32
	fam    SockFam
}

type cpuState struct {
	current      *Task
	idle         *Task
	runq         []*Task
	needResched  bool
	irqDepth     int
	curVector    uint32
	nextTimerAt  uint64
	nextKbdAt    uint64
	pendingRx    bool
	pendingRxFam SockFam
	timerExpired bool
	// picked is the task committed by the scheduler pick (rq->curr);
	// consumed by the hardware switch. While set, interrupts are disabled
	// (schedule runs its tail with irqs off).
	picked     *Task
	inSchedule bool
}

// Config configures a guest kernel instance.
type Config struct {
	// Clock selects the runtime clocksource (ClockTSC under the QEMU
	// profiler, ClockKVM under the KVM runtime).
	Clock ClockSource
	// NCPU is the number of vCPUs (the paper's prototype supports 1; >1
	// exercises the Section V-C extension).
	NCPU int
	// ExtraModules are additional module images (e.g. rootkits) compiled
	// into the image but not loaded until LoadModule is called.
	ExtraModules []ModuleSpec
	// KbdPeriod, when nonzero, delivers periodic keyboard interrupts
	// (interactive sessions).
	KbdPeriod uint64
	// BackgroundThreads starts the resident kernel threads (kjournald,
	// kswapd) at boot. Their kernel-context execution belongs to no
	// application view.
	BackgroundThreads bool
}

// Kernel is the guest OS runtime. It implements hv.GuestOS.
type Kernel struct {
	Img  *Image
	Syms *SymbolTable
	Host *mem.Host
	M    *hv.Machine

	clock     ClockSource
	kbdPeriod uint64

	hooks map[uint64]uint32 // (slot,key) → target addr

	tasks         []*Task // all tasks ever created (history)
	live          []*Task // non-dead tasks (scanned by ticks and wakes)
	created       int
	freeSlots     []int
	cpus          []*cpuState
	events        []event // sorted by at
	modules       []*ModuleInfo
	nextModGVA    uint32
	nextPID       int
	nextSlot      int
	nextUserGPA   uint32
	freeUserPages []uint32
	tickCount     uint64

	kernelAS *mem.AddressSpace

	// Open-loop network request generator (external load, e.g. httperf):
	// periodic NIC interrupts carrying requests for nicFam sockets.
	nicPeriod uint64
	nicFam    SockFam
	nextNICAt uint64
	// nicBacklog queues generator arrivals that found no waiting acceptor
	// (the TCP listen backlog); bounded like SOMAXCONN.
	nicBacklog int

	// retFromIntr bounds the ret_from_intr function: evaluating its
	// resched branch marks the end of interrupt context.
	retFromIntrStart, retFromIntrEnd uint32

	// Stats.
	ContextSwitches uint64
	Interrupts      uint64
}

// syscallTable and slotTable are SyscallHandlers and DefaultSlotTargets,
// built once per process: every guest resolves indirect calls through
// them, and none writes them (rootkit hooks live in Kernel.hooks).
var (
	syscallTable = SyscallHandlers()
	slotTable    = DefaultSlotTargets()
)

// New compiles the guest's modules against the process's shared base
// kernel, loads the image into a fresh machine and returns the kernel
// runtime.
func New(cfg Config) (*Kernel, error) {
	base, err := sharedBase()
	if err != nil {
		return nil, fmt.Errorf("kernel: build image: %w", err)
	}
	img, err := base.withModules(append(StandardModules(), cfg.ExtraModules...))
	if err != nil {
		return nil, fmt.Errorf("kernel: build image: %w", err)
	}
	return boot(cfg, img)
}

// boot loads img into a fresh machine and returns the kernel runtime.
func boot(cfg Config, img *Image) (*Kernel, error) {
	if cfg.NCPU <= 0 {
		cfg.NCPU = 1
	}
	if cfg.Clock == 0 {
		cfg.Clock = ClockKVM
	}
	k := &Kernel{
		Img:         img,
		Syms:        img.Symbols,
		Host:        mem.NewHost(),
		clock:       cfg.Clock,
		kbdPeriod:   cfg.KbdPeriod,
		hooks:       make(map[uint64]uint32),
		nextModGVA:  mem.ModuleGVA + mem.PageSize,
		nextPID:     1,
		nextUserGPA: mem.UserGPA,
		kernelAS:    mem.NewAddressSpace(),
	}
	if err := k.Host.Write(mem.KernelTextGPA, img.Text); err != nil {
		return nil, fmt.Errorf("kernel: load text: %w", err)
	}
	rfi, ok := k.Syms.ByName("ret_from_intr")
	if !ok {
		return nil, fmt.Errorf("kernel: missing ret_from_intr")
	}
	k.retFromIntrStart, k.retFromIntrEnd = rfi.Addr, rfi.End()

	k.M = hv.NewMachine(k.Host, k, cfg.NCPU)
	for i, cpu := range k.M.CPUs {
		st := &cpuState{
			nextTimerAt: DefaultTimerPeriod,
		}
		if k.kbdPeriod > 0 {
			st.nextKbdAt = k.kbdPeriod
		}
		idle := &Task{
			PID:  0,
			Slot: k.allocSlot(),
			Name: "swapper",
			regs: hv.Regs{
				EIP:  k.Syms.MustAddr("cpu_idle"),
				Mode: hv.ModeKernel,
			},
			State: TaskRunning,
			as:    k.kernelAS,
		}
		idle.regs.ESP = idle.kstackTop()
		st.idle = idle
		st.current = idle
		k.cpus = append(k.cpus, st)
		cpu.LoadRegs(idle.regs)
		cpu.SetAddressSpace(idle.as)
		k.writeVMICurrent(i, idle)
		k.writeVMITask(idle)
	}
	if cfg.BackgroundThreads {
		for _, name := range []string{"kjournald", "kswapd"} {
			t := k.newTask(TaskSpec{Name: name, KernelEntry: name}, nil)
			k.enqueue(t)
		}
	}
	return k, nil
}

func (k *Kernel) allocSlot() int {
	if n := len(k.freeSlots); n > 0 {
		s := k.freeSlots[n-1]
		k.freeSlots = k.freeSlots[:n-1]
		return s
	}
	s := k.nextSlot
	k.nextSlot++
	if k.nextSlot > maxTasks {
		panic("kernel: task slots exhausted")
	}
	return s
}

// reap releases a dead task's resources (its slot; the VMI struct is
// reused by the next task created).
func (k *Kernel) reap(t *Task) {
	k.freeSlots = append(k.freeSlots, t.Slot)
	if t.userPages[0] != 0 {
		k.freeUserPages = append(k.freeUserPages, t.userPages[0], t.userPages[1])
		t.userPages = [2]uint32{}
	}
	for i, lt := range k.live {
		if lt == t {
			k.live = append(k.live[:i], k.live[i+1:]...)
			break
		}
	}
}

// SetNICRate starts (period > 0) or stops (period == 0) the periodic
// network request generator: one inbound request every period cycles for
// sockets of family fam. This models an external load generator, which
// consumes no guest CPU (the paper drives Apache with httperf from
// outside the VM).
func (k *Kernel) SetNICRate(period uint64, fam SockFam) {
	k.nicPeriod = period
	k.nicFam = fam
	if period > 0 {
		k.nextNICAt = k.M.Cycles() + period
	}
}

// Modules returns the loaded-module list (including hidden modules, which
// guest-side VMI cannot see).
func (k *Kernel) Modules() []ModuleInfo {
	out := make([]ModuleInfo, 0, len(k.modules))
	for _, m := range k.modules {
		out = append(out, *m)
	}
	return out
}

// StartTask creates a runnable process from spec, pinned to the
// least-loaded CPU.
func (k *Kernel) StartTask(spec TaskSpec) *Task {
	t := k.newTask(spec, nil)
	k.enqueue(t)
	return t
}

func (k *Kernel) newTask(spec TaskSpec, parent *Task) *Task {
	t := &Task{
		PID:    k.nextPID,
		Slot:   k.allocSlot(),
		Name:   spec.Name,
		Script: spec.Script,
		State:  TaskRunnable,
		parent: parent,
	}
	k.nextPID++
	if spec.KernelEntry != "" {
		// Kernel thread: no user address space; starts at the named kernel
		// symbol and never irets.
		t.kernelThread = true
		t.as = k.kernelAS
		t.regs = hv.Regs{
			EIP:  k.Syms.MustAddr(spec.KernelEntry),
			ESP:  t.kstackTop(),
			Mode: hv.ModeKernel,
		}
		k.assignCPU(t)
		k.tasks = append(k.tasks, t)
		k.live = append(k.live, t)
		k.created++
		k.writeVMITask(t)
		return t
	}
	// Build the user address space: a code page with the int/jmp loop and
	// a stack page.
	as := mem.NewAddressSpace()
	codeGPA := k.allocUserPage()
	stackGPA := k.allocUserPage()
	t.userPages = [2]uint32{codeGPA, stackGPA}
	as.Map(mem.Region{GVA: mem.UserCodeBase, GPA: codeGPA, Size: mem.PageSize, Name: "code"})
	as.Map(mem.Region{GVA: mem.UserStackTop - mem.PageSize, GPA: stackGPA, Size: mem.PageSize, Name: "stack"})
	// User loop: int 0x80; jmp short -4.
	loop := []byte{isa.ByteInt, isa.IntSyscall, isa.ByteJmpShort, 0xFC}
	if err := k.Host.Write(codeGPA, loop); err != nil {
		panic(fmt.Sprintf("kernel: write user code: %v", err))
	}
	t.as = as
	// The task first runs from ret_from_fork on its kernel stack, then
	// irets to user space through the fabricated frame below.
	t.regs = hv.Regs{
		EIP:  k.Syms.MustAddr("ret_from_fork"),
		ESP:  t.kstackTop(),
		Mode: hv.ModeKernel,
	}
	t.frames = []savedFrame{{
		regs: hv.Regs{
			EIP:  mem.UserCodeBase,
			ESP:  mem.UserStackTop - 16,
			Mode: hv.ModeUser,
		},
	}}
	k.assignCPU(t)
	k.tasks = append(k.tasks, t)
	k.live = append(k.live, t)
	k.created++
	k.writeVMITask(t)
	return t
}

func (k *Kernel) allocUserPage() uint32 {
	if n := len(k.freeUserPages); n > 0 {
		p := k.freeUserPages[n-1]
		k.freeUserPages = k.freeUserPages[:n-1]
		return p
	}
	p := k.nextUserGPA
	k.nextUserGPA += mem.PageSize
	if k.nextUserGPA > mem.GuestRAMSize {
		panic("kernel: guest user memory exhausted")
	}
	return p
}

// assignCPU pins a new task to the least-loaded vCPU.
func (k *Kernel) assignCPU(t *Task) {
	best := 0
	for i := 1; i < len(k.cpus); i++ {
		if len(k.cpus[i].runq) < len(k.cpus[best].runq) {
			best = i
		}
	}
	t.cpu = best
}

func (k *Kernel) enqueue(t *Task) {
	t.State = TaskRunnable
	k.cpus[t.cpu].runq = append(k.cpus[t.cpu].runq, t)
}

// ---- Module management ----

// LoadModule links a compiled module into the kernel heap, writes its code
// into guest memory and appends it to the (VMI-visible) module list.
func (k *Kernel) LoadModule(name string) (*ModuleInfo, error) {
	base := k.nextModGVA
	code, err := k.Img.LinkModule(name, base)
	if err != nil {
		return nil, err
	}
	gpa := mem.ModuleGPA + (base - mem.ModuleGVA)
	if err := k.Host.Write(gpa, code); err != nil {
		return nil, fmt.Errorf("kernel: write module %s: %w", name, err)
	}
	mi := &ModuleInfo{Name: name, Base: base, Size: uint32(len(code)), Visible: true}
	k.modules = append(k.modules, mi)
	// Leave a one-page gap so module code pages are scattered in the heap.
	k.nextModGVA = mem.PageAlignUp(base+mi.Size) + mem.PageSize
	k.writeVMIModules()
	return mi, nil
}

// HideModule removes a module from the guest-visible module list without
// unloading its code — the rootkit self-hiding technique (KBeast).
func (k *Kernel) HideModule(name string) error {
	for _, m := range k.modules {
		if m.Name == name {
			m.Visible = false
			k.writeVMIModules()
			return nil
		}
	}
	return fmt.Errorf("kernel: module %q not loaded", name)
}

// ---- Function-pointer hooks (rootkit API) ----

func hookID(slot Slot, key uint32) uint64 { return uint64(slot)<<32 | uint64(key) }

// HookSlot redirects a function-pointer table entry to the named symbol
// (which must be loaded), modelling syscall-table and ops-table hijacking.
func (k *Kernel) HookSlot(slot Slot, key uint32, symbol string) error {
	f, ok := k.Syms.ByName(symbol)
	if !ok || f.Addr == 0 {
		return fmt.Errorf("kernel: hook target %q not resolvable", symbol)
	}
	k.hooks[hookID(slot, key)] = f.Addr
	return nil
}

// ---- hv.GuestOS implementation ----

func (k *Kernel) cpu(c *hv.CPU) *cpuState { return k.cpus[c.ID] }

// Context implements hv.GuestOS.
func (k *Kernel) Context(c *hv.CPU) hv.ExecContext {
	st := k.cpu(c)
	return hv.ExecContext{PID: st.current.PID, IRQ: st.irqDepth > 0}
}

// Int implements hv.GuestOS: system-call entry.
func (k *Kernel) Int(c *hv.CPU, vector uint8) error {
	if vector != isa.IntSyscall {
		return fmt.Errorf("kernel: unexpected software interrupt %#x", vector)
	}
	st := k.cpu(c)
	t := st.current
	if t == st.idle {
		return fmt.Errorf("kernel: syscall from idle task")
	}
	call, ok := t.nextSyscall()
	if !ok {
		call = Syscall{Nr: SysExit}
	}
	t.cur = call
	t.inSyscall = true
	t.blocksLeft = call.Blocks
	// Side effects visible to the runtime state machine.
	switch call.Nr {
	case SysRtSigaction:
		t.sigHandler = true
	case SysSetitimer, SysAlarm:
		t.itimerEvery = itimerTicks
		t.itimerNext = k.tickCount + itimerTicks
	case SysFork, SysClone:
		if call.Spawn != nil {
			child := k.newTask(*call.Spawn, t)
			k.enqueue(child)
		}
	case SysExecve:
		if call.Spawn != nil {
			t.pendingExec = call.Spawn
		}
	case SysExit:
		t.exitPending = true
	}
	// Trap frame: return to the instruction after int 0x80.
	t.frames = append(t.frames, savedFrame{regs: c.SaveRegs()})
	c.Mode = hv.ModeKernel
	c.ESP = t.kstackTop()
	c.EBP = 0 // frame-chain terminator for backtraces
	c.EAX = uint32(call.Nr)
	c.EIP = k.Syms.MustAddr("syscall_call")
	return nil
}

// Iret implements hv.GuestOS.
func (k *Kernel) Iret(c *hv.CPU) error {
	st := k.cpu(c)
	t := st.current
	if len(t.frames) == 0 {
		return fmt.Errorf("kernel: iret with empty frame stack (task %s)", t.Name)
	}
	fr := t.frames[len(t.frames)-1]
	t.frames = t.frames[:len(t.frames)-1]
	if fr.irq {
		if st.irqDepth > 0 {
			st.irqDepth--
		}
	} else if t.inSyscall {
		k.completeSyscall(t)
	}
	c.LoadRegs(fr.regs)
	return nil
}

func (k *Kernel) completeSyscall(t *Task) {
	if t.cur.UserWork > 0 {
		k.M.Charge(t.cur.UserWork)
	}
	if t.pendingExec != nil {
		t.Name = t.pendingExec.Name
		t.Script = t.pendingExec.Script
		t.pendingExec = nil
		k.writeVMITask(t)
	}
	if t.cur.Nr == SysRtSigreturn {
		t.inSignal = false
	}
	if t.cur.File == FilePipe && (t.cur.Nr == SysWrite || t.cur.Nr == SysClose) {
		// pipe_write's __wake_up: readers blocked on the pipe become
		// runnable (close wakes them with EOF).
		k.wakeWaiters(WaitPipe)
	}
	t.SyscallsDone++
	t.inSyscall = false
}

// pickNext is the scheduler's commit point (resolved through
// SlotSchedPick): it settles the outgoing task's fate, chooses the next
// task and publishes it as the guest's rq->curr — before context_switch
// executes, so hypervisor VMI at the context-switch trap sees the incoming
// task. Interrupts stay off until the hardware switch completes.
func (k *Kernel) pickNext(c *hv.CPU, st *cpuState) {
	cur := st.current
	switch {
	case cur.exitPending:
		cur.State = TaskDead
		k.notifyExit(cur)
		k.reap(cur)
	case cur.pendingSleep != WaitNone:
		k.putToSleep(cur)
	case cur == st.idle:
		// Idle never enters the run queue.
	default:
		cur.State = TaskRunnable
		st.runq = append(st.runq, cur)
	}
	var next *Task
	if len(st.runq) > 0 {
		next = st.runq[0]
		copy(st.runq, st.runq[1:])
		st.runq = st.runq[:len(st.runq)-1]
	} else {
		next = st.idle
	}
	st.picked = next
	st.inSchedule = true
	k.writeVMIRQCurr(c.ID, next)
}

// TaskSwitch implements hv.GuestOS: the hardware context switch inside
// context_switch.
func (k *Kernel) TaskSwitch(c *hv.CPU) error {
	st := k.cpu(c)
	cur := st.current
	cur.regs = c.SaveRegs()
	k.ContextSwitches++
	if st.irqDepth > 0 {
		// Context switch ends any lingering interrupt attribution.
		st.irqDepth = 0
	}
	next := st.picked
	if next == nil {
		// Defensive: a direct jump into context_switch without the
		// scheduler pick (never generated) falls back to picking here.
		k.pickNext(c, st)
		next = st.picked
	}
	st.picked = nil
	st.inSchedule = false
	next.State = TaskRunning
	next.ranTicks = 0
	st.current = next
	st.needResched = false
	c.LoadRegs(next.regs)
	c.SetAddressSpace(next.as)
	k.writeVMICurrent(c.ID, next)
	return nil
}

// notifyExit wakes a parent blocked in waitpid and signals it.
func (k *Kernel) notifyExit(t *Task) {
	if t.parent == nil {
		return
	}
	p := t.parent
	p.sigPending = p.sigHandler // SIGCHLD
	if p.State == TaskSleeping && (p.Wait == WaitChild || p.Wait == WaitSignal) {
		k.wake(p)
	}
}

func (k *Kernel) putToSleep(t *Task) {
	kind := t.pendingSleep
	t.pendingSleep = WaitNone
	t.State = TaskSleeping
	t.Wait = kind
	now := k.M.Cycles()
	t.WakeAt = now + fallbackWait
	switch kind {
	case WaitTimer:
		t.WakeAt = now + timerWait
		if t.cur.SleepTicks > 0 {
			t.WakeAt = now + uint64(t.cur.SleepTicks)*DefaultTimerPeriod
		}
		if t.kernelThread {
			// Resident kernel threads park for long commit intervals.
			t.WakeAt = now + 40*DefaultTimerPeriod
		}
	case WaitDisk:
		k.pushEvent(event{at: now + diskLatency, vector: VecDisk})
	case WaitNIC:
		fam := t.cur.Sock
		if fam == SockNone {
			fam = SockTCP
		}
		if k.nicPeriod > 0 && fam == k.nicFam {
			// An open-loop generator is driving this family: the sleeper
			// waits for a real arrival rather than a self-scheduled frame.
			t.WakeAt = now + 200*fallbackWait
		} else {
			k.pushEvent(event{at: now + nicLatency, vector: VecNIC, fam: fam})
		}
	case WaitKbd:
		if k.kbdPeriod == 0 {
			// No keyboard on this machine; fall back to a timeout.
			t.WakeAt = now + timerWait
		}
	case WaitPipe:
		// Woken by a peer's pipe write; the fallback deadline guards
		// against writer death.
	}
}

func (k *Kernel) pushEvent(ev event) {
	i := sort.Search(len(k.events), func(i int) bool { return k.events[i].at > ev.at })
	k.events = append(k.events, event{})
	copy(k.events[i+1:], k.events[i:])
	k.events[i] = ev
}

func (k *Kernel) wake(t *Task) {
	if t.State != TaskSleeping {
		return
	}
	t.Wait = WaitNone
	k.enqueue(t)
}

// ResolveIndirect implements hv.GuestOS.
func (k *Kernel) ResolveIndirect(c *hv.CPU, slot uint32) (uint32, error) {
	s := Slot(slot)
	if s == SlotSchedPick {
		// Resolution of the scheduler pick is the commit point.
		k.pickNext(c, k.cpu(c))
	}
	key, err := k.slotKey(c, s)
	if err != nil {
		return 0, err
	}
	if addr, ok := k.hooks[hookID(s, key)]; ok {
		return addr, nil
	}
	var name string
	if s == SlotSyscall {
		h, ok := syscallTable[SysNo(key)]
		if !ok {
			return 0, fmt.Errorf("kernel: unimplemented system call %d", key)
		}
		name = h
	} else {
		names, ok := slotTable[s]
		if !ok {
			return 0, fmt.Errorf("kernel: no table for slot %d", slot)
		}
		n, ok := names[key]
		if !ok {
			return 0, fmt.Errorf("kernel: slot %d has no entry for key %d", slot, key)
		}
		name = n
	}
	f, ok := k.Syms.ByName(name)
	if !ok || f.Addr == 0 {
		return 0, fmt.Errorf("kernel: slot %d key %d target %q not loaded", slot, key, name)
	}
	return f.Addr, nil
}

func (k *Kernel) slotKey(c *hv.CPU, s Slot) (uint32, error) {
	st := k.cpu(c)
	t := st.current
	switch s {
	case SlotSyscall:
		if !t.inSyscall {
			return 0, fmt.Errorf("kernel: syscall dispatch outside syscall")
		}
		return uint32(t.cur.Nr), nil
	case SlotFileRead, SlotFileWrite, SlotFilePoll, SlotFileOpen, SlotFileIoctl,
		SlotDirIterate, SlotFSync:
		if t.cur.File == FileNone {
			// Paths opened without an explicit kind (e.g. open_exec loading
			// a binary) are regular ext4 files.
			return uint32(FileExt4), nil
		}
		return uint32(t.cur.File), nil
	case SlotSockCreate, SlotSockBind, SlotSockConnect, SlotSockSendmsg,
		SlotSockRecvmsg, SlotSockAccept, SlotSockListen, SlotSockPoll,
		SlotProtoSendmsg, SlotProtoRecvmsg, SlotProtoGetPort:
		return uint32(t.cur.Sock), nil
	case SlotNetProto, SlotNetProtoL4:
		return uint32(st.pendingRxFam), nil
	case SlotClockRead:
		return uint32(k.clock), nil
	case SlotTTYReceive, SlotSchedPick:
		return 0, nil
	case SlotIRQ:
		return st.curVector, nil
	default:
		return 0, fmt.Errorf("kernel: unknown slot %d", s)
	}
}

// EvalCond implements hv.GuestOS.
func (k *Kernel) EvalCond(c *hv.CPU, addr uint32) (bool, error) {
	key, ok := k.Img.Cond(addr)
	if !ok {
		return false, fmt.Errorf("kernel: no condition registered at %#x", addr)
	}
	st := k.cpu(c)
	t := st.current
	switch key {
	case CondNone:
		return false, nil
	case CondNeedResched:
		if addr >= k.retFromIntrStart && addr < k.retFromIntrEnd && st.irqDepth > 0 {
			// Interrupt handling proper is over; what follows (possible
			// preemption) is ordinary kernel context.
			st.irqDepth--
		}
		return st.needResched, nil
	case CondBlock:
		if t.kernelThread {
			// Kernel threads park on their wait queues between work items.
			t.pendingSleep = WaitTimer
			return true, nil
		}
		if !t.inSyscall || t.blocksLeft <= 0 {
			return false, nil
		}
		kind := waitKindFor(t.cur)
		if kind == WaitNIC && k.nicPeriod > 0 && t.cur.Sock == k.nicFam && k.nicBacklog > 0 {
			// A connection is already queued in the listen backlog: the
			// accept completes without sleeping.
			k.nicBacklog--
			t.blocksLeft--
			return false, nil
		}
		t.blocksLeft--
		t.pendingSleep = kind
		return true, nil
	case CondRare:
		return t.inSyscall && t.cur.Rare, nil
	case CondSignalPending:
		if t.sigPending && t.sigHandler {
			t.sigPending = false
			if t.SignalScript != nil {
				t.inSignal = true
			}
			return true, nil
		}
		return false, nil
	case CondJournal:
		return t.inSyscall && t.cur.Journal, nil
	case CondNetRxPending:
		v := st.pendingRx
		st.pendingRx = false
		return v, nil
	case CondTimerExpired:
		v := st.timerExpired
		st.timerExpired = false
		return v, nil
	case CondUserReturn:
		return len(t.frames) > 0 && t.frames[len(t.frames)-1].regs.Mode == hv.ModeUser, nil
	default:
		return false, fmt.Errorf("kernel: unhandled condition %d", key)
	}
}

// waitKindFor derives the wake source for a blocking system call.
func waitKindFor(call Syscall) WaitKind {
	switch call.Nr {
	case SysWaitpid:
		return WaitChild
	case SysPause:
		return WaitSignal
	case SysNanosleep, SysFutex:
		return WaitTimer
	}
	// Local-peer sockets (unix domain) wake on peer activity, modelled as
	// a short timeout, not on NIC receive.
	if call.Sock == SockUnix {
		return WaitTimer
	}
	switch call.File {
	case FileExt4:
		return WaitDisk
	case FileTTY:
		return WaitKbd
	case FileSocketFD:
		return WaitNIC
	case FilePipe:
		return WaitPipe
	case FileProcfs, FileSound:
		return WaitTimer
	}
	if call.Sock != SockNone {
		return WaitNIC
	}
	return WaitTimer
}

// MaybeInterrupt implements hv.GuestOS: hardware interrupt delivery at
// basic-block boundaries.
func (k *Kernel) MaybeInterrupt(c *hv.CPU) (bool, error) {
	st := k.cpu(c)
	if st.irqDepth > 0 || st.inSchedule {
		return false, nil
	}
	now := k.M.Cycles()
	vector, fam, due := k.nextDue(st, now)
	if !due {
		return false, nil
	}
	k.deliver(c, st, vector, fam)
	return true, nil
}

// nextDue picks the earliest due interrupt source, consuming it.
func (k *Kernel) nextDue(st *cpuState, now uint64) (uint32, SockFam, bool) {
	if len(k.events) > 0 && k.events[0].at <= now {
		ev := k.events[0]
		k.events = k.events[1:]
		return ev.vector, ev.fam, true
	}
	if st.nextTimerAt <= now {
		st.nextTimerAt = now + DefaultTimerPeriod
		return VecTimer, SockNone, true
	}
	if k.kbdPeriod > 0 && st.nextKbdAt <= now {
		st.nextKbdAt = now + k.kbdPeriod
		return VecKbd, SockNone, true
	}
	if k.nicPeriod > 0 && k.nextNICAt <= now {
		// Open-loop arrivals: a request arrives every period regardless of
		// whether the server kept up (excess arrivals are dropped by the
		// full backlog, so throughput saturates at server capacity).
		k.nextNICAt += k.nicPeriod
		if k.nextNICAt <= now {
			k.nextNICAt = now + k.nicPeriod
		}
		return VecNIC, k.nicFam, true
	}
	return 0, SockNone, false
}

// deliver pushes an interrupt frame and redirects the CPU to the interrupt
// entry.
func (k *Kernel) deliver(c *hv.CPU, st *cpuState, vector uint32, fam SockFam) {
	k.Interrupts++
	t := st.current
	st.curVector = vector
	st.irqDepth++
	t.frames = append(t.frames, savedFrame{regs: c.SaveRegs(), irq: true})
	if c.Mode == hv.ModeUser {
		c.Mode = hv.ModeKernel
		c.ESP = t.kstackTop()
		c.EBP = 0
	}
	c.EIP = k.Syms.MustAddr("common_interrupt")

	switch vector {
	case VecTimer:
		k.onTick(st)
	case VecKbd:
		k.wakeWaiters(WaitKbd)
	case VecDisk:
		k.wakeWaiters(WaitDisk)
	case VecNIC:
		st.pendingRx = true
		st.pendingRxFam = fam
		// Socket wait queues use exclusive waits (prepare_to_wait_exclusive):
		// one arrival wakes one acceptor, avoiding a thundering herd.
		if woken := k.wakeOne(WaitNIC); woken == 0 && k.nicPeriod > 0 && fam == k.nicFam {
			// No acceptor waiting: queue the connection in the listen
			// backlog (drop beyond SOMAXCONN, saturating the server).
			if k.nicBacklog < 128 {
				k.nicBacklog++
			}
		}
	}
}

func (k *Kernel) wakeWaiters(kind WaitKind) {
	for _, t := range k.live {
		if t.State == TaskSleeping && t.Wait == kind {
			k.wake(t)
		}
	}
}

// wakeOne wakes at most one waiter (exclusive wait queues).
func (k *Kernel) wakeOne(kind WaitKind) int {
	for _, t := range k.live {
		if t.State == TaskSleeping && t.Wait == kind {
			k.wake(t)
			return 1
		}
	}
	return 0
}

// onTick performs timer bookkeeping: quantum accounting, timeout wakes and
// interval timers.
func (k *Kernel) onTick(st *cpuState) {
	k.tickCount++
	now := k.M.Cycles()
	cur := st.current
	cur.ranTicks++
	for _, t := range k.live {
		if t.State == TaskSleeping && t.WakeAt <= now {
			k.wake(t)
		}
		if t.itimerEvery > 0 && k.tickCount >= t.itimerNext {
			t.itimerNext = k.tickCount + t.itimerEvery
			if t.sigHandler {
				t.sigPending = true
				st.timerExpired = true
				if t.State == TaskSleeping && t.Wait == WaitSignal {
					k.wake(t)
				}
			}
		}
	}
	if cur == st.idle {
		if len(st.runq) > 0 {
			st.needResched = true
		}
	} else if cur.ranTicks >= SchedQuantum && len(st.runq) > 0 {
		st.needResched = true
	}
}

// Halt implements hv.GuestOS: fast-forward to the next hardware event.
func (k *Kernel) Halt(c *hv.CPU) error {
	st := k.cpu(c)
	now := k.M.Cycles()
	next := st.nextTimerAt
	if k.kbdPeriod > 0 && st.nextKbdAt < next {
		next = st.nextKbdAt
	}
	if k.nicPeriod > 0 && k.nextNICAt < next {
		next = k.nextNICAt
	}
	if len(k.events) > 0 && k.events[0].at < next {
		next = k.events[0].at
	}
	if next > now {
		k.M.Charge(next - now)
	}
	return nil
}

// AllScriptsDone reports whether every non-idle, non-kernel-thread task
// has exited.
func (k *Kernel) AllScriptsDone() bool {
	if k.created == 0 {
		return false
	}
	for _, t := range k.live {
		if !t.kernelThread {
			return false
		}
	}
	return true
}
