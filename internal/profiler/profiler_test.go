package profiler

import (
	"testing"

	"facechange/internal/kernel"
	"facechange/internal/kview"
	"facechange/internal/mem"
)

// session builds a profiling machine (QEMU environment: TSC clock), starts
// the given script as a tracked task and runs it to completion.
func session(t *testing.T, name string, calls []kernel.Syscall, modules ...string) (*kernel.Kernel, *Profiler, *kernel.Task) {
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
	p := New(k)
	calls = append(calls, kernel.Syscall{Nr: kernel.SysExit})
	task := k.StartTask(kernel.TaskSpec{Name: name, Script: &kernel.SliceScript{Calls: calls}})
	p.Track(task)
	if err := k.M.Run(500_000_000, k.AllScriptsDone); err != nil {
		t.Fatalf("run: %v", err)
	}
	if task.State != kernel.TaskDead {
		t.Fatalf("task did not finish: %v", task.State)
	}
	return k, p, task
}

// viewContainsFn reports whether view v covers the entry point of the named
// kernel function.
func viewContainsFn(k *kernel.Kernel, v *kview.View, name string) bool {
	f, ok := k.Syms.ByName(name)
	if !ok || f.Addr == 0 {
		return false
	}
	if f.Module == kview.BaseKernel {
		return v.Ranges(kview.BaseKernel).Contains(f.Addr)
	}
	for _, m := range k.Modules() {
		if m.Name == f.Module {
			return v.Ranges(f.Module).Contains(f.Addr - m.Base)
		}
	}
	return false
}

func TestProfileRecordsSyscallChain(t *testing.T) {
	k, p, task := session(t, "reader", []kernel.Syscall{
		{Nr: kernel.SysRead, File: kernel.FileExt4},
	})
	v, ok := p.ViewFor(task.PID)
	if !ok {
		t.Fatal("no view for tracked task")
	}
	for _, fname := range []string{"syscall_call", "sys_read", "vfs_read",
		"security_file_permission", "do_sync_read", "generic_file_aio_read"} {
		if !viewContainsFn(k, v, fname) {
			t.Errorf("view missing %s", fname)
		}
	}
	// Code the app never executed must be absent.
	for _, fname := range []string{"sys_socket", "tcp_sendmsg", "pipe_read", "sys_fork"} {
		if viewContainsFn(k, v, fname) {
			t.Errorf("view wrongly contains %s", fname)
		}
	}
	if v.Size() == 0 || v.Len() == 0 {
		t.Error("empty view")
	}
}

func TestProfileParameterDependentDispatch(t *testing.T) {
	// Section II: read on procfs vs ext4 reaches different kernel code.
	k1, p1, t1 := session(t, "procapp", []kernel.Syscall{
		{Nr: kernel.SysRead, File: kernel.FileProcfs},
	})
	v1, _ := p1.ViewFor(t1.PID)
	if !viewContainsFn(k1, v1, "proc_file_read") || viewContainsFn(k1, v1, "do_sync_read") {
		t.Error("procfs read dispatched wrongly")
	}
	k2, p2, t2 := session(t, "extapp", []kernel.Syscall{
		{Nr: kernel.SysRead, File: kernel.FileExt4},
	})
	v2, _ := p2.ViewFor(t2.PID)
	if !viewContainsFn(k2, v2, "do_sync_read") || viewContainsFn(k2, v2, "proc_file_read") {
		t.Error("ext4 read dispatched wrongly")
	}
}

func TestProfileInterruptContextShared(t *testing.T) {
	_, p, task := session(t, "any", []kernel.Syscall{
		{Nr: kernel.SysGetpid, UserWork: 300000},
		{Nr: kernel.SysGetpid, UserWork: 300000},
	})
	irq := p.irq
	if irq.Size() == 0 {
		t.Fatal("no interrupt-context code recorded despite timer interrupts")
	}
	v, _ := p.ViewFor(task.PID)
	// The exported view must contain the whole interrupt set.
	if kview.OverlapSize(v, irq) != irq.Size() {
		t.Error("exported view does not include the interrupt-context set")
	}
}

func TestProfileUntrackedContextIgnored(t *testing.T) {
	k, err := kernel.New(kernel.Config{Clock: kernel.ClockTSC})
	if err != nil {
		t.Fatal(err)
	}
	p := New(k)
	tracked := k.StartTask(kernel.TaskSpec{Name: "tracked", Script: &kernel.SliceScript{Calls: []kernel.Syscall{
		{Nr: kernel.SysGetpid},
		{Nr: kernel.SysExit},
	}}})
	other := k.StartTask(kernel.TaskSpec{Name: "other", Script: &kernel.SliceScript{Calls: []kernel.Syscall{
		{Nr: kernel.SysSocket, Sock: kernel.SockUDP},
		{Nr: kernel.SysExit},
	}}})
	_ = other
	p.Track(tracked)
	if err := k.M.Run(500_000_000, k.AllScriptsDone); err != nil {
		t.Fatal(err)
	}
	v, _ := p.ViewFor(tracked.PID)
	if viewContainsFn(k, v, "inet_create") {
		t.Error("tracked view contains another process's kernel code (context attribution broken)")
	}
}

func TestProfileModuleRelativeRanges(t *testing.T) {
	k, p, task := session(t, "tcpdump", []kernel.Syscall{
		{Nr: kernel.SysSocket, Sock: kernel.SockPacket},
		{Nr: kernel.SysBind, Sock: kernel.SockPacket},
	}, "af_packet")
	v, _ := p.ViewFor(task.PID)
	rl := v.Ranges("af_packet")
	if rl.Len() == 0 {
		t.Fatal("no module ranges recorded")
	}
	// Module ranges must be relative: well below the module area base.
	for _, r := range rl {
		if r.Start >= mem.ModuleGVA {
			t.Errorf("module range %#x not relative to module base", r.Start)
		}
	}
	if !viewContainsFn(k, v, "packet_create") {
		t.Error("packet_create missing from view")
	}
}

func TestProfileRangesAreMerged(t *testing.T) {
	_, p, task := session(t, "looper", []kernel.Syscall{
		{Nr: kernel.SysGetpid},
		{Nr: kernel.SysGetpid},
		{Nr: kernel.SysGetpid},
	})
	v, _ := p.ViewFor(task.PID)
	rl := v.Ranges(kview.BaseKernel)
	for i := 1; i < rl.Len(); i++ {
		if rl[i-1].End >= rl[i].Start {
			t.Fatalf("ranges %v and %v not merged/sorted", rl[i-1], rl[i])
		}
	}
}

func TestSimilarityOfDistinctWorkloads(t *testing.T) {
	_, p1, t1 := session(t, "netapp", []kernel.Syscall{
		{Nr: kernel.SysSocket, Sock: kernel.SockUDP},
		{Nr: kernel.SysBind, Sock: kernel.SockUDP},
		{Nr: kernel.SysSendto, Sock: kernel.SockUDP},
	})
	v1, _ := p1.ViewFor(t1.PID)
	_, p2, t2 := session(t, "fileapp", []kernel.Syscall{
		{Nr: kernel.SysOpen, File: kernel.FileExt4},
		{Nr: kernel.SysRead, File: kernel.FileExt4},
		{Nr: kernel.SysWrite, File: kernel.FileExt4, Journal: true},
	})
	v2, _ := p2.ViewFor(t2.PID)
	s := kview.Similarity(v1, v2)
	if s <= 0 || s >= 1 {
		t.Errorf("similarity of distinct apps = %v, want in (0,1)", s)
	}
	self := kview.Similarity(v1, v1)
	if self != 1 {
		t.Errorf("self similarity = %v", self)
	}
}
