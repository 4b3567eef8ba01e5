package core

import (
	"strings"
	"testing"

	"facechange/internal/kernel"
	"facechange/internal/kview"
	"facechange/internal/mem"
)

func tcpdumpScript() []kernel.Syscall {
	return []kernel.Syscall{
		{Nr: kernel.SysSocket, Sock: kernel.SockPacket},
		{Nr: kernel.SysBind, Sock: kernel.SockPacket},
		{Nr: kernel.SysRecvfrom, Sock: kernel.SockPacket, Blocks: 1},
		{Nr: kernel.SysWrite, File: kernel.FileTTY},
	}
}

// TestModuleRangesLoadedIntoView: a view whose configuration includes
// module-relative ranges loads that module's code, so the profiled
// workload runs without recovering module code.
func TestModuleRangesLoadedIntoView(t *testing.T) {
	view := profileApp(t, "tcpdump", repeat(tcpdumpScript(), 4), "af_packet")
	if view.Ranges("af_packet").Len() == 0 {
		t.Fatal("profile lacks module ranges")
	}
	k, rt := runtimeMachine(t, []string{"af_packet"}, DefaultOptions())
	if _, err := rt.LoadView(view); err != nil {
		t.Fatal(err)
	}
	rt.Enable()
	task := k.StartTask(kernel.TaskSpec{
		Name:   "tcpdump",
		Script: &kernel.SliceScript{Calls: append(repeat(tcpdumpScript(), 4), kernel.Syscall{Nr: kernel.SysExit})},
	})
	if err := k.M.Run(3_000_000_000, k.AllScriptsDone); err != nil {
		t.Fatalf("run: %v", err)
	}
	if task.State != kernel.TaskDead {
		t.Fatalf("task stuck: %v", task.State)
	}
	for _, ev := range rt.Log() {
		if strings.HasPrefix(ev.Fn, "packet_") {
			t.Errorf("profiled module code was recovered: %s", ev.Fn)
		}
	}
}

// TestModuleCodeRecoveredWhenMissingFromView: under a view that lacks the
// module's ranges, executing module code traps and recovers with correct
// module-space symbolization.
func TestModuleCodeRecoveredWhenMissingFromView(t *testing.T) {
	// Profile top (no packet sockets) on a machine WITH af_packet loaded,
	// so the view shadows the module without loading its code.
	k0, err := kernel.New(kernel.Config{Clock: kernel.ClockTSC})
	if err != nil {
		t.Fatal(err)
	}
	_ = k0
	view := profileApp(t, "top", repeat(topScript(), 4))

	k, rt := runtimeMachine(t, []string{"af_packet"}, DefaultOptions())
	if _, err := rt.LoadView(view); err != nil {
		t.Fatal(err)
	}
	rt.Enable()
	// The "top" process is hijacked into sniffing packets.
	script := append(repeat(topScript(), 2), tcpdumpScript()...)
	script = append(script, kernel.Syscall{Nr: kernel.SysExit})
	task := k.StartTask(kernel.TaskSpec{Name: "top", Script: &kernel.SliceScript{Calls: script}})
	if err := k.M.Run(3_000_000_000, k.AllScriptsDone); err != nil {
		t.Fatalf("run: %v", err)
	}
	if task.State != kernel.TaskDead {
		t.Fatalf("task stuck: %v", task.State)
	}
	recovered := map[string]bool{}
	for _, ev := range rt.Log() {
		recovered[strings.SplitN(ev.Fn, "+", 2)[0]] = true
	}
	for _, want := range []string{"packet_create", "packet_bind", "packet_recvmsg"} {
		if !recovered[want] {
			t.Errorf("module function %s not recovered (log: %v)", want, recovered)
		}
	}
	// Recovered module ranges must feed amelioration as module-relative
	// ranges.
	amel, err := rt.AmelioratedView(rt.ViewIndex("top"))
	if err != nil {
		t.Fatal(err)
	}
	if amel.Ranges("af_packet").Len() == 0 {
		t.Error("ameliorated view lacks the recovered module ranges")
	}
}

func TestSymbolizeVisibleModule(t *testing.T) {
	k, rt := runtimeMachine(t, []string{"af_packet"}, DefaultOptions())
	f, ok := k.Syms.ByName("packet_create")
	if !ok || f.Addr == 0 {
		t.Fatal("packet_create not loaded")
	}
	got := rt.Symbolize(k.M.CPUs[0], f.Addr+4)
	if !strings.HasPrefix(got, "packet_create+") {
		t.Errorf("Symbolize(visible module fn) = %q", got)
	}
	// An address beyond all modules is UNKNOWN.
	if got := rt.Symbolize(k.M.CPUs[0], 0xF9000000); got != "UNKNOWN" {
		t.Errorf("Symbolize(wild module addr) = %q", got)
	}
}

func TestEnableDisableIdempotent(t *testing.T) {
	_, rt := runtimeMachine(t, nil, DefaultOptions())
	rt.Enable()
	rt.Enable()
	if !rt.enabled {
		t.Fatal("not enabled")
	}
	rt.Disable()
	rt.Disable()
	if rt.enabled {
		t.Fatal("still enabled")
	}
}

func TestAssignViewValidation(t *testing.T) {
	_, rt := runtimeMachine(t, nil, DefaultOptions())
	if err := rt.AssignView("x", 5); err == nil {
		t.Error("assigning a nonexistent view must fail")
	}
	view := kview.NewView("y")
	view.Insert(kview.BaseKernel, 0xC0100000, 0xC0100010)
	idx, err := rt.LoadView(view)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.AssignView("someapp", idx); err != nil {
		t.Fatal(err)
	}
	if rt.ViewIndex("someapp") != idx {
		t.Error("assignment not recorded")
	}
	// Assigning FullView clears the binding.
	if err := rt.AssignView("someapp", FullView); err != nil {
		t.Fatal(err)
	}
	if rt.ViewIndex("someapp") != FullView {
		t.Error("full-view assignment did not clear binding")
	}
}

func TestAmelioratedViewWithoutRecoveries(t *testing.T) {
	_, rt := runtimeMachine(t, nil, DefaultOptions())
	view := kview.NewView("z")
	view.Insert(kview.BaseKernel, 0xC0100000, 0xC0100040)
	idx, err := rt.LoadView(view)
	if err != nil {
		t.Fatal(err)
	}
	amel, err := rt.AmelioratedView(idx)
	if err != nil {
		t.Fatal(err)
	}
	if amel.App != "z" || amel.Size() != view.Size() {
		t.Errorf("no-recovery amelioration changed the view: %v", amel)
	}
	if _, err := rt.AmelioratedView(99); err == nil {
		t.Error("ameliorating a nonexistent view must fail")
	}
}

func TestViewIndexDefaultsToFull(t *testing.T) {
	_, rt := runtimeMachine(t, nil, DefaultOptions())
	if rt.ViewIndex("unprofiled-app") != FullView {
		t.Error("unknown comm must map to the full kernel view")
	}
	if rt.ViewByIndex(FullView) != nil {
		t.Error("full view has no LoadedView")
	}
	if rt.ViewByIndex(-1) != nil || rt.ViewByIndex(99) != nil {
		t.Error("out-of-range view indices must be nil")
	}
}

// TestFuncSpanSweep: for the entry byte of every base-kernel function,
// funcSpan must return a span starting exactly at the function and ending
// at (or before, with padding) the next function.
func TestFuncSpanSweep(t *testing.T) {
	k, rt := runtimeMachine(t, nil, DefaultOptions())
	funcs := k.Syms.Funcs()
	for i, f := range funcs {
		if f.Module != "" {
			continue
		}
		start, end, err := rt.funcSpan(rt.arenas[0], f.Addr, f.Addr+1, mem.KernelTextGVA, mem.KernelTextGVA+rt.textSize)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if start != f.Addr {
			t.Fatalf("%s: span start %#x != fn addr %#x", f.Name, start, f.Addr)
		}
		if end < f.End() {
			t.Fatalf("%s: span end %#x clips fn end %#x", f.Name, end, f.End())
		}
		if i+1 < len(funcs) && funcs[i+1].Module == "" && end > funcs[i+1].Addr {
			t.Fatalf("%s: span end %#x swallows next fn %s at %#x",
				f.Name, end, funcs[i+1].Name, funcs[i+1].Addr)
		}
	}
}

// passInjector is attached only to route funcSpan through its
// copied-region path: it never fails or corrupts anything.
type passInjector struct{}

func (passInjector) Fault(mem.FaultOp, uint32, int) error { return nil }
func (passInjector) Corrupt(mem.FaultOp, uint32, []byte)  {}

// TestFuncSpanInPlaceMatchesCopy: for every base-kernel and module
// function, the span scanned in place over guest memory equals the span
// scanned over a copy of the region (the path taken with an injector).
func TestFuncSpanInPlaceMatchesCopy(t *testing.T) {
	var names []string
	for _, m := range kernel.StandardModules() {
		names = append(names, m.Name)
	}
	k, rt := runtimeMachine(t, names, DefaultOptions())
	regions := map[string][2]uint32{"": {mem.KernelTextGVA, mem.KernelTextGVA + rt.textSize}}
	for _, m := range k.Modules() {
		regions[m.Name] = [2]uint32{m.Base, m.Base + m.Size}
	}
	type query struct {
		fn         string
		start, end uint32
		region     [2]uint32
	}
	var queries []query
	for _, f := range k.Syms.Funcs() {
		rg, ok := regions[f.Module]
		if !ok || f.Addr < rg[0] || f.End() > rg[1] || f.Size == 0 {
			continue
		}
		mid := f.Addr + f.Size/2
		queries = append(queries,
			query{f.Name, f.Addr, f.Addr + 1, rg},
			query{f.Name, mid, mid + 1, rg},
			query{f.Name, f.Addr, f.End(), rg})
	}
	if len(regions) != len(names)+1 || len(queries) == 0 {
		t.Fatalf("%d regions, %d queries: modules not loaded", len(regions), len(queries))
	}
	spans := func() [][2]uint32 {
		out := make([][2]uint32, len(queries))
		for i, q := range queries {
			s, e, err := rt.funcSpan(rt.arenas[0], q.start, q.end, q.region[0], q.region[1])
			if err != nil {
				t.Fatalf("%s: %v", q.fn, err)
			}
			out[i] = [2]uint32{s, e}
		}
		return out
	}
	inPlace := spans()
	rt.SetFaultInjector(passInjector{})
	copied := spans()
	if cap(rt.arenas[0].regionBuf) == 0 {
		t.Fatal("injector attached but the scan never copied a region")
	}
	for i, q := range queries {
		if inPlace[i] != copied[i] {
			t.Errorf("%s [%#x,%#x): in-place span %#x, copied span %#x", q.fn, q.start, q.end, inPlace[i], copied[i])
		}
	}
}
