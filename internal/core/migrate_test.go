package core

import (
	"bytes"
	"testing"

	"facechange/internal/kernel"
	"facechange/internal/kview"
	"facechange/internal/mem"
)

// migrateRig builds a 2-vCPU runtime with one two-function view loaded and
// bound to "webapp", the minimal state a freeze has to quiesce.
func migrateRig(t *testing.T) (*kernel.Kernel, *Runtime, *LoadedView, int) {
	t.Helper()
	k, err := kernel.New(kernel.Config{Clock: kernel.ClockKVM, NCPU: 2})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Setup{Machine: k.M, Symbols: k.Syms, TextSize: k.Img.TextSize(), Opts: DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := kview.NewView("webapp")
	for _, name := range []string{"sys_getpid", "sys_write"} {
		f, ok := k.Syms.ByName(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		cfg.Insert(kview.BaseKernel, f.Addr, f.End())
	}
	idx, err := rt.LoadView(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Enable()
	return k, rt, rt.ViewByIndex(idx), idx
}

// TestFreezeThawRestoresExactly: after Freeze every vCPU is off the view
// and the name binding is gone; after Thaw the active view, the armed
// deferred switch, and the binding are all back exactly as they were.
func TestFreezeThawRestoresExactly(t *testing.T) {
	k, rt, _, idx := migrateRig(t)

	// vCPU 0 actively runs the view; vCPU 1 has a deferred switch armed at
	// it (the state resume_userspace would consume).
	if err := rt.switchTo(k.M.CPUs[0], idx); err != nil {
		t.Fatal(err)
	}
	rt.cpus[1].last = idx
	rt.cpus[1].resumeArmed = true
	rt.armResume()

	f, err := rt.FreezeApp("webapp")
	if err != nil {
		t.Fatal(err)
	}
	if f.idx != idx || len(f.apps) != 1 || f.apps[0] != "webapp" {
		t.Fatalf("frozen handle: idx=%d apps=%v", f.idx, f.apps)
	}
	if got := rt.ViewIndex("webapp"); got != FullView {
		t.Fatalf("binding survives freeze: %d", got)
	}
	if rt.cpus[0].active != FullView {
		t.Fatalf("vCPU 0 still on view %d after freeze", rt.cpus[0].active)
	}
	if rt.cpus[1].resumeArmed || rt.cpus[1].last != FullView {
		t.Fatalf("deferred switch survives freeze: armed=%v last=%d", rt.cpus[1].resumeArmed, rt.cpus[1].last)
	}
	if _, err := rt.FreezeApp("webapp"); err == nil {
		t.Fatal("second freeze of an unbound app succeeded")
	}

	if err := rt.ThawView(f); err != nil {
		t.Fatal(err)
	}
	if got := rt.ViewIndex("webapp"); got != idx {
		t.Fatalf("binding not restored: %d, want %d", got, idx)
	}
	if rt.cpus[0].active != idx {
		t.Fatalf("vCPU 0 not reinstalled: %d", rt.cpus[0].active)
	}
	if !rt.cpus[1].resumeArmed || rt.cpus[1].last != idx {
		t.Fatalf("deferred switch not re-armed: armed=%v last=%d", rt.cpus[1].resumeArmed, rt.cpus[1].last)
	}
	if err := rt.CheckSwitchState(); err != nil {
		t.Fatalf("inconsistent after thaw: %v", err)
	}

	// The lifecycle is one-way: a thawed handle cannot commit, and a second
	// thaw is an idempotent no-op.
	if err := rt.CommitMigration(f); err == nil {
		t.Fatal("commit after thaw succeeded")
	}
	if err := rt.ThawView(f); err != nil {
		t.Fatalf("second thaw: %v", err)
	}
}

// TestExportImportMovesCOWAndRecovered: COW deltas and the recovered-span
// set survive the export/import round trip onto a second runtime, the
// target reads the recovered code (not UD2 filler), and committing the
// source releases every cache reference.
func TestExportImportMovesCOWAndRecovered(t *testing.T) {
	k, rt, v, idx := migrateRig(t)

	// Recover sys_read into the view — a privatized (COW) page plus a
	// recovered-span record, exactly what OnInvalidOpcode produces.
	fn, _ := k.Syms.ByName("sys_read")
	if err := rt.copyPhys(rt.arenas[0], v, fn.Addr, fn.Size); err != nil {
		t.Fatal(err)
	}
	rec := kview.NewView("webapp")
	rec.Insert(kview.BaseKernel, fn.Addr, fn.Addr+fn.Size)
	v.recovered = rec
	if err := rt.switchTo(k.M.CPUs[0], idx); err != nil {
		t.Fatal(err)
	}

	f, err := rt.FreezeApp("webapp")
	if err != nil {
		t.Fatal(err)
	}
	st, err := rt.ExportViewState(f)
	if err != nil {
		t.Fatal(err)
	}
	wantPages := int((mem.PageAlignUp(fn.Addr+fn.Size) - mem.PageAlignDown(fn.Addr)) / mem.PageSize)
	if len(st.Deltas) != wantPages {
		t.Fatalf("%d deltas exported, want %d (only privatized pages travel)", len(st.Deltas), wantPages)
	}
	for i := 1; i < len(st.Deltas); i++ {
		if st.Deltas[i-1].GPA >= st.Deltas[i].GPA {
			t.Fatalf("deltas not ascending: %#x then %#x", st.Deltas[i-1].GPA, st.Deltas[i].GPA)
		}
	}
	if !st.Active[0] || st.Active[1] {
		t.Fatalf("active mask %v, want vCPU 0 only", st.Active)
	}

	// Import on a fresh runtime built from the same kernel image (the
	// fleet's catalog guarantee).
	k2, err := kernel.New(kernel.Config{Clock: kernel.ClockKVM, NCPU: 2})
	if err != nil {
		t.Fatal(err)
	}
	rt2, err := New(Setup{Machine: k2.M, Symbols: k2.Syms, TextSize: k2.Img.TextSize(), Opts: DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt2.ImportViewState(st)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeltasApplied != len(st.Deltas) || res.DeltasSkipped != 0 {
		t.Fatalf("applied=%d skipped=%d, want %d/0", res.DeltasApplied, res.DeltasSkipped, len(st.Deltas))
	}
	if got := rt2.ViewIndex("webapp"); got != res.Index {
		t.Fatalf("app not bound on target: %d, want %d", got, res.Index)
	}
	v2 := rt2.ViewByIndex(res.Index)
	gpaPage := mem.PageAlignDown(fn.Addr - mem.KernelBase)
	buf := make([]byte, 2)
	if err := rt2.m.Host.Read(shadowHPA(t, v2, gpaPage)+(fn.Addr-mem.KernelBase-gpaPage), buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf, []byte{ud2Page[0], ud2Page[1]}) {
		t.Error("target still reads UD2 at the recovered function")
	}
	gotRec, _ := v2.Recovered().MarshalBinary()
	wantRec, _ := rec.MarshalBinary()
	if !bytes.Equal(gotRec, wantRec) {
		t.Error("recovered-span set did not survive the move")
	}
	// The delta page privatized on import: not marked catalog-shared.
	if isShared(v2, gpaPage) {
		t.Error("COW delta page marked shared on target")
	}

	// Commit tears the source view down through the ordinary unload path;
	// with the only view gone the cache must balance to zero.
	if err := rt.CommitMigration(f); err != nil {
		t.Fatal(err)
	}
	if got := rt.ViewByIndex(idx); got != nil {
		t.Fatal("source view still loaded after commit")
	}
	if got := rt.CacheStats().DistinctPages; got != 0 {
		t.Errorf("%d cached pages leaked after commit", got)
	}
	if err := rt.CheckSwitchState(); err != nil {
		t.Fatalf("source inconsistent after commit: %v", err)
	}
	// And the committed handle cannot thaw.
	if err := rt.ThawView(f); err == nil {
		t.Fatal("thaw after commit succeeded")
	}
}

// TestImportSkipsUncoverableDeltas: a shipped delta whose GPA the target
// view does not cover counts as skipped — recorded, never misapplied.
func TestImportSkipsUncoverableDeltas(t *testing.T) {
	_, rt, v, _ := migrateRig(t)
	f, err := rt.FreezeApp("webapp")
	if err != nil {
		t.Fatal(err)
	}
	st, err := rt.ExportViewState(f)
	if err != nil {
		t.Fatal(err)
	}
	// Forge a delta far outside the view's pages (but page-aligned).
	var far uint32
	for far = 0; ; far += mem.PageSize {
		if _, ok := v.pageFor(far); !ok {
			break
		}
	}
	st.Deltas = append([]PageDelta{{GPA: far, Data: make([]byte, mem.PageSize)}}, st.Deltas...)

	k2, err := kernel.New(kernel.Config{Clock: kernel.ClockKVM})
	if err != nil {
		t.Fatal(err)
	}
	rt2, err := New(Setup{Machine: k2.M, Symbols: k2.Syms, TextSize: k2.Img.TextSize(), Opts: DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt2.ImportViewState(st)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeltasSkipped != 1 {
		t.Fatalf("skipped=%d, want 1", res.DeltasSkipped)
	}
	if res.DeltasApplied+res.DeltasSkipped != len(st.Deltas) {
		t.Fatalf("applied %d + skipped %d != %d shipped", res.DeltasApplied, res.DeltasSkipped, len(st.Deltas))
	}
	if err := rt.ThawView(f); err != nil {
		t.Fatal(err)
	}
}
