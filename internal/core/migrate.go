// Live-migration hooks on the runtime: freeze a loaded view (quiesce every
// vCPU off it and unbind its applications), export its migratable state —
// COW page deltas relative to the content-addressed catalog pages, the
// recovered-span set, and the per-vCPU switch summary — and import such a
// state on another runtime through the ordinary view load path.
//
// The split into Freeze / Export / Commit (or Thaw) is the source half of
// the two-phase cutover: a migration that times out or is refused after
// Freeze calls Thaw and the source is exactly as before; only an
// acknowledged transfer calls Commit, which tears the view down through
// the ordinary unload path (releasing cache refs and freeing private
// pages).
package core

import (
	"cmp"
	"fmt"

	"facechange/internal/kview"
	"facechange/internal/mem"
)

// PageDelta is one privatized (copy-on-write) shadow page of a view: a
// page whose content diverged from the interned catalog page through
// kernel code recovery. Deltas are the only page content a migration
// ships — everything else re-assembles from chunks the target already
// mirrors.
type PageDelta struct {
	GPA  uint32
	Data []byte // exactly mem.PageSize bytes
}

// ViewState is a view's migratable checkpoint, produced by ExportViewState
// on a frozen view and consumed by ImportViewState on the target runtime.
//
// An exported state does not own its page bytes: each delta's Data
// aliases the frozen view's private page in host memory. It is valid
// until the view is committed or thawed, so encode it — or copy what must
// outlive the decision — before calling CommitMigration or ThawView.
// After a commit the pages are freed but not cleared: a delta used then
// reads the page's old bytes, and whatever its next owner writes once the
// page is reused. After a thaw, recovery may write the pages again.
type ViewState struct {
	App string
	// Cfg is the view configuration (the catalog content). The wire image
	// carries only its content digest; the fleet layer reattaches the
	// configuration from the target's own chunk store.
	Cfg *kview.View
	// Recovered is the view's recovered-span set (nil if nothing was
	// recovered), carried verbatim so the target's amelioration reference
	// and lazy-recovery bookkeeping survive the move.
	Recovered *kview.View
	// Deltas are the COW pages, sorted by ascending GPA. From
	// ExportViewState, each Data aliases a private page of the frozen
	// view (see the lifetime rule above); ImportViewState only reads
	// them and retains none.
	Deltas []PageDelta
	// Active and Deferred summarize the per-vCPU switch state at freeze
	// time: Active[i] means vCPU i was running the view, Deferred[i] means
	// a deferred switch (armed resume trap) targeted it. Indexed by source
	// vCPU; the target does not replay them onto its own vCPUs — the view
	// installs through ordinary context-switch traps once the app runs —
	// but the summary travels so fidelity is checkable end to end.
	Active   []bool
	Deferred []bool
}

// FrozenView is the source-side handle between Freeze and Commit/Thaw.
type FrozenView struct {
	idx  int
	view *LoadedView
	// apps are the byName bindings that pointed at the view (removed at
	// freeze, restored by Thaw).
	apps []string
	// activeCPUs / deferredCPUs are the vCPU IDs whose state Freeze
	// reverted (restored by Thaw).
	activeCPUs   []int
	deferredCPUs []int
	committed    bool
	thawed       bool
}

// FreezeApp quiesces the view bound to an application name for migration:
// every vCPU running it reverts to the full kernel view (an infallible
// identity restore), pending deferred switches targeting it resolve to the
// full view, and the name bindings are removed so new context switches no
// longer install it. The guest keeps running — the application degrades to
// the full view until Thaw or until it resumes on the target.
func (r *Runtime) FreezeApp(app string) (*FrozenView, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx, ok := r.byName[app]
	if !ok || idx == FullView {
		return nil, fmt.Errorf("core: no view bound to app %q", app)
	}
	return r.freezeView(idx)
}

// FreezeView is FreezeApp by view index.
func (r *Runtime) FreezeView(idx int) (*FrozenView, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.freezeView(idx)
}

func (r *Runtime) freezeView(idx int) (*FrozenView, error) {
	v := r.viewByIndex(idx)
	if v == nil {
		return nil, fmt.Errorf("core: no view %d", idx)
	}
	f := &FrozenView{idx: idx, view: v}
	for i, cpu := range r.m.CPUs {
		st := r.cpus[i]
		if st.active == idx {
			f.activeCPUs = append(f.activeCPUs, i)
			// Reverting to the full view is an identity restore and cannot
			// fail, so a freeze never leaves a vCPU half-mapped.
			r.switchTo(cpu, FullView)
		}
		if st.resumeArmed && st.last == idx {
			f.deferredCPUs = append(f.deferredCPUs, i)
			st.resumeArmed = false
			r.disarmResume()
			st.last = FullView
		} else if st.last == idx {
			// A stale (unarmed) deferred target must not dangle once the
			// view is torn down.
			st.last = FullView
		}
	}
	for name, i := range r.byName {
		if i == idx {
			f.apps = append(f.apps, name)
			delete(r.byName, name)
		}
	}
	return f, nil
}

// ThawView aborts a migration after Freeze: name bindings come back and
// the vCPUs Freeze reverted are restored (active views reinstalled,
// deferred switches re-armed). Used by the abort-on-timeout path — after a
// thaw the source is exactly as before the freeze.
func (r *Runtime) ThawView(f *FrozenView) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f.committed {
		return fmt.Errorf("core: view %d already committed", f.idx)
	}
	if f.thawed {
		return nil
	}
	if r.viewByIndex(f.idx) != f.view {
		return fmt.Errorf("core: frozen view %d no longer loaded", f.idx)
	}
	for _, name := range f.apps {
		r.byName[name] = f.idx
	}
	for _, i := range f.deferredCPUs {
		st := r.cpus[i]
		if !st.resumeArmed {
			st.resumeArmed = true
			r.armResume()
		}
		st.last = f.idx
	}
	var firstErr error
	for _, i := range f.activeCPUs {
		// Reinstalling a custom view is fallible (injected EPT faults); the
		// fallback leaves the vCPU on the full view, which is consistent —
		// the app just pays a recovery-free full view until its next switch.
		if err := r.switchTo(r.m.CPUs[i], f.idx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	f.thawed = true
	return firstErr
}

// CommitMigration finishes the source side after the target acknowledged
// the import: the frozen view unloads through the ordinary path, releasing
// its cache-shared refs and freeing its private COW pages.
func (r *Runtime) CommitMigration(f *FrozenView) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f.thawed {
		return fmt.Errorf("core: view %d was thawed", f.idx)
	}
	if f.committed {
		return nil
	}
	if r.viewByIndex(f.idx) != f.view {
		return fmt.Errorf("core: frozen view %d no longer loaded", f.idx)
	}
	f.committed = true
	return r.unloadView(f.idx)
}

// ExportViewState checkpoints a frozen view's migratable state: the COW
// page deltas (live views of the view's private pages, valid until commit
// or thaw), the recovered-span set, and the per-vCPU switch summary
// recorded at freeze time.
func (r *Runtime) ExportViewState(f *FrozenView) (*ViewState, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.viewByIndex(f.idx) != f.view {
		return nil, fmt.Errorf("core: frozen view %d no longer loaded", f.idx)
	}
	v := f.view
	st := &ViewState{
		App:      v.Name,
		Cfg:      v.Cfg,
		Active:   make([]bool, len(r.cpus)),
		Deferred: make([]bool, len(r.cpus)),
	}
	for _, i := range f.activeCPUs {
		st.Active[i] = true
	}
	for _, i := range f.deferredCPUs {
		st.Deferred[i] = true
	}
	if v.recovered != nil {
		st.Recovered = kview.UnionViews(v.recovered.App, v.recovered)
		st.Recovered.App = v.recovered.App
	}
	var err error
	v.Pages(func(gpa, hpa uint32) bool {
		if !v.isPrivate(gpa) {
			return true // interned catalog content; never travels
		}
		var data []byte
		if data, err = r.m.Host.Slice(hpa, mem.PageSize); err != nil {
			err = fmt.Errorf("core: export delta %#x: %w", gpa, err)
			return false
		}
		st.Deltas = append(st.Deltas, PageDelta{GPA: gpa, Data: data})
		return true
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// ImportResult reports what ImportViewState materialized.
type ImportResult struct {
	// Index is the imported view's index on the target runtime.
	Index int
	// DeltasApplied counts COW pages written into the fresh view.
	DeltasApplied int
	// DeltasSkipped counts shipped deltas the target could not place (a
	// shadow page the target's module layout does not cover). The spans
	// stay recorded in the recovered set, so the target's ordinary lazy
	// recovery re-interns them on first execution — re-derived, not lost.
	DeltasSkipped int
}

// ImportViewState restores an exported view state on this runtime: the
// view materializes through the ordinary content-addressed load path
// (sharing every interned catalog page already resident), except that each
// shipped COW delta the view shadows is written once, straight into a
// private page, instead of being interned and then copied on write. The
// recovered-span set reattaches. The application name binds to the new
// view; it installs on vCPUs through ordinary context-switch traps once
// the guest schedules the app.
//
// The deltas are checked before any page is allocated: each must be one
// page long and page aligned, with GPAs strictly ascending.
func (r *Runtime) ImportViewState(st *ViewState) (*ImportResult, error) {
	if st.Cfg == nil {
		return nil, fmt.Errorf("core: import: nil view config")
	}
	if err := checkDeltas(st.Deltas); err != nil {
		return nil, fmt.Errorf("core: import %q: %w", st.App, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	idx, placed, err := r.loadView(st.Cfg, st.Deltas)
	if err != nil {
		return nil, fmt.Errorf("core: import %q: %w", st.App, err)
	}
	v := r.views[idx]
	res := &ImportResult{Index: idx, DeltasApplied: placed, DeltasSkipped: len(st.Deltas) - placed}
	if st.Recovered != nil {
		rec := kview.UnionViews(st.Recovered.App, st.Recovered)
		rec.App = st.Recovered.App
		v.recovered = rec
	}
	if st.App != "" && st.App != st.Cfg.App {
		r.byName[st.App] = idx
	}
	return res, nil
}

// checkDeltas validates shipped deltas: one page each, page-aligned GPAs,
// strictly ascending.
func checkDeltas(deltas []PageDelta) error {
	for i, d := range deltas {
		if len(d.Data) != mem.PageSize {
			return fmt.Errorf("delta %#x is %d bytes, want %d", d.GPA, len(d.Data), mem.PageSize)
		}
		if d.GPA%mem.PageSize != 0 {
			return fmt.Errorf("delta GPA %#x not page aligned", d.GPA)
		}
		if i > 0 && d.GPA <= deltas[i-1].GPA {
			return fmt.Errorf("deltas not strictly ascending at %#x", d.GPA)
		}
	}
	return nil
}

func cmpDeltaGPA(d PageDelta, gpa uint32) int { return cmp.Compare(d.GPA, gpa) }
