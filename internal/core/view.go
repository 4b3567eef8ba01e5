package core

import (
	"fmt"
	"slices"

	"facechange/internal/isa"
	"facechange/internal/kview"
	"facechange/internal/mem"
	"facechange/internal/telemetry"
)

// LoadedView is a kernel view materialized in host memory: shadow copies
// of the guest's kernel code pages, UD2-filled except for the code loaded
// from the view configuration (Section III-B1).
//
// Shadow pages are interned in the runtime's content-addressed page cache:
// views share one physical copy of each identical page (the UD2 filler and
// any identically loaded page). A shared page is immutable; kernel code
// recovery takes a private copy first (copy-on-write, see Runtime.viewWrite).
// A migration import places each shipped COW page straight into a private
// page instead (see Runtime.ImportViewState).
type LoadedView struct {
	Name string
	Cfg  *kview.View

	// root is the view's EPT paging structure and its only GPA→HPA
	// record: the PD slots covering the base kernel text hold PTs mapping
	// every text page in [KernelTextGPA, textEnd) to its shadow page, and
	// each shadowed module page is mapped in a PT shared with kernel data,
	// which stays identity. Snapshot switching installs the root whole;
	// the legacy path copies its PD entries or PTEs into a vCPU's EPT.
	// Unload sets it to nil, so stale use fails loudly.
	root    *mem.Root
	textEnd uint32
	// mods lists the shadowed module-area GPA pages in ascending order
	// (the scattered pages switched PTE-by-PTE).
	mods []uint32
	// private marks, in Pages order, the pages the view owns outright: its
	// copy-on-write copies and a migration import's placed deltas. Every
	// other page is a cache-shared page that must not be written in place.
	private pageBits

	// LoadedBytes counts code bytes copied into the view at build time.
	LoadedBytes uint64

	// recovered accumulates the ranges filled in by kernel code recovery,
	// per space — the administrator's reference for ameliorating the
	// profiling test suite (Section III-B3).
	recovered *kview.View
}

// noteRecovered records a recovered range (absolute for the base kernel,
// module-relative otherwise).
func (v *LoadedView) noteRecovered(space string, start, end uint32) {
	if v.recovered == nil {
		v.recovered = kview.NewView(v.Name)
	}
	v.recovered.Insert(space, start, end)
}

// Recovered returns the ranges recovered into this view so far (nil if
// none).
func (v *LoadedView) Recovered() *kview.View { return v.recovered }

// Pages calls yield with every page the view shadows and the shadow HPA
// backing it, in ascending GPA order (the text, then the module pages),
// until yield returns false.
func (v *LoadedView) Pages(yield func(gpaPage, hpa uint32) bool) {
	for gpa := mem.KernelTextGPA; gpa < v.textEnd; gpa += mem.PageSize {
		if !yield(gpa, v.root.Translate(gpa)) {
			return
		}
	}
	for _, gpa := range v.mods {
		if !yield(gpa, v.root.Translate(gpa)) {
			return
		}
	}
}

// pageBits is a bitset over a view's pages, indexed in Pages order.
type pageBits []uint64

func newPageBits(n int) pageBits  { return make(pageBits, (n+63)/64) }
func (b pageBits) has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }
func (b pageBits) set(i int)      { b[i/64] |= 1 << (i % 64) }

// pageIndex returns gpaPage's position in Pages order, if the view
// shadows it: a text page's index counts from the first text page, and
// the module pages follow the ceil(textSize/PageSize) text pages.
func (v *LoadedView) pageIndex(gpaPage uint32) (int, bool) {
	if v.isText(gpaPage) {
		return int((gpaPage - mem.KernelTextGPA) / mem.PageSize), true
	}
	i, ok := slices.BinarySearch(v.mods, gpaPage)
	ntext := int((v.textEnd - mem.KernelTextGPA + mem.PageSize - 1) / mem.PageSize)
	return ntext + i, ok
}

// isPrivate reports whether the view owns gpaPage outright (a COW copy or
// a placed delta) rather than holding a cache reference to it.
func (v *LoadedView) isPrivate(gpaPage uint32) bool {
	i, ok := v.pageIndex(gpaPage)
	return ok && v.private.has(i)
}

// sharedHPA returns the cache page backing gpaPage in v, or 0 when v is
// nil, does not shadow the page or owns it privately: the hint a load
// passes to PageCache.InternHint.
func (v *LoadedView) sharedHPA(gpaPage uint32) uint32 {
	if v == nil || v.isPrivate(gpaPage) {
		return 0
	}
	hpa, _ := v.pageFor(gpaPage)
	return hpa
}

var ud2Page = buildUD2Page()

func buildUD2Page() []byte {
	p := make([]byte, mem.PageSize)
	for i := 0; i < len(p); i += 2 {
		p[i] = isa.UD2[0]
		p[i+1] = isa.UD2[1]
	}
	return p
}

// viewStage assembles a view's shadow page contents in host-side buffers
// before any page is allocated, so each finished page can be interned in
// the content-addressed cache. A page present in buf with a nil slice is
// pure UD2 filler (never written), which the canonical ud2Page represents
// without a per-view buffer.
//
// A migration import's deltas already hold the final content of their
// pages, so the stage writes nothing into them: such a page never gets a
// buffer, and step 4 of loadView places the delta instead.
//
// The runtime keeps one stage and reuses it, page buffers included, for
// every load: loads run under the runtime's mutex, and interning copies
// each staged page out before the next load resets the stage.
type viewStage struct {
	order  []uint32          // page GPAs in insertion order (deterministic)
	buf    map[uint32][]byte // GPA page → staged content; nil = pure UD2 or a delta
	deltas []PageDelta       // the load's deltas, sorted by GPA
	pages  [][]byte          // page buffers kept across loads
	used   int               // pages handed out since the last reset
}

// reset empties the stage for a new load with the given sorted deltas,
// keeping its page buffers.
func (s *viewStage) reset(deltas []PageDelta) {
	if s.buf == nil {
		s.buf = make(map[uint32][]byte)
	}
	clear(s.buf)
	s.order, s.deltas, s.used = s.order[:0], deltas, 0
}

// hasDelta reports whether gpaPage has a delta in the current load.
func (s *viewStage) hasDelta(gpaPage uint32) bool {
	if len(s.deltas) == 0 {
		return false
	}
	_, ok := slices.BinarySearchFunc(s.deltas, gpaPage, cmpDeltaGPA)
	return ok
}

func (s *viewStage) addPage(gpaPage uint32) {
	if _, ok := s.buf[gpaPage]; ok {
		return
	}
	s.buf[gpaPage] = nil
	s.order = append(s.order, gpaPage)
}

// write overlays data at gva onto the staged pages, skipping the bytes
// of pages that have a delta.
func (s *viewStage) write(name string, gva uint32, data []byte) error {
	for len(data) > 0 {
		gpaPage := mem.PageAlignDown(gpaFor(gva))
		buf, ok := s.buf[gpaPage]
		if !ok {
			return fmt.Errorf("core: view %q has no shadow page for %#x", name, gva)
		}
		off := gva & (mem.PageSize - 1)
		n := min(int(mem.PageSize-off), len(data))
		if buf == nil && !s.hasDelta(gpaPage) {
			if s.used == len(s.pages) {
				s.pages = append(s.pages, make([]byte, mem.PageSize))
			}
			buf = s.pages[s.used]
			s.used++
			copy(buf, ud2Page)
			s.buf[gpaPage] = buf
		}
		if buf != nil {
			copy(buf[off:], data[:n])
		}
		gva += uint32(n)
		data = data[n:]
	}
	return nil
}

// LoadView materializes cfg as a new kernel view and registers it under
// cfg.App, returning its index. The guest keeps running; this is the
// dynamic "hot-plug" of Section III-B4.
//
// Page contents are staged first and then interned in the runtime's page
// cache, so identical pages — the UD2 filler and identically loaded code
// pages — are shared across views instead of copied per view.
func (r *Runtime) LoadView(cfg *kview.View) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx, _, err := r.loadView(cfg, nil)
	return idx, err
}

// loadView is the mu-held implementation, shared by LoadView, the
// shared-core trap path (which builds merged views while already holding
// the runtime's mutex) and migration import. deltas, valid and sorted by
// ascending GPA (see checkDeltas), are pages whose final content is
// already known: staging writes none of their bytes, and each one the
// view shadows is placed straight into a private page instead of being
// interned. Staging still counts the bytes it skips in LoadedBytes and
// still expands ranges to whole functions, so a view's LoadedBytes does
// not depend on its deltas. It returns the view's index and how many
// deltas it placed.
func (r *Runtime) loadView(cfg *kview.View, deltas []PageDelta) (int, int, error) {
	v := &LoadedView{
		Name:    cfg.App,
		Cfg:     cfg,
		root:    mem.NewRoot(),
		textEnd: mem.KernelTextGPA + r.textSize,
	}
	stage := &r.stage
	stage.reset(deltas)
	defer func() { stage.deltas = nil }() // do not keep the image alive
	var hits0, misses0 uint64
	if r.emit != nil {
		hits0, misses0 = r.cache.HitMiss()
	}
	// 1. Shadow the whole base kernel text with UD2.
	for gpa := mem.KernelTextGPA; gpa < v.textEnd; gpa += mem.PageSize {
		stage.addPage(gpa)
	}
	ntext := len(stage.order)
	// 2. Load configured base-kernel code, expanded to whole functions.
	for _, rg := range cfg.Ranges(kview.BaseKernel) {
		if err := r.stageRange(stage, v, rg.Start, rg.End, mem.KernelTextGVA, mem.KernelTextGVA+r.textSize); err != nil {
			return 0, 0, err
		}
	}
	// 3. Shadow every guest-visible module and load configured module
	// code. Modules in the guest's list but absent from the configuration
	// stay fully UD2 — excluded code.
	mods, err := r.readModules(r.m.CPUs[0])
	if err != nil {
		return 0, 0, fmt.Errorf("core: module list: %w", err)
	}
	for _, mod := range mods {
		start := mem.PageAlignDown(mod.Base)
		end := mem.PageAlignUp(mod.Base + mod.Size)
		for gva := start; gva < end; gva += mem.PageSize {
			stage.addPage(moduleGPA(gva))
		}
		// A module's shadow covers whole pages; preserve the byte ranges
		// of the page content outside the module (other heap data) by
		// copying them from guest RAM.
		if off := mod.Base - start; off > 0 {
			if err := r.stageCopy(stage, v, start, off); err != nil {
				return 0, 0, err
			}
		}
		if tail := end - (mod.Base + mod.Size); tail > 0 {
			if err := r.stageCopy(stage, v, mod.Base+mod.Size, tail); err != nil {
				return 0, 0, err
			}
		}
		for _, rg := range cfg.Ranges(mod.Name) {
			s, e := mod.Base+rg.Start, mod.Base+rg.End
			if e > mod.Base+mod.Size {
				e = mod.Base + mod.Size
			}
			if err := r.stageRange(stage, v, s, e, mod.Base, mod.Base+mod.Size); err != nil {
				return 0, 0, err
			}
		}
	}
	// The module pages were staged after the text pages.
	v.mods = slices.Clone(stage.order[ntext:])
	slices.Sort(v.mods)
	v.private = newPageBits(len(stage.order))
	// 4. Intern every staged page: identical contents share one host page.
	// A page with a delta is the exception: it gets a private page holding
	// the delta's bytes, which is what staging and interning the page and
	// then copying it on write would leave, without the staging, the hash,
	// the intern and the copies: the delta is written once.
	//
	// Each intern is hinted with the page most likely to hold the same
	// bytes already (see hintView), and every pure-UD2 page after the
	// first with the UD2 page this load already holds. A good hint skips
	// the content hash; any hint interns the same page (InternHint).
	unwind := func(n int) {
		for _, gpa := range stage.order[:n] {
			r.releasePage(v, gpa, v.root.Translate(gpa))
		}
	}
	ref := r.hintView(cfg.App)
	var ud2 uint32 // this load's UD2 filler page, once interned
	placed := 0
	for n, gpa := range stage.order {
		if i, ok := slices.BinarySearchFunc(deltas, gpa, cmpDeltaGPA); ok {
			hpa, err := r.placeDelta(gpa, deltas[i].Data)
			if err != nil {
				unwind(n)
				return 0, 0, fmt.Errorf("core: place delta %#x: %w", gpa, err)
			}
			pi, _ := v.pageIndex(gpa)
			v.private.set(pi)
			v.root.SetPTE(gpa, hpa)
			placed++
			continue
		}
		content, hint := stage.buf[gpa], ud2
		if content != nil || hint == 0 {
			hint = ref.sharedHPA(gpa)
		}
		pureUD2 := content == nil
		if pureUD2 {
			content = ud2Page
		}
		hpa, err := r.cache.InternHint(hint, content)
		if err != nil {
			// Partial failure (cache pressure, injected intern fault) must
			// not leak the references already interned for this view.
			unwind(n)
			return 0, 0, fmt.Errorf("core: intern shadow page %#x: %w", gpa, err)
		}
		if pureUD2 {
			ud2 = hpa
		}
		v.root.SetPTE(gpa, hpa)
	}
	idx := len(r.views)
	r.views = append(r.views, v)
	r.live = append(r.live, idx)
	if cfg.App != "" {
		r.byName[cfg.App] = idx
	}
	if r.emit != nil {
		// Per-page cache events would swamp the rings (hundreds per load),
		// so the load's cache behavior streams as two aggregate events.
		cycle := r.m.Cycles()
		hits1, misses1 := r.cache.HitMiss()
		if n := hits1 - hits0; n > 0 {
			r.emit.Emit(telemetry.Event{Kind: telemetry.KindCacheHit, Cycle: cycle, View: v.Name, N: n})
		}
		if n := misses1 - misses0; n > 0 {
			r.emit.Emit(telemetry.Event{Kind: telemetry.KindCacheMiss, Cycle: cycle, View: v.Name, N: n})
		}
		r.emit.Emit(telemetry.Event{Kind: telemetry.KindViewLoad, Cycle: cycle, View: v.Name, N: uint64(idx)})
	}
	return idx, placed, nil
}

// hintView returns the live view whose pages most likely hold a new load
// of app's content: during a hot-plug the app's current view, which
// byName still names while its next generation loads; otherwise the
// newest live view (nil if none).
func (r *Runtime) hintView(app string) *LoadedView {
	if idx, ok := r.byName[app]; ok {
		return r.viewByIndex(idx)
	}
	if n := len(r.live); n > 0 {
		return r.views[r.live[n-1]]
	}
	return nil
}

// placeDelta gives a migrated page a private host page holding data, one
// page long (checkDeltas), written once by the allocation itself. The
// allocation is subject to the same injected failures as an Intern.
func (r *Runtime) placeDelta(gpaPage uint32, data []byte) (uint32, error) {
	if r.inj != nil {
		if err := r.inj.Fault(mem.FaultIntern, gpaPage, mem.PageSize); err != nil {
			return 0, err
		}
	}
	return r.m.Host.AllocPage(data), nil
}

// moduleGPA converts a module-area GVA to its GPA.
func moduleGPA(gva uint32) uint32 { return mem.ModuleGPA + (gva - mem.ModuleGVA) }

func kernelGPA(gva uint32) uint32 { return gva - mem.KernelBase }

// gpaFor maps a kernel-space GVA to its guest physical address.
func gpaFor(gva uint32) uint32 {
	if mem.IsModuleGVA(gva) {
		return moduleGPA(gva)
	}
	return kernelGPA(gva)
}

// stageRange stages the pristine guest code covering [start,end) into the
// view under construction, expanded to whole functions when
// WholeFunctionLoad is on.
func (r *Runtime) stageRange(s *viewStage, v *LoadedView, start, end, regionStart, regionEnd uint32) error {
	if r.opts.WholeFunctionLoad {
		var err error
		// Staging runs for every configured range of every load — hot-plug
		// and migration import included — on behalf of no vCPU. It borrows
		// vCPU 0's arena (callers hold mu), which the scan touches only
		// when a fault injector is attached.
		start, end, err = r.funcSpan(r.arenas[0], start, end, regionStart, regionEnd)
		if err != nil {
			return err
		}
	}
	return r.stageCopy(s, v, start, end-start)
}

// stageCopy stages n pristine bytes at guest virtual address gva (read from
// guest *physical* memory, immune to active views) into the view under
// construction, copying them straight from guest memory into the staged
// page buffers. Staging failures need no unwinding: no page has been
// interned yet, so the cache is untouched.
func (r *Runtime) stageCopy(s *viewStage, v *LoadedView, gva uint32, n uint32) error {
	src, err := r.physSlice(gpaFor(gva), int(n))
	if err != nil {
		return fmt.Errorf("core: read pristine code at %#x: %w", gva, err)
	}
	if err := s.write(v.Name, gva, src); err != nil {
		return err
	}
	v.LoadedBytes += uint64(n)
	return nil
}

// copyPhys copies n pristine bytes at guest virtual address gva into v's
// (already materialized) shadow pages — the runtime recovery path. A
// failure partway through (a COW allocation can fail under cache pressure)
// restores the span's previous shadow bytes, so the view never holds code
// the recovery bookkeeping does not record. The pristine bytes are written
// straight from guest memory, and the snapshot buffer comes from the
// caller's arena, so a steady-state recovery allocates nothing here.
func (r *Runtime) copyPhys(a *recArena, v *LoadedView, gva uint32, n uint32) error {
	src, err := r.physSlice(gpaFor(gva), int(n))
	if err != nil {
		return fmt.Errorf("core: read pristine code at %#x: %w", gva, err)
	}
	snap := arenaBytes(&a.snapBuf, int(n))
	if err := r.readShadow(v, gva, snap); err != nil {
		return fmt.Errorf("core: snapshot shadow at %#x: %w", gva, err)
	}
	if err := r.viewWrite(v, gva, src); err != nil {
		r.restoreShadow(v, gva, snap)
		return err
	}
	v.LoadedBytes += uint64(n)
	return nil
}

// readShadow fills buf with the view's current shadow bytes at gva,
// straight from host memory (no EPT, no injection).
func (r *Runtime) readShadow(v *LoadedView, gva uint32, buf []byte) error {
	return v.eachShadowPage(gva, len(buf), func(hpa uint32, off, ln int, _ uint32) error {
		return r.m.Host.Read(hpa, buf[off:off+ln])
	})
}

// restoreShadow writes snapshot bytes back over the view's private pages
// in [gva, gva+len(buf)). Cache-shared pages are skipped: they are
// immutable and a failed viewWrite never touched them. Restore targets
// only pages the failed write already privatized, so it cannot fail.
func (r *Runtime) restoreShadow(v *LoadedView, gva uint32, buf []byte) {
	_ = v.eachShadowPage(gva, len(buf), func(hpa uint32, off, ln int, gpaPage uint32) error {
		if !v.isPrivate(gpaPage) {
			return nil
		}
		return r.m.Host.Write(hpa, buf[off:off+ln])
	})
}

// eachShadowPage walks the shadow pages backing [gva, gva+n), invoking f
// with the host page, the buffer window and the page's GPA.
func (v *LoadedView) eachShadowPage(gva uint32, n int, f func(hpa uint32, off, ln int, gpaPage uint32) error) error {
	off := 0
	for n > 0 {
		gpaPage := mem.PageAlignDown(gpaFor(gva))
		hpa, ok := v.pageFor(gpaPage)
		if !ok {
			return fmt.Errorf("core: view %q has no shadow page for %#x", v.Name, gva)
		}
		pageOff := gva & (mem.PageSize - 1)
		ln := int(mem.PageSize - pageOff)
		if ln > n {
			ln = n
		}
		if err := f(hpa+pageOff, off, ln, gpaPage); err != nil {
			return err
		}
		gva += uint32(ln)
		off += ln
		n -= ln
	}
	return nil
}

// isText reports whether gpaPage is a base-kernel text page.
func (v *LoadedView) isText(gpaPage uint32) bool {
	return gpaPage >= mem.KernelTextGPA && gpaPage < v.textEnd
}

// pageFor looks up the shadow page backing gpaPage.
func (v *LoadedView) pageFor(gpaPage uint32) (hpa uint32, ok bool) {
	if _, ok := v.pageIndex(gpaPage); !ok {
		return 0, false
	}
	return v.root.Translate(gpaPage), true
}

// viewWrite stores bytes into the view's shadow pages, page by page. A
// cache-shared page is first replaced by a private copy (copy-on-write):
// other views keep the pristine shared page, and any vCPU running this
// view is remapped to the private copy before the bytes land.
func (r *Runtime) viewWrite(v *LoadedView, gva uint32, data []byte) error {
	for len(data) > 0 {
		gpaPage := mem.PageAlignDown(gpaFor(gva))
		i, ok := v.pageIndex(gpaPage)
		if !ok {
			return fmt.Errorf("core: view %q has no shadow page for %#x", v.Name, gva)
		}
		hpa := v.root.Translate(gpaPage)
		if !v.private.has(i) {
			cow, err := r.cache.Privatize(hpa)
			if err != nil {
				return fmt.Errorf("core: cow %#x: %w", gva, err)
			}
			v.private.set(i)
			// The root's PTs are live wherever the view is installed by
			// reference: the whole root under snapshot switching, the text
			// PD slots under PD-granular switching.
			v.root.SetPTE(gpaPage, cow)
			if !r.opts.SnapshotSwitch {
				r.remapLive(v, gpaPage, cow)
			}
			hpa = cow
		}
		off := gva & (mem.PageSize - 1)
		n := int(mem.PageSize - off)
		if n > len(data) {
			n = len(data)
		}
		if err := r.m.Host.Write(hpa+off, data[:n]); err != nil {
			return err
		}
		gva += uint32(n)
		data = data[n:]
	}
	return nil
}

// remapLive points every vCPU currently running the view at a page's new
// HPA on the legacy switch path. PD-granular text mappings share the
// root's PT objects and are already up to date; PTE-granular text and
// module pages were copied into the vCPU's EPT at switch time and must be
// rewritten.
func (r *Runtime) remapLive(v *LoadedView, gpaPage, hpa uint32) {
	if v.isText(gpaPage) && r.opts.PDGranularSwitch {
		return
	}
	for i, st := range r.cpus {
		if r.viewByIndex(st.active) == v {
			r.m.CPUs[i].EPT.SetPTE(gpaPage, hpa)
		}
	}
}

// covers reports whether the view shadows the page containing gva.
func (v *LoadedView) covers(gva uint32) bool {
	_, ok := v.pageFor(mem.PageAlignDown(gpaFor(gva)))
	return ok
}

// funcSpan expands [start,end) to whole-function boundaries by scanning
// pristine guest bytes for the prologue signature "55 89 E5" at
// power-of-two-aligned offsets (the paper's footnote-2 reliance on
// -falign-functions), within [regionStart, regionEnd).
// The scan reads guest memory in place (see scanRegion).
func (r *Runtime) funcSpan(a *recArena, start, end, regionStart, regionEnd uint32) (uint32, uint32, error) {
	if start < regionStart || end > regionEnd || start >= end {
		return 0, 0, fmt.Errorf("core: range [%#x,%#x) outside region [%#x,%#x)", start, end, regionStart, regionEnd)
	}
	region, err := r.scanRegion(a, gpaFor(regionStart), int(regionEnd-regionStart))
	if err != nil {
		return 0, 0, fmt.Errorf("core: read region: %w", err)
	}
	const align = 16
	// Backwards from start for a prologue.
	fnStart := start &^ (align - 1)
	for fnStart > regionStart && !isa.HasPrologueAt(region, int(fnStart-regionStart)) {
		fnStart -= align
	}
	// Forwards from end for the next function's prologue.
	fnEnd := (end + align - 1) &^ (align - 1)
	for fnEnd < regionEnd && !isa.HasPrologueAt(region, int(fnEnd-regionStart)) {
		fnEnd += align
	}
	if fnEnd > regionEnd {
		fnEnd = regionEnd
	}
	return fnStart, fnEnd, nil
}

// ViewIndex returns the view index assigned to an application name, or
// FullView if none. Safe concurrently with hot-plug (fleet pushes, the
// evolution loop's generation publishes).
func (r *Runtime) ViewIndex(app string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if idx, ok := r.byName[app]; ok {
		return idx
	}
	return FullView
}

// viewIndexBytes is ViewIndex for a comm still in byte form: the
// map-lookup-with-converted-key form compiles to a no-allocation lookup,
// keeping the context-switch trap path free of per-trap garbage.
func (r *Runtime) viewIndexBytes(app []byte) int {
	if idx, ok := r.byName[string(app)]; ok {
		return idx
	}
	return FullView
}

// ViewByIndex returns a loaded view (nil for FullView). Safe concurrently
// with hot-plug; trap-path callers that already hold mu use viewByIndex.
func (r *Runtime) ViewByIndex(idx int) *LoadedView {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.viewByIndex(idx)
}

func (r *Runtime) viewByIndex(idx int) *LoadedView {
	if idx <= FullView || idx >= len(r.views) {
		return nil
	}
	return r.views[idx]
}

// AssignView binds an application name (guest comm) to a loaded view.
func (r *Runtime) AssignView(app string, idx int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if idx != FullView && (idx <= 0 || idx >= len(r.views) || r.views[idx] == nil) {
		return fmt.Errorf("core: no view %d", idx)
	}
	if idx == FullView {
		delete(r.byName, app)
		return nil
	}
	r.byName[app] = idx
	return nil
}

// AmelioratedView returns the view's configuration merged with every range
// recovered at runtime — the paper's feedback loop: benign recoveries are
// "recorded as a reference for the administrator to ameliorate the
// profiling test suite". Loading the returned configuration in a future
// session avoids re-recovering the same code.
func (r *Runtime) AmelioratedView(idx int) (*kview.View, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.viewByIndex(idx)
	if v == nil {
		return nil, fmt.Errorf("core: no view %d", idx)
	}
	if v.recovered == nil {
		out := kview.UnionViews(v.Cfg.App, v.Cfg)
		out.App = v.Cfg.App
		return out, nil
	}
	out := kview.UnionViews(v.Cfg.App, v.Cfg, v.recovered)
	out.App = v.Cfg.App
	return out, nil
}

// UnloadView de-allocates a view's pages and reverts any vCPU using it to
// the full kernel view without interrupting the guest (Section III-B4).
// Cache-shared pages are released (freed only when no other view maps
// them); private copy-on-write pages are freed outright.
func (r *Runtime) UnloadView(idx int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.unloadView(idx)
}

// unloadView is the mu-held implementation. Unloading a view that is a
// member of shared-core merged views retires those merged views too
// (their union would otherwise keep exposing the departed application's
// kernel code).
func (r *Runtime) unloadView(idx int) error {
	v := r.viewByIndex(idx)
	if v == nil {
		return fmt.Errorf("core: no view %d", idx)
	}
	for i, cpu := range r.m.CPUs {
		if r.cpus[i].active == idx {
			// Reverting a vCPU to the pristine full view is an identity
			// restore and cannot fail, so pages are only freed below once
			// no vCPU can still reach them.
			r.switchTo(cpu, FullView)
		}
		if r.cpus[i].last == idx {
			// A deferred switch targeting this view now resolves to the
			// full view at the pending resume trap.
			r.cpus[i].last = FullView
		}
	}
	r.releasePages(v)
	// Every vCPU was reverted above, so no EPT references the root;
	// detaching it makes any stale use fail loudly instead of translating
	// through freed shadow pages.
	v.root = nil
	for name, i := range r.byName {
		if i == idx {
			delete(r.byName, name)
		}
	}
	r.views[idx] = nil
	if i, ok := slices.BinarySearch(r.live, idx); ok {
		r.live = slices.Delete(r.live, i, i+1)
	}
	if r.emit != nil {
		r.emit.Emit(telemetry.Event{Kind: telemetry.KindViewUnload, Cycle: r.m.Cycles(), View: v.Name, N: uint64(idx)})
	}
	r.retireMergedFor(idx)
	return nil
}

// releasePages drops every page reference a view holds (see releasePage).
func (r *Runtime) releasePages(v *LoadedView) {
	v.Pages(func(gpaPage, hpa uint32) bool {
		r.releasePage(v, gpaPage, hpa)
		return true
	})
}

// releasePage drops one page reference of a view: a cache-shared page is
// released (freed once the last view unmaps it), a private copy-on-write
// page is freed outright. Used by UnloadView and by LoadView's
// partial-failure unwind.
func (r *Runtime) releasePage(v *LoadedView, gpaPage, hpa uint32) {
	if v.isPrivate(gpaPage) {
		r.m.Host.FreePage(hpa)
	} else {
		r.cache.Release(hpa)
	}
}
