// Package core implements FACE-CHANGE's runtime phase (Section III-B): the
// hypervisor component that builds per-application kernel views (shadow
// copies of the guest's kernel code pages with excluded code replaced by
// UD2), switches EPT mappings at guest context switches, and recovers
// missing kernel code — with attack-provenance backtraces — when a process
// executes outside its view.
//
// The runtime is strictly hypervisor-side: it learns about the guest only
// through VMI reads of guest memory (current task, rq->curr, the module
// list), a System.map-style symbol table, and the two trap addresses
// (context_switch, resume_userspace), mirroring the paper's KVM prototype.
package core

import (
	"fmt"
	"strings"
	"sync"

	"facechange/internal/hv"
	"facechange/internal/kernel"
	"facechange/internal/kview"
	"facechange/internal/mem"
	"facechange/internal/telemetry"
)

// FullView is the reserved index of the full kernel view (no restriction).
const FullView = 0

// Options toggle the design choices of Section III-B. The defaults are the
// paper's configuration; the ablation benchmarks flip them individually.
type Options struct {
	// SwitchAtResume defers custom-view switching from the context-switch
	// trap to the resume-userspace trap, the I/O-preserving optimization
	// of Section III-B2. Disabled, views switch immediately at
	// context_switch.
	SwitchAtResume bool
	// SameViewElision skips the switch when the previous and next process
	// use the same kernel view.
	SameViewElision bool
	// InstantRecovery recovers callers whose return site misparses as
	// "0B 0F" during backtraces (Section III-B3). Disabled, such returns
	// silently corrupt execution.
	InstantRecovery bool
	// WholeFunctionLoad expands profiled basic blocks to whole kernel
	// functions when loading views (Section III-B1's relaxation).
	// Disabled, only the profiled byte ranges are loaded.
	WholeFunctionLoad bool
	// PDGranularSwitch swaps base-kernel views at EPT page-directory
	// granularity; disabled, every text page is remapped individually.
	// Ignored under SnapshotSwitch, which rewrites no entries at all.
	PDGranularSwitch bool
	// SnapshotSwitch installs a precomputed per-view EPT root with a single
	// pointer swap (the VMFUNC/EPTP-style fast path) instead of rewriting
	// PD/PTE entries at every switch. Off by default: the paper's prototype
	// rewrites entries, and the EPT-granularity ablation measures exactly
	// that, so the legacy path stays the reference configuration.
	SnapshotSwitch bool
	// SharedCore merges the views of applications co-scheduled on one vCPU
	// into a union view (the eval.sharedcore ablation graduated into a
	// runtime policy): once a vCPU runs under a merged view covering the
	// incoming task's view, quantum-frequency switching elides entirely.
	// Merged views are built through the ordinary load path — interned in
	// the content-addressed cache and refcounted like any view — and are
	// retired when a member unloads. Detection attribution is unaffected:
	// recovery/trap events carry the faulting task's comm, not the
	// installed view's member set. The trade is precision for switch rate —
	// a merged view exposes the union of its members' kernel code to each
	// of them. Off by default.
	SharedCore bool
	// SharedCoreAdaptive makes the shared-core policy earn its merges
	// instead of merging on first contact. A vCPU merges only above a
	// switch-rate threshold: the incoming task joins the member set only
	// after sharedCoreRateThreshold would-switch decisions landed within
	// SharedCoreRateWindow cycles on that vCPU — a core that switches
	// rarely keeps precise per-app views and only a quantum-frequency
	// ping-pong pays the union's exposure. It also arms the suspect
	// split: SplitShared retires every union containing a suspect view
	// and deny-lists it from future merges, so detection verdicts narrow
	// exposure back down at runtime. Ignored unless SharedCore is set.
	SharedCoreAdaptive bool
	// SharedCoreRateWindow overrides the adaptive policy's cycle window
	// (default DefaultSharedCoreRateWindow). Smaller windows demand a
	// hotter core before merging.
	SharedCoreRateWindow uint64
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options {
	return Options{
		SwitchAtResume:    true,
		SameViewElision:   true,
		InstantRecovery:   true,
		WholeFunctionLoad: true,
		PDGranularSwitch:  true,
	}
}

// FastOptions returns the paper's configuration with snapshot switching
// enabled — O(1) view switches via precomputed per-view EPT roots.
func FastOptions() Options {
	o := DefaultOptions()
	o.SnapshotSwitch = true
	return o
}

// Setup wires the runtime to a machine.
type Setup struct {
	Machine *hv.Machine
	// Symbols is the guest kernel's System.map equivalent, used for the
	// two trap addresses and for provenance symbolization.
	Symbols *kernel.SymbolTable
	// TextSize is the size of the guest's base kernel code section.
	TextSize uint32
	Opts     Options
}

type cpuViewState struct {
	active      int
	last        int
	resumeArmed bool
	// scStamps is the adaptive shared-core switch-pressure window: the
	// cycle stamps of this vCPU's most recent would-switch decisions, a
	// fixed circular buffer so the trap path never allocates. scPos is
	// the next slot (and, once filled, the oldest stamp); scFilled counts
	// occupied slots until the buffer wraps for the first time.
	scStamps [sharedCoreRateThreshold]uint64
	scPos    int
	scFilled int
}

// Runtime is the FACE-CHANGE hypervisor component.
type Runtime struct {
	// mu serializes the mutating entry points (traps, hotplug, enable/
	// disable, symbolization): on a multi-vCPU host, exits from different
	// vCPUs reach the runtime concurrently, and all of them touch shared
	// state — view tables, the page cache's view-side maps, the views'
	// EPT roots, the recovery log. Read-only inspection helpers are
	// left unlocked and are only meaningful on a quiescent runtime.
	mu sync.Mutex

	m        *hv.Machine
	syms     *kernel.SymbolTable
	opts     Options
	textSize uint32

	kernelAS *mem.AddressSpace

	// vmiAccs holds one prebuilt VMI accessor per vCPU. Building the
	// accessor on demand boxes a three-field struct into an interface at
	// every trap — a per-trap heap allocation on the hottest path. The
	// accessors are rebuilt when the injector changes (SetFaultInjector).
	vmiAccs []mem.Access
	// commScratch is the VMI comm read buffer, reused across traps (all
	// readers hold mu). A per-trap make([]byte, ...) would otherwise be
	// the context-switch path's only allocation.
	commScratch [kernel.VMICommLen]byte
	// pdBases are the PD-slot base GPAs covering the kernel text: they
	// never change after setup, and the legacy switch path walks them on
	// every committed switch.
	pdBases []uint32

	ctxSwitchAddr uint32
	resumeAddr    uint32

	views  []*LoadedView // index 0 is the full view (nil)
	live   []int         // indices of the loaded views, ascending
	byName map[string]int

	// mergedIdx maps a shared-core member-set key (sorted base view
	// indices) to the merged union view's index; mergedOf is the reverse:
	// merged view index → sorted member base indices. Both are empty
	// unless Options.SharedCore built merged views.
	mergedIdx map[string]int
	mergedOf  map[int][]int
	// scSingle avoids a per-trap slice allocation when the active view is
	// a base (non-merged) view acting as its own singleton member set.
	scSingle [1]int
	// scKey is the member-set key scratch, reused across traps (mu held).
	scKey []byte
	// scDeny is the shared-core deny-list: view indices a suspect verdict
	// split out of merging (SplitShared). A denied view runs under its
	// own precise view and never joins a union again; indices are never
	// reused within a runtime, so entries cannot alias a later view. A
	// reloaded view gets a fresh index and starts clean.
	scDeny map[int]bool
	// scRateWindow is the resolved adaptive window in cycles.
	scRateWindow uint64

	// cache interns shadow pages by content so identical pages (UD2
	// filler, shared loaded code) are stored once across views.
	cache *mem.PageCache
	// stage is the view staging area every load reuses (mu held).
	stage viewStage

	// inj, when non-nil, injects faults into the runtime's guest-memory
	// channels and EPT updates (the simulator's hook; nil in production).
	inj mem.FaultInjector

	// modCache holds the guest module list between VMI walks. A cached
	// list is revalidated by a one-read count probe on every use; any walk
	// that replaces it clears symCache, dropping symbolizations derived
	// from the superseded list.
	modCache   []vmiModule
	modCacheOK bool

	// symCache memoizes Symbolize results by address, bounded by
	// symCacheMax (cleared wholesale when full or when the module list
	// changes), so trap storms do not re-resolve the same frames per
	// backtrace.
	symCache map[uint32]string

	// arenas holds one recovery-scratch arena per vCPU (backtrace frames,
	// instant-recovery addresses, copy and prologue-scan buffers), so a
	// steady-state UD2 trap reuses grown buffers instead of allocating.
	arenas []*recArena
	// commIntern memoizes comm-bytes → string conversions: trap storms
	// revolve around few task names, and interning makes the conversion on
	// the recovery path allocation-free after first sight. Bounded like
	// symCache (cleared wholesale at the cap).
	commIntern map[string]string

	cpus           []*cpuViewState
	resumeTrapRefs int

	enabled bool

	// irqEntry are the System.map ranges whose presence in a backtrace
	// marks interrupt context (Section III-B3 case i).
	irqEntry []kview.Range

	log []Event

	// emit, when non-nil, streams runtime events (switches, UD2 traps,
	// recoveries, view hotplug, cache behavior) into the telemetry
	// pipeline. Every instrumentation site is guarded by a nil check, so
	// the default (nil) configuration pays one predictable branch and
	// constructs nothing.
	emit telemetry.Emitter

	// Counters.
	Recoveries          uint64
	InstantRecoveries   uint64
	InterruptRecoveries uint64
	ViewSwitches        uint64
	// ElidedSwitches counts switch decisions skipped because the target
	// view was already installed (same-view elision, including shared-core
	// coverage). Each increment pairs with one KindElidedSwitch event when
	// an emitter is attached.
	ElidedSwitches uint64
	// MergedViewLoads counts shared-core union views built (cumulative; a
	// merged view retired on member unload is rebuilt on demand and counts
	// again). Zero unless Options.SharedCore.
	MergedViewLoads uint64
	// MergedViewSplits counts shared-core union views retired by the
	// suspect-split path (SplitShared). Zero unless the adaptive policy's
	// split API fired.
	MergedViewSplits uint64
}

// New attaches a FACE-CHANGE runtime to the machine. The runtime starts
// disabled; call Enable.
func New(s Setup) (*Runtime, error) {
	if s.Machine == nil || s.Symbols == nil || s.TextSize == 0 {
		return nil, fmt.Errorf("core: incomplete setup")
	}
	r := &Runtime{
		m:          s.Machine,
		syms:       s.Symbols,
		opts:       s.Opts,
		textSize:   s.TextSize,
		kernelAS:   mem.NewAddressSpace(),
		views:      []*LoadedView{nil},
		byName:     make(map[string]int),
		symCache:   make(map[uint32]string),
		commIntern: make(map[string]string),
		mergedIdx:  make(map[string]int),
		mergedOf:   make(map[int][]int),
		scDeny:     make(map[int]bool),
		cache:      mem.NewPageCache(s.Machine.Host),
	}
	r.scRateWindow = s.Opts.SharedCoreRateWindow
	if r.scRateWindow == 0 {
		r.scRateWindow = DefaultSharedCoreRateWindow
	}
	r.ctxSwitchAddr = s.Symbols.MustAddr("context_switch")
	r.resumeAddr = s.Symbols.MustAddr("resume_userspace")
	for _, name := range []string{"common_interrupt", "do_IRQ", "handle_irq", "ret_from_intr"} {
		if f, ok := s.Symbols.ByName(name); ok {
			r.irqEntry = append(r.irqEntry, kview.Range{Start: f.Addr, End: f.End()})
		}
	}
	for range s.Machine.CPUs {
		r.cpus = append(r.cpus, &cpuViewState{active: FullView, last: FullView})
		r.arenas = append(r.arenas, &recArena{})
	}
	start := mem.KernelTextGPA &^ (mem.PDSpan - 1)
	for base := start; base < mem.KernelTextGPA+r.textSize; base += mem.PDSpan {
		r.pdBases = append(r.pdBases, base)
	}
	r.rebuildVMIAccs()
	s.Machine.SetExitHandler(r)
	return r, nil
}

// rebuildVMIAccs rebuilds the per-vCPU VMI accessors (after construction
// or an injector change).
func (r *Runtime) rebuildVMIAccs() {
	r.vmiAccs = make([]mem.Access, len(r.m.CPUs))
	for i, cpu := range r.m.CPUs {
		acc := mem.Accessor{AS: r.kernelAS, EPT: cpu.EPT, Host: r.m.Host}
		r.vmiAccs[i] = mem.WrapAccess(acc, mem.FaultVMIRead, r.inj)
	}
}

// Enable arms the context-switch trap: from now on every guest context
// switch is intercepted.
func (r *Runtime) Enable() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.enabled {
		return
	}
	r.m.TrapOnAddr(r.ctxSwitchAddr)
	r.enabled = true
}

// Disable stops interception and restores the full kernel view on every
// vCPU without interrupting the guest (Section III-B4).
func (r *Runtime) Disable() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.enabled {
		return
	}
	r.m.ClearTrap(r.ctxSwitchAddr)
	for r.resumeTrapRefs > 0 {
		r.disarmResume()
	}
	for i, cpu := range r.m.CPUs {
		// Restoring the full view never consults the injector and cannot
		// fail; every vCPU lands on pristine mappings.
		r.switchTo(cpu, FullView)
		r.cpus[i].last = FullView
		// A pending deferred switch would otherwise leave resumeArmed set
		// with the shared breakpoint refcount already drained.
		r.cpus[i].resumeArmed = false
	}
	r.enabled = false
}

// CacheStats reports the shadow-page cache's dedup state: distinct pages
// stored, page mappings served without a copy, and bytes saved.
func (r *Runtime) CacheStats() mem.CacheStats { return r.cache.Stats() }

// Cache exposes the shadow-page cache (for pressure knobs and invariant
// checks; the simulator uses it, production code should not).
func (r *Runtime) Cache() *mem.PageCache { return r.cache }

// SetEmitter attaches a telemetry emitter to every instrumentation site;
// passing nil detaches (the default, with ~zero overhead). Emit is called
// with the runtime's mutex held, so emitters must be cheap and
// non-blocking — telemetry.Hub's ring push satisfies this.
func (r *Runtime) SetEmitter(e telemetry.Emitter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.emit = e
}

// SetFaultInjector attaches a fault injector to every injectable runtime
// channel: VMI reads, backtrace stack reads, pristine physical reads, the
// prologue scan, EPT remaps and cache interning. Passing nil detaches.
func (r *Runtime) SetFaultInjector(inj mem.FaultInjector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.inj = inj
	r.cache.SetFaultInjector(inj)
	r.rebuildVMIAccs()
}

func (r *Runtime) armResume() {
	if r.resumeTrapRefs == 0 {
		r.m.TrapOnAddr(r.resumeAddr)
	}
	r.resumeTrapRefs++
}

func (r *Runtime) disarmResume() {
	if r.resumeTrapRefs == 0 {
		return
	}
	r.resumeTrapRefs--
	if r.resumeTrapRefs == 0 {
		r.m.ClearTrap(r.resumeAddr)
	}
}

// vmiAcc returns the accessor that reads guest virtual memory exactly as
// the given vCPU would (through its EPT) — the runtime's VMI channel.
// With an injector attached, VMI reads can fail or return corrupt bytes.
func (r *Runtime) vmiAcc(cpu *hv.CPU) mem.Access {
	return r.vmiAccs[cpu.ID]
}

// physSlice returns n pristine guest-physical bytes at gpa (the channel
// that feeds shadow-page contents) as a read-only live view of guest
// memory, subject to injected failures. Content reads are never corrupted — see
// mem.FaultPhysRead — so anything that lands in a view is byte-faithful
// to the pristine kernel.
func (r *Runtime) physSlice(gpa uint32, n int) ([]byte, error) {
	if r.inj != nil {
		if err := r.inj.Fault(mem.FaultPhysRead, gpa, n); err != nil {
			return nil, err
		}
	}
	return r.m.Host.ReadSlice(gpa, n)
}

// scanRegion returns the n pristine bytes at gpa that back funcSpan's
// prologue scan. With no injector attached it is a live view of guest
// memory, so the scan costs what it inspects, not the region's size. With
// one attached the region is copied into the arena first: injected
// corruption makes funcSpan miss prologues and widen spans — a behavioral
// fault the runtime must absorb without corrupting content — and must
// land on the copy, never on guest memory.
func (r *Runtime) scanRegion(a *recArena, gpa uint32, n int) ([]byte, error) {
	if r.inj == nil {
		return r.m.Host.ReadSlice(gpa, n)
	}
	if err := r.inj.Fault(mem.FaultScanRead, gpa, n); err != nil {
		return nil, err
	}
	buf := arenaBytes(&a.regionBuf, n)
	if err := r.m.Host.Read(gpa, buf); err != nil {
		return nil, err
	}
	r.inj.Corrupt(mem.FaultScanRead, gpa, buf)
	return buf, nil
}

// readRQCurrBytes reads the incoming task's pid and comm via VMI at a
// context-switch trap. The comm bytes alias r.commScratch and are only
// valid until the next VMI read (callers hold mu, so the scratch cannot
// be overwritten concurrently). The switch path consumes the bytes
// directly — converting to string would put one allocation on every
// context switch.
func (r *Runtime) readRQCurrBytes(cpu *hv.CPU) (pid int, comm []byte, err error) {
	acc := r.vmiAccs[cpu.ID]
	r.m.Charge(3 * r.m.Cost.VMIRead)
	ptr, err := acc.ReadU32(kernel.VMIRQCurrBase + uint32(cpu.ID)*4)
	if err != nil {
		return 0, nil, fmt.Errorf("core: vmi rq->curr: %w", err)
	}
	p, err := acc.ReadU32(ptr + kernel.VMITaskPIDOff)
	if err != nil {
		return 0, nil, fmt.Errorf("core: vmi pid: %w", err)
	}
	buf := r.commScratch[:]
	if err := acc.Read(ptr+kernel.VMITaskCommOff, buf); err != nil {
		return 0, nil, fmt.Errorf("core: vmi comm: %w", err)
	}
	n := 0
	for n < len(buf) && buf[n] != 0 {
		n++
	}
	return int(p), buf[:n], nil
}

// commInternMax bounds the comm intern table (same wholesale-clear policy
// as the symbol cache: the working set of task names is tiny).
const commInternMax = 1024

// internComm converts comm bytes to a string without allocating in steady
// state: the map-lookup-with-converted-key form compiles to a
// no-allocation lookup, so only a comm's first sighting pays the copy.
func (r *Runtime) internComm(b []byte) string {
	if s, ok := r.commIntern[string(b)]; ok {
		return s
	}
	if len(r.commIntern) >= commInternMax {
		clear(r.commIntern)
	}
	s := string(b)
	r.commIntern[s] = s
	return s
}

// vmiModule is a module-list entry read from guest memory.
type vmiModule struct {
	Name string
	Base uint32
	Size uint32
}

// readModules returns the guest's module list. A list cached from an
// earlier walk is served after a single-read count probe confirms the
// guest's entry count still matches — module churn changes the count and
// forces a fresh walk, and embedders that know about churn can force one
// with InvalidateModuleCache. Only a mismatch (or an explicit
// invalidation) pays the full VMI traversal of Section III-B1 ("we
// traverse the kernel's module list to identify the loading addresses");
// previously every module-space UD2 trap paid it.
func (r *Runtime) readModules(cpu *hv.CPU) ([]vmiModule, error) {
	acc := r.vmiAcc(cpu)
	count, err := acc.ReadU32(kernel.VMIModCountAddr)
	if err != nil {
		r.invalidateModules()
		return nil, fmt.Errorf("core: vmi module count: %w", err)
	}
	if r.modCacheOK && count == uint32(len(r.modCache)) {
		r.m.Charge(r.m.Cost.VMIRead) // the probe is the only read paid
		return r.modCache, nil
	}
	mods, err := r.walkModules(acc, count)
	if err != nil {
		r.invalidateModules()
		return nil, err
	}
	r.modCache, r.modCacheOK = mods, true
	clear(r.symCache) // symbolizations of the superseded list are stale
	return mods, nil
}

// walkModules performs the full VMI traversal of the guest module list.
func (r *Runtime) walkModules(acc mem.Access, count uint32) ([]vmiModule, error) {
	r.m.Charge(uint64(1+3*count) * r.m.Cost.VMIRead)
	if count > 1024 {
		return nil, fmt.Errorf("core: implausible module count %d", count)
	}
	mods := make([]vmiModule, 0, count)
	for i := uint32(0); i < count; i++ {
		base := kernel.VMIModListBase + i*kernel.VMIModStride
		b, err := acc.ReadU32(base)
		if err != nil {
			return nil, err
		}
		sz, err := acc.ReadU32(base + 4)
		if err != nil {
			return nil, err
		}
		nameBuf := make([]byte, kernel.VMIModNameLen)
		if err := acc.Read(base+8, nameBuf); err != nil {
			return nil, err
		}
		// The module list is untrusted guest data (and, under the
		// simulator, subject to injected corruption): an entry that does
		// not describe a sane module-area range would otherwise send
		// LoadView staging pages across the whole address space.
		if sz == 0 || !mem.IsModuleGVA(b) || !mem.IsModuleGVA(b+sz-1) {
			return nil, fmt.Errorf("core: implausible module entry %d: [%#x,%#x)", i, b, b+sz)
		}
		mods = append(mods, vmiModule{
			Name: strings.TrimRight(string(nameBuf), "\x00"),
			Base: b,
			Size: sz,
		})
	}
	return mods, nil
}

// InvalidateModuleCache drops the cached guest module list and clears
// module-derived symbolizations. Embedders call it when they know the
// guest loaded, unloaded or hid a module; the runtime also detects churn
// on its own whenever the guest's module count changes (the probe in
// readModules), so the explicit call only matters for same-count list
// rewrites between two reads.
func (r *Runtime) InvalidateModuleCache() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.invalidateModules()
}

func (r *Runtime) invalidateModules() {
	r.modCache, r.modCacheOK = nil, false
	clear(r.symCache)
}

// symCacheMax bounds the symbolization cache; at the cap the whole cache
// is dropped (trap storms revolve around few addresses, so a fancy
// eviction buys nothing over wholesale clearing).
const symCacheMax = 4096

func (r *Runtime) cacheSym(addr uint32, s string) {
	if len(r.symCache) >= symCacheMax {
		clear(r.symCache)
	}
	r.symCache[addr] = s
}

// Symbolize renders an address the way the paper's recovery logs do,
// trusting only System.map and the guest-visible module list. Code in a
// hidden module symbolizes as UNKNOWN — the Figure 5 signature.
func (r *Runtime) Symbolize(cpu *hv.CPU, addr uint32) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.symbolize(cpu, addr)
}

// symbolize is the locked-context implementation. Results are memoized:
// text symbolizations are immutable; module symbolizations are only
// consulted after readModules revalidates the module list (a list change
// clears the cache), so a cached module symbol is
// never served across guest module churn.
func (r *Runtime) symbolize(cpu *hv.CPU, addr uint32) string {
	if addr >= mem.KernelTextGVA && addr < mem.KernelTextGVA+r.textSize {
		if s, ok := r.symCache[addr]; ok {
			return s
		}
		s := "UNKNOWN"
		if f, ok := r.syms.ByAddr(addr); ok && f.Module == "" {
			s = fmt.Sprintf("%s+0x%x", f.Name, addr-f.Addr)
		}
		r.cacheSym(addr, s)
		return s
	}
	if mem.IsModuleGVA(addr) {
		mods, err := r.readModules(cpu)
		if err != nil {
			// A transient VMI failure is not a resolution; never cache it.
			return "UNKNOWN"
		}
		if s, ok := r.symCache[addr]; ok {
			return s
		}
		s := "UNKNOWN"
		for _, m := range mods {
			if addr >= m.Base && addr < m.Base+m.Size {
				if f, ok := r.syms.ByAddr(addr); ok && f.Module == m.Name {
					s = fmt.Sprintf("%s+0x%x", f.Name, addr-f.Addr)
				} else {
					s = fmt.Sprintf("%s+0x%x", m.Name, addr-m.Base)
				}
				break
			}
		}
		r.cacheSym(addr, s)
		return s
	}
	return "UNKNOWN"
}
