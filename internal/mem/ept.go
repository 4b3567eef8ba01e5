package mem

// The EPT is modelled at the paper's granularity: a two-level structure
// where each page-directory (PD) entry covers 4 MB and points to a page
// table (PT) of 1024 4 KB page-table entries (PTEs). FACE-CHANGE switches
// the base kernel's view by swapping the PD entries that cover the kernel
// text ("we modify the pointers to the page directory (level 2 in the
// EPT)"), and switches scattered module code pages by rewriting individual
// PTEs, reusing PD entries shared with kernel data (Section III-B2).
//
// On top of that legacy rewrite path, the EPT supports an EPTP-style fast
// switch: a Root is a complete, precomputed paging structure, and SetRoot
// points the vCPU at one with a single pointer write — the software
// analogue of VMFUNC leaf 0 / EPTP switching. Views precompute one shared
// Root each, so a view switch costs one root swap instead of O(PDs +
// module pages) entry rewrites.

const (
	pdEntries = 1024
	ptEntries = 1024
	// PDSpan is the guest-physical span covered by one PD entry.
	PDSpan uint32 = ptEntries * PageSize
)

// PT is one EPT page table: 1024 PTEs mapping GPA pages to HPA pages.
// A PTE value is an HPA page base; PTEPresent must be set for validity.
type PT struct {
	entries [ptEntries]uint32
	present [ptEntries]bool
}

// NewIdentityPT builds a PT that identity-maps the 4 MB region starting at
// gpaBase.
func NewIdentityPT(gpaBase uint32) *PT {
	pt := &PT{}
	for i := 0; i < ptEntries; i++ {
		pt.entries[i] = gpaBase + uint32(i)*PageSize
		pt.present[i] = true
	}
	return pt
}

// Set maps the idx'th page of the PT's region to hpaPage.
func (pt *PT) Set(idx int, hpaPage uint32) {
	pt.entries[idx] = hpaPage
	pt.present[idx] = true
}

func pdIndex(gpa uint32) int { return int(gpa >> 22) }
func ptIndex(gpa uint32) int { return int(gpa>>PageShift) & (ptEntries - 1) }

// Root is one complete EPT paging structure: the PD array a vCPU's
// translations walk. A nil PD entry means the 4 MB region is identity
// mapped. Every EPT owns a private Root for the legacy rewrite path; each
// kernel view is a standalone Root, installed with SetRoot and shared
// across vCPUs.
type Root struct {
	pd [pdEntries]*PT
}

// NewRoot returns an all-identity Root.
func NewRoot() *Root { return &Root{} }

// Translate maps a guest physical address to a host physical address.
func (r *Root) Translate(gpa uint32) uint32 {
	pt := r.pd[pdIndex(gpa)]
	if pt == nil {
		return gpa // identity
	}
	idx := ptIndex(gpa)
	if !pt.present[idx] {
		return gpa
	}
	return pt.entries[idx] | (gpa & (PageSize - 1))
}

// PD returns the PD entry covering gpa (nil = identity).
func (r *Root) PD(gpa uint32) *PT { return r.pd[pdIndex(gpa)] }

// SetPD installs pt as the PD entry covering gpa (a 4 MB region). Passing
// nil restores the identity mapping for the region.
func (r *Root) SetPD(gpa uint32, pt *PT) { r.pd[pdIndex(gpa)] = pt }

// SetPTE remaps the single page containing gpa to hpaPage, materializing
// an identity PT for the region if needed.
func (r *Root) SetPTE(gpa uint32, hpaPage uint32) {
	pi := pdIndex(gpa)
	if r.pd[pi] == nil {
		r.pd[pi] = NewIdentityPT(uint32(pi) << 22)
	}
	r.pd[pi].Set(ptIndex(gpa), hpaPage)
}

// ClearPTE restores the identity mapping for the page containing gpa.
func (r *Root) ClearPTE(gpa uint32) {
	pi := pdIndex(gpa)
	if r.pd[pi] == nil {
		return
	}
	r.pd[pi].Set(ptIndex(gpa), PageAlignDown(gpa))
}

// EPT maps guest physical to host physical addresses for one vCPU.
// The zero value is not usable; construct with NewEPT.
//
// Translations walk the installed shared root when one is set (the
// snapshot fast path) and the vCPU-private local root otherwise (the
// legacy rewrite path). The two paths are not meant to be mixed on one
// machine: the per-entry mutators below always write the local root, which
// a shared root shadows entirely while installed.
type EPT struct {
	local Root
	// snap is the installed shared root (nil = the local root is live).
	// This is the vCPU's EPTP slot: SetRoot writes it and nothing else.
	snap *Root

	// pdSwaps, pteSwaps and rootSwaps count mapping updates since the last
	// ResetCounters call; the hypervisor's cost model charges for them.
	pdSwaps   uint64
	pteSwaps  uint64
	rootSwaps uint64
}

// NewEPT creates an EPT with a full identity mapping of guest RAM. PD slots
// are materialized lazily: a nil PD entry means identity.
func NewEPT() *EPT { return &EPT{} }

// active returns the root translations currently walk.
func (e *EPT) active() *Root {
	if e.snap != nil {
		return e.snap
	}
	return &e.local
}

// Translate maps a guest physical address to a host physical address.
func (e *EPT) Translate(gpa uint32) uint32 { return e.active().Translate(gpa) }

// TranslatePage maps the page containing gpa and reports whether the
// mapping was redirected away from identity.
func (e *EPT) TranslatePage(gpa uint32) (hpaPage uint32, redirected bool) {
	page := PageAlignDown(gpa)
	hpa := e.Translate(page)
	return hpa, hpa != page
}

// SetRoot installs a precomputed shared root — the single-pointer EPTP
// switch. Passing nil reverts the vCPU to its private local root (the full
// identity view, under snapshot switching). Each call counts as one root
// swap regardless of the previous value: it models one VMCS field write.
func (e *EPT) SetRoot(r *Root) {
	e.snap = r
	e.rootSwaps++
}

// Root returns the installed shared root (nil when the vCPU is on its
// private local root).
func (e *EPT) Root() *Root { return e.snap }

// SetPD installs pt as the PD entry covering gpa (a 4 MB region) in the
// vCPU's local root. This is the legacy fast path used to swap the base
// kernel's view. Passing nil restores the identity mapping for the region.
func (e *EPT) SetPD(gpa uint32, pt *PT) {
	e.local.SetPD(gpa, pt)
	e.pdSwaps++
}

// SetPTE remaps the single page containing gpa to hpaPage in the vCPU's
// local root, materializing an identity PT for the region if needed. This
// is the legacy slow path used for module code pages scattered in the
// kernel heap, which share PD entries with kernel data.
func (e *EPT) SetPTE(gpa uint32, hpaPage uint32) {
	e.local.SetPTE(gpa, hpaPage)
	e.pteSwaps++
}

// ClearPTE restores the identity mapping for the page containing gpa in
// the vCPU's local root.
func (e *EPT) ClearPTE(gpa uint32) {
	e.local.ClearPTE(gpa)
	e.pteSwaps++
}

// Counters returns the number of PD swaps and PTE swaps since the last
// reset.
func (e *EPT) Counters() (pdSwaps, pteSwaps uint64) { return e.pdSwaps, e.pteSwaps }

// RootSwaps returns the number of shared-root installs since the last
// reset.
func (e *EPT) RootSwaps() uint64 { return e.rootSwaps }

// ResetCounters zeroes the swap counters.
func (e *EPT) ResetCounters() { e.pdSwaps, e.pteSwaps, e.rootSwaps = 0, 0, 0 }
