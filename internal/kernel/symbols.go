package kernel

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Func describes one generated kernel function.
type Func struct {
	Name string
	// Sub is the subsystem the function belongs to (used by calibration
	// and reporting, not by any runtime mechanism).
	Sub string
	// Module is the owning module name, or "" for the base kernel.
	Module string
	// Addr is the function's guest virtual load address. For module
	// functions it is assigned when the module is loaded.
	Addr uint32
	// Size is the generated body size in bytes.
	Size uint32
}

// End returns the first address past the function body.
func (f *Func) End() uint32 { return f.Addr + f.Size }

// SymbolTable resolves addresses to functions and names to addresses, like
// System.map. FACE-CHANGE's provenance log uses it for demonstration only
// ("symbols of kernel functions are not necessary for backtracking").
//
// The base kernel's functions and their index come from the base image and
// are only read; the table owns its module functions.
type SymbolTable struct {
	base    *baseImage
	modules map[string]*Func // module functions, loaded or not
	// sorted is the base index followed by the loaded module functions by
	// Addr: every module GVA lies above the base text. Its array is the
	// table's own, so the base prefix is copied once and never rewritten.
	sorted []*Func
}

// Rebuild re-sorts the loaded module functions; call after assigning or
// clearing module load addresses.
func (st *SymbolTable) Rebuild() {
	st.sorted = st.sorted[:len(st.base.sorted)]
	for _, f := range st.modules {
		if f.Addr != 0 {
			st.sorted = append(st.sorted, f)
		}
	}
	slices.SortFunc(st.sorted[len(st.base.sorted):], func(a, b *Func) int { return cmp.Compare(a.Addr, b.Addr) })
}

// ByName returns the function with the given symbol name.
func (st *SymbolTable) ByName(name string) (*Func, bool) {
	if f, ok := st.base.byName[name]; ok {
		return f, true
	}
	f, ok := st.modules[name]
	return f, ok
}

// MustAddr returns the address of a named symbol, panicking if missing —
// for wiring that is a build-time invariant of the generated kernel.
func (st *SymbolTable) MustAddr(name string) uint32 {
	f, ok := st.ByName(name)
	if !ok {
		panic(fmt.Sprintf("kernel: no symbol %q", name))
	}
	if f.Addr == 0 {
		panic(fmt.Sprintf("kernel: symbol %q has no address (module not loaded?)", name))
	}
	return f.Addr
}

// ByAddr returns the function containing addr, if any.
func (st *SymbolTable) ByAddr(addr uint32) (*Func, bool) {
	i := sort.Search(len(st.sorted), func(i int) bool { return st.sorted[i].Addr > addr })
	if i == 0 {
		return nil, false
	}
	f := st.sorted[i-1]
	if addr >= f.End() {
		return nil, false
	}
	return f, true
}

// Funcs returns all functions with assigned addresses, ordered by address.
func (st *SymbolTable) Funcs() []*Func { return st.sorted }
