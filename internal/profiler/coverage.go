package profiler

import (
	"fmt"
	"sort"
	"strings"

	"facechange/internal/kernel"
	"facechange/internal/kview"
)

// FnCoverage reports how much of one kernel function a view covers.
type FnCoverage struct {
	Name string
	Sub  string
	// Module is the owning module ("" = base kernel).
	Module string
	// Covered is the number of profiled bytes within the function.
	Covered uint32
	// Size is the function's size.
	Size uint32
}

// Partial reports whether only part of the function was profiled — the
// case that motivates whole-function view loading (Section III-B1).
func (c FnCoverage) Partial() bool { return c.Covered > 0 && c.Covered < c.Size }

// Coverage maps a profiled view onto the kernel's function inventory:
// which functions were exercised, fully or partially. Module functions are
// matched through the machine's loaded-module list.
func Coverage(view *kview.View, syms *kernel.SymbolTable, mods []kernel.ModuleInfo) []FnCoverage {
	modBase := make(map[string]uint32, len(mods))
	for _, m := range mods {
		modBase[m.Name] = m.Base
	}
	var out []FnCoverage
	for _, f := range syms.Funcs() {
		var rl kview.RangeList
		var fnStart uint32
		if f.Module == "" {
			rl = view.Ranges(kview.BaseKernel)
			fnStart = f.Addr
		} else {
			base, ok := modBase[f.Module]
			if !ok {
				continue
			}
			rl = view.Ranges(f.Module)
			fnStart = f.Addr - base
		}
		fnList := kview.RangeList{{Start: fnStart, End: fnStart + f.Size}}
		covered := kview.Intersect(rl, fnList).Size()
		if covered == 0 {
			continue
		}
		out = append(out, FnCoverage{
			Name:    f.Name,
			Sub:     f.Sub,
			Module:  f.Module,
			Covered: uint32(covered),
			Size:    f.Size,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CoverageReport renders profiled functions grouped by subsystem, marking
// partially covered ones.
func CoverageReport(view *kview.View, syms *kernel.SymbolTable, mods []kernel.ModuleInfo) string {
	cov := Coverage(view, syms, mods)
	bySub := map[string][]FnCoverage{}
	for _, c := range cov {
		bySub[c.Sub] = append(bySub[c.Sub], c)
	}
	subs := make([]string, 0, len(bySub))
	for s := range bySub {
		subs = append(subs, s)
	}
	sort.Strings(subs)
	var b strings.Builder
	fmt.Fprintf(&b, "view %q touches %d kernel functions across %d subsystems\n",
		view.App, len(cov), len(subs))
	for _, s := range subs {
		var bytes uint64
		partial := 0
		for _, c := range bySub[s] {
			bytes += uint64(c.Covered)
			if c.Partial() {
				partial++
			}
		}
		fmt.Fprintf(&b, "  %-12s %3d functions %8d bytes", s, len(bySub[s]), bytes)
		if partial > 0 {
			fmt.Fprintf(&b, " (%d partially profiled)", partial)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
