package main

import (
	"fmt"
	"math/rand"
	"sort"

	"facechange"
	"facechange/internal/apps"
	"facechange/internal/kernel"
	"facechange/internal/kview"
	"facechange/internal/mem"
)

// appSpec is one application's view material: the view configuration to
// load or publish, the functions it includes (backtrace frame material)
// and the excluded functions (recovery targets). The synthetic views
// mirror internal/load's, so the same seed yields the same views as
// fcload; the parity test holds the two together.
type appSpec struct {
	idx      int
	name     string
	cfg      *kview.View
	included []*kernel.Func
	excluded []*kernel.Func
}

// maxExcluded bounds an app's recovery target pool (as in fcload).
const maxExcluded = 512

// kernelFacts are the symbol table and text size every booted kernel
// shares (the System.map that view synthesis reads).
type kernelFacts struct {
	syms     *kernel.SymbolTable
	textSize uint32
	funcs    []*kernel.Func // eligible view members and recovery targets
}

func factsOf(k *kernel.Kernel) (*kernelFacts, error) {
	f := &kernelFacts{syms: k.Syms, textSize: k.Img.TextSize()}
	for _, fn := range k.Syms.Funcs() {
		if fn.Module != "" || fn.Size < 16 {
			continue
		}
		if fn.Addr < mem.KernelTextGVA || fn.End() > mem.KernelTextGVA+f.textSize {
			continue
		}
		f.funcs = append(f.funcs, fn)
	}
	if len(f.funcs) < 8 {
		return nil, fmt.Errorf("perfbench: only %d eligible kernel functions", len(f.funcs))
	}
	return f, nil
}

// catalog returns the first n catalog applications (Table I order).
func catalog(n int) []apps.App {
	cat := apps.Catalog()
	if n > len(cat) {
		n = len(cat)
	}
	return cat[:n]
}

// syntheticSpecs derives one deterministic view per app: each eligible
// function joins the view with probability ~0.3 under a per-app seeded
// stream, the rest form the recovery target pool.
func syntheticSpecs(kf *kernelFacts, list []apps.App, seed int64) ([]*appSpec, error) {
	specs := make([]*appSpec, 0, len(list))
	for i, app := range list {
		rng := rand.New(rand.NewSource(int64(uint64(seed) ^ uint64(i+1)*0x9E3779B97F4A7C15)))
		spec := &appSpec{idx: i, name: app.Name, cfg: kview.NewView(app.Name)}
		for _, f := range kf.funcs {
			if rng.Float64() < 0.3 && len(spec.included) < 96 {
				spec.included = append(spec.included, f)
			} else if len(spec.excluded) < maxExcluded {
				spec.excluded = append(spec.excluded, f)
			}
		}
		if len(spec.included) == 0 {
			spec.included = append(spec.included, kf.funcs[0])
			spec.excluded = spec.excluded[1:]
		}
		if len(spec.excluded) == 0 {
			return nil, fmt.Errorf("perfbench: app %s has no excluded functions", app.Name)
		}
		for _, f := range spec.included {
			spec.cfg.Insert(kview.BaseKernel, f.Addr, f.End())
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// profiledSpecs profiles the applications for real through the
// profiling pool and derives each app's pools from its view.
func profiledSpecs(kf *kernelFacts, list []apps.App, seed int64, syscalls int) ([]*appSpec, error) {
	pool := facechange.NewPool(facechange.PoolConfig{})
	views, err := pool.ProfileAll(list, facechange.ProfileConfig{
		Syscalls: syscalls,
		Seed:     seed,
		Budget:   2_000_000_000,
	})
	if err != nil {
		return nil, fmt.Errorf("perfbench: profiling: %w", err)
	}
	specs := make([]*appSpec, 0, len(list))
	for i, app := range list {
		v := views[app.Name]
		if v == nil {
			return nil, fmt.Errorf("perfbench: no profiled view for %s", app.Name)
		}
		spec := &appSpec{idx: i, name: app.Name}
		if err := spec.setView(kf, v); err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// setView installs v as the spec's view and recomputes the included and
// excluded pools from its base-kernel ranges (as fcload's profiled specs
// do).
func (s *appSpec) setView(kf *kernelFacts, v *kview.View) error {
	s.cfg = v
	s.included, s.excluded = s.included[:0:0], s.excluded[:0:0]
	ranges := v.Ranges(kview.BaseKernel)
	for _, f := range kf.funcs {
		inView := false
		for _, rg := range ranges {
			if f.Addr < rg.End && f.End() > rg.Start {
				inView = true
				break
			}
		}
		if inView {
			s.included = append(s.included, f)
		} else if len(s.excluded) < maxExcluded {
			s.excluded = append(s.excluded, f)
		}
	}
	// An evolved generation may cover every eligible function; its
	// recovery events then all run warm.
	if len(s.included) == 0 {
		return fmt.Errorf("perfbench: view for %s includes no kernel function", s.name)
	}
	return nil
}

// modulesFor lists the guest modules the applications need, sorted.
func modulesFor(list []apps.App) []string {
	set := map[string]bool{}
	for _, a := range list {
		for _, m := range a.Modules {
			set[m] = true
		}
	}
	out := make([]string, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}
