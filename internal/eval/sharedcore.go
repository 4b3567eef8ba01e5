package eval

import (
	"fmt"

	"facechange/internal/kernel"
	"facechange/internal/kview"
	"facechange/internal/profiler"
)

// sharedCore computes the intersection of every profiled view — the kernel
// code that all applications need — and decomposes it by subsystem. It
// substantiates Section II's observation that "besides common system call
// execution paths, the overlapping kernel code also consists of
// functionality needed by every application, e.g., process scheduler and
// interrupt handling code".
//
// The kernel image generation is deterministic, so a freshly built symbol
// table matches the profiling machines'.
func sharedCore(t *Table1) (*kview.View, map[string]uint64, error) {
	if len(t.Apps) == 0 {
		return nil, nil, fmt.Errorf("eval: empty table")
	}
	core := t.Views[t.Apps[0]]
	for _, a := range t.Apps[1:] {
		core = kview.IntersectViews(core, t.Views[a])
	}
	core.App = "shared-core"

	k, err := kernel.New(kernel.Config{})
	if err != nil {
		return nil, nil, err
	}
	bySub := map[string]uint64{}
	for _, c := range profiler.Coverage(core, k.Syms, k.Modules()) {
		bySub[c.Sub] += uint64(c.Covered)
	}
	return core, bySub, nil
}
