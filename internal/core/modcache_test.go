package core

import (
	"strings"
	"testing"
)

// TestModuleListCacheProbe pins the charged VMI cost of repeated module
// symbolization: the first lookup pays the full list walk, every repeat
// pays exactly one count-probe read and keeps the symbol cache.
func TestModuleListCacheProbe(t *testing.T) {
	rig := newSwitchRig(t, 1, DefaultOptions(), "af_packet")
	cpu := rig.k.M.CPUs[0]
	fn := moduleFunc(t, rig.k, "af_packet")
	cost := rig.k.M.Cost
	rig.rt.InvalidateModuleCache() // LoadView staging warmed it; start cold

	symbolizeCost := func() (string, uint64) {
		before := rig.k.M.Cycles()
		s := rig.rt.Symbolize(cpu, fn.Addr)
		return s, rig.k.M.Cycles() - before
	}

	first, walkCost := symbolizeCost()
	if !strings.HasPrefix(first, fn.Name) {
		t.Fatalf("Symbolize(%#x) = %q, want %s+...", fn.Addr, first, fn.Name)
	}
	if want := uint64(1+3*1) * cost.VMIRead; walkCost != want {
		t.Errorf("first module symbolization charged %d cycles, want full walk %d", walkCost, want)
	}

	text := textFuncs(t, rig.k)[0]
	rig.rt.Symbolize(cpu, text.Addr) // an entry only a cache clear removes
	cached, probeCost := symbolizeCost()
	if cached != first {
		t.Errorf("cached symbolization %q differs from first %q", cached, first)
	}
	if probeCost != cost.VMIRead {
		t.Errorf("repeat symbolization charged %d cycles, want exactly one probe read %d", probeCost, cost.VMIRead)
	}
	if _, ok := rig.rt.symCache[text.Addr]; !ok {
		t.Error("cache-served symbolization cleared the symbol cache")
	}
}

// TestModuleCacheCountChange: guest module churn changes the list count,
// so the probe misses, the walk re-runs, the symbol cache is cleared, and
// symbols derived from the old list are re-resolved against the new one.
func TestModuleCacheCountChange(t *testing.T) {
	rig := newSwitchRig(t, 1, DefaultOptions(), "af_packet")
	cpu := rig.k.M.CPUs[0]
	cost := rig.k.M.Cost

	fnA := moduleFunc(t, rig.k, "af_packet")
	rig.rt.Symbolize(cpu, fnA.Addr) // warm the cache (count = 1)

	if _, err := rig.k.LoadModule("snd"); err != nil {
		t.Fatal(err)
	}
	fnB := moduleFunc(t, rig.k, "snd")
	before := rig.k.M.Cycles()
	got := rig.rt.Symbolize(cpu, fnB.Addr)
	delta := rig.k.M.Cycles() - before
	if !strings.HasPrefix(got, fnB.Name) {
		t.Errorf("Symbolize of new module func = %q, want %s+...", got, fnB.Name)
	}
	if want := uint64(1+3*2) * cost.VMIRead; delta != want {
		t.Errorf("post-churn symbolization charged %d cycles, want fresh 2-entry walk %d", delta, want)
	}
	if _, ok := rig.rt.symCache[fnA.Addr]; ok {
		t.Error("module churn did not clear the symbol cache")
	}

	// Hiding a module shrinks the guest-visible list: the probe misses
	// again and the hidden module's code symbolizes as UNKNOWN (Figure 5).
	if err := rig.k.HideModule("af_packet"); err != nil {
		t.Fatal(err)
	}
	if got := rig.rt.Symbolize(cpu, fnA.Addr); got != "UNKNOWN" {
		t.Errorf("Symbolize in hidden module = %q, want UNKNOWN", got)
	}
}

// TestInvalidateModuleCache: the explicit invalidation (for same-count
// list rewrites the probe cannot see) forces the next lookup back onto the
// full walk and clears derived symbolizations.
func TestInvalidateModuleCache(t *testing.T) {
	rig := newSwitchRig(t, 1, DefaultOptions(), "af_packet")
	cpu := rig.k.M.CPUs[0]
	cost := rig.k.M.Cost
	fn := moduleFunc(t, rig.k, "af_packet")
	rig.rt.Symbolize(cpu, fn.Addr) // warm

	rig.rt.InvalidateModuleCache()
	if n := len(rig.rt.symCache); n != 0 {
		t.Errorf("InvalidateModuleCache left %d symbolizations cached", n)
	}

	before := rig.k.M.Cycles()
	rig.rt.Symbolize(cpu, fn.Addr)
	delta := rig.k.M.Cycles() - before
	if want := uint64(1+3*1) * cost.VMIRead; delta != want {
		t.Errorf("post-invalidation symbolization charged %d cycles, want full walk %d", delta, want)
	}
}

// TestTextSymbolCacheStable: base-kernel symbolizations are host-side and
// immutable — repeated lookups charge nothing and survive module churn.
func TestTextSymbolCacheStable(t *testing.T) {
	rig := newSwitchRig(t, 1, DefaultOptions())
	cpu := rig.k.M.CPUs[0]
	fn := textFuncs(t, rig.k)[0]

	first := rig.rt.Symbolize(cpu, fn.Addr+4)
	if !strings.HasPrefix(first, fn.Name) {
		t.Fatalf("Symbolize(%#x) = %q, want %s+...", fn.Addr+4, first, fn.Name)
	}
	before := rig.k.M.Cycles()
	if got := rig.rt.Symbolize(cpu, fn.Addr+4); got != first {
		t.Errorf("cached text symbolization %q != %q", got, first)
	}
	if delta := rig.k.M.Cycles() - before; delta != 0 {
		t.Errorf("cached text symbolization charged %d cycles, want 0", delta)
	}
	rig.rt.InvalidateModuleCache() // clears the symbol cache too
	if got := rig.rt.Symbolize(cpu, fn.Addr+4); got != first {
		t.Errorf("re-resolved text symbolization %q != %q", got, first)
	}
}
