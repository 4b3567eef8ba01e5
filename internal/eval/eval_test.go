package eval

import (
	"strings"
	"testing"

	"facechange"
	"facechange/internal/kview"
)

func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full 12-app profiling")
	}
	tab, err := RunTable1(facechange.ProfileConfig{Syscalls: 350})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Apps) != 12 {
		t.Fatalf("%d apps", len(tab.Apps))
	}
	min, minPair, max, maxPair := tab.MinMaxSimilarity()
	t.Logf("min %.3f (%v), max %.3f (%v)", min, minPair, max, maxPair)
	// Paper: 33.6% (top vs firefox) … 86.5% (totem vs eog).
	if min < 0.15 || min > 0.60 {
		t.Errorf("min similarity %.3f outside plausible band around 0.336", min)
	}
	if max < 0.70 || max >= 1.0 {
		t.Errorf("max similarity %.3f outside plausible band around 0.865", max)
	}
	// The matrix must be symmetric in Sim and Overlap.
	for _, a := range tab.Apps {
		for _, b := range tab.Apps {
			if a == b {
				continue
			}
			if tab.Sim[a][b] != tab.Sim[b][a] {
				t.Errorf("Sim not symmetric for %s/%s", a, b)
			}
			if tab.Overlap[a][b] != tab.Overlap[b][a] {
				t.Errorf("Overlap not symmetric for %s/%s", a, b)
			}
		}
	}
	// Union view covers every app view.
	u := tab.UnionView()
	for _, a := range tab.Apps {
		if got := tab.Views[a].Size(); u.Size() < got {
			t.Errorf("union smaller than %s view", a)
		}
	}
	out := tab.Format()
	for _, want := range []string{"firefox", "similarity range"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q", want)
		}
	}
}

func TestSharedCoreDecomposition(t *testing.T) {
	if testing.Short() {
		t.Skip("full 12-app profiling")
	}
	tab, err := RunTable1(facechange.ProfileConfig{Syscalls: 350})
	if err != nil {
		t.Fatal(err)
	}
	core, bySub, err := sharedCore(tab)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("kernel code shared by all applications: %d KB, by subsystem %v", core.Size()/1024, bySub)
	if core.Size() == 0 {
		t.Fatal("no shared kernel code at all")
	}
	// Section II: the overlap contains the scheduler and interrupt
	// handling code that every application needs.
	for _, sub := range []string{"sched", "irq", "time", "lib", "vfs"} {
		if bySub[sub] == 0 {
			t.Errorf("shared core lacks subsystem %q", sub)
		}
	}
	// Application-specific subsystems must NOT be universally shared.
	for _, sub := range []string{"tcp", "udp", "sound", "packet", "procfs"} {
		if bySub[sub] > 0 {
			t.Errorf("subsystem %q should not be in every view (%d bytes shared)", sub, bySub[sub])
		}
	}
	// The shared core must fit inside every application's view.
	for _, a := range tab.Apps {
		if kview.OverlapSize(core, tab.Views[a]) != core.Size() {
			t.Errorf("shared core not contained in %s's view", a)
		}
	}
}
