package eval

import (
	"strings"
	"testing"

	"facechange"
	"facechange/internal/malware"
)

func TestTable2SecurityEvaluation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 16 attacks x 4 scenarios")
	}
	tab, err := RunTable1(facechange.ProfileConfig{Syscalls: 400})
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunTable2(tab.Views, tab.UnionView(), Table2Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 16 {
		t.Fatalf("%d attacks, want 16", len(results))
	}
	t.Logf("\n%s", FormatTable2(results))
	for _, r := range results {
		if !r.FCDetected {
			t.Errorf("FACE-CHANGE missed %s (paper: detects all 16)", r.Attack.Name)
		}
	}
	// The case-study blind spots: the union (system-wide minimized) view
	// misses the user-level payloads whose kernel code other applications
	// already require (case studies I-III).
	for _, name := range []string{"Injectso", "Cymothoa v4", "Infelf v2", "Xlibtrace", "Arches"} {
		for _, r := range results {
			if r.Attack.Name == name && r.UnionDetected {
				t.Errorf("union view should miss %s (evidence: %v)", name, r.UnionEvidence)
			}
		}
	}
	// Evidence spot checks from the paper's figures.
	evidence := map[string]string{}
	for _, r := range results {
		evidence[r.Attack.Name] = strings.Join(r.FCEvidence, ",")
	}
	for attack, fn := range map[string]string{
		"Injectso":    "udp_v4_get_port",       // Figure 4's bind chain
		"Cymothoa v1": "inet_csk_listen_start", // the TCP server (bash itself forks, unlike the paper's bash workload)
		"Cymothoa v2": "sys_clone",
		"Cymothoa v3": "sys_setitimer",
		"KBeast":      "filp_open", // Figure 5
		"Sebek":       "sebek",     // its own module code recovered
		"Adore-ng":    "adore",
	} {
		if !strings.Contains(evidence[attack], fn) {
			t.Errorf("%s evidence %q lacks %s", attack, evidence[attack], fn)
		}
	}
}

// TestTable2SharedCore re-runs the per-application half of Table II with
// the shared-core runtime policy enabled on every scenario VM. Merged
// views widen what a vCPU exposes, but recovery events carry the faulting
// task's comm, so per-app verdict attribution — and therefore the 16/16
// detection result — must be unchanged.
func TestTable2SharedCore(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 16 attacks x 2 scenarios")
	}
	runTable2SharedCore(t, Table2Config{SharedCore: true}, "shared-core")
}

// TestTable2SharedCoreAdaptive re-runs the same sweep under the adaptive
// policy: switch-rate-gated merging with the suspect-split deny-list
// armed. The policy only changes what a vCPU exposes and when, never the
// per-app verdict attribution, so the 16/16 result must hold here too.
func TestTable2SharedCoreAdaptive(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 16 attacks x 2 scenarios")
	}
	runTable2SharedCore(t, Table2Config{SharedCoreAdaptive: true}, "adaptive shared-core")
}

func runTable2SharedCore(t *testing.T, cfg Table2Config, label string) {
	t.Helper()
	tab, err := RunTable1(facechange.ProfileConfig{Syscalls: 400})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range malware.Catalog() {
		view, ok := tab.Views[a.Victim]
		if !ok {
			t.Fatalf("no profiled view for victim %q", a.Victim)
		}
		baseline, _, err := runScenario(a, view, false, cfg)
		if err != nil {
			t.Fatalf("%s baseline: %v", a.Name, err)
		}
		names, _, err := runScenario(a, view, true, cfg)
		if err != nil {
			t.Fatalf("%s attack run: %v", a.Name, err)
		}
		if ev := diff(names, baseline); len(ev) == 0 {
			t.Errorf("%s run missed %s (paper: detects all 16)", label, a.Name)
		}
	}
}
