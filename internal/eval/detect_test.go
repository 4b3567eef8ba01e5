package eval

import (
	"testing"

	"facechange"
	"facechange/internal/detect"
	"facechange/internal/malware"
)

// TestDetectionGoldenVerdicts replays every catalog attack through the
// streaming pipeline (runtime → telemetry hub → detection engine) and pins
// the expected verdict set: every attack flagged, KBeast (the only
// self-hiding rootkit) with the unknown-origin signature, the visible
// rootkits and user-level payloads via out-of-baseline recoveries, and the
// benign control runs clean.
func TestDetectionGoldenVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 16 attacks x 2 scenarios plus clean controls")
	}
	tab, err := RunTable1(facechange.ProfileConfig{Syscalls: 400})
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunDetection(tab.Views, Table2Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 16 {
		t.Fatalf("%d attacks, want 16", len(results))
	}
	for _, r := range results {
		if !r.Flagged {
			t.Errorf("detector missed %s (Table II: all 16 detected)", r.Attack.Name)
		}
		if r.Drops != 0 {
			t.Errorf("%s: %d ring drops — pipeline lost evidence", r.Attack.Name, r.Drops)
		}
		// The golden provenance split: only the hidden module produces the
		// unknown-origin signature; everything else is caught as
		// out-of-baseline recovery of admitted kernel code.
		wantUnknown := r.Attack.Name == "KBeast"
		if r.UnknownOrigin != wantUnknown {
			t.Errorf("%s: unknown-origin = %v, want %v (verdicts: %v)",
				r.Attack.Name, r.UnknownOrigin, wantUnknown, classes(r.Verdicts))
		}
		if !wantUnknown && r.Stats.ByClass[detect.ClassSuspicious] == 0 {
			t.Errorf("%s: flagged without a suspicious (out-of-baseline) verdict: %v",
				r.Attack.Name, classes(r.Verdicts))
		}
	}

	// False-positive control: each distinct victim app, run clean against
	// its own baseline, must produce zero suspected-attack verdicts.
	seen := map[string]bool{}
	for _, a := range malware.Catalog() {
		if seen[a.Victim] {
			continue
		}
		seen[a.Victim] = true
		r, err := runCleanDetection(a, tab.Views, Table2Config{})
		if err != nil {
			t.Fatalf("clean %s: %v", a.Victim, err)
		}
		if r.Flagged {
			t.Errorf("benign %s flagged: %v", a.Victim, r.Verdicts)
		}
		if r.Stats.Recoveries == 0 {
			t.Errorf("benign %s run streamed no recovery events (pipeline not attached?)", a.Victim)
		}
	}
}

func classes(vs []detect.Verdict) []detect.Class {
	out := make([]detect.Class, len(vs))
	for i, v := range vs {
		out[i] = v.Class
	}
	return out
}
