package eval

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"facechange"
)

// TestConvergencePin is the convergence soak's pinned claim: a stable
// workload on an incomplete seed profile starts with a substantial
// recovery rate, the rate never increases, and within the soak's
// generations it falls below 1% of the generation-0 rate (which, at this
// population, means zero).
func TestConvergencePin(t *testing.T) {
	r, err := runConvergence(8, 400)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", r.format())
	writeEvolveArtifact(t, "convergence.json", r)

	if n := len(r.Epochs); n != 5 {
		t.Fatalf("%d epochs, want 5", n)
	}
	first := r.Epochs[0].AppRecoveries
	if first < 20 {
		t.Fatalf("generation-0 recovery population too small to be meaningful: %d", first)
	}
	for i := 1; i < len(r.Epochs); i++ {
		if r.Epochs[i].AppRecoveries > r.Epochs[i-1].AppRecoveries {
			t.Fatalf("recovery rate rose at epoch %d: %d -> %d",
				r.Epochs[i].Epoch, r.Epochs[i-1].AppRecoveries, r.Epochs[i].AppRecoveries)
		}
		if r.Epochs[i].BytesExposed < r.Epochs[i-1].BytesExposed {
			t.Fatalf("view shrank at epoch %d", r.Epochs[i].Epoch)
		}
	}
	last := r.Epochs[len(r.Epochs)-1].AppRecoveries
	if last*100 >= first {
		t.Fatalf("did not converge: epoch 1 recovered %d, final epoch still %d (>= 1%%)", first, last)
	}
	if r.Stats.Generations == 0 {
		t.Fatal("soak cut no generations")
	}
	if r.Stats.Denied != 0 || r.Stats.PublishErrors != 0 {
		t.Fatalf("clean workload hit the deny/publish paths: %+v", r.Stats)
	}
	// Attack-surface accounting: every cut strictly grew the view and
	// stayed within the kernel text.
	for _, g := range r.Generations {
		if g.PromotedBytes == 0 || g.TextPct <= 0 || g.TextPct > 1 {
			t.Fatalf("implausible generation: %+v", g)
		}
	}
}

// TestEvolutionSafetyTable2 is the safety soak: all 16 Table II attacks
// replayed with the evolution loop live and maximally permissive. The
// pinned claims: detection stays 16/16, and no promoted range ever
// contains a suspect verdict's origin — the verdict gate, not hysteresis,
// keeps attack evidence out of the views.
func TestEvolutionSafetyTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 16 attacks x 2 scenarios with the evolution loop live")
	}
	tab, err := RunTable1(facechange.ProfileConfig{Syscalls: 400})
	if err != nil {
		t.Fatal(err)
	}
	results, err := runEvolutionSafety(tab.Views, Table2Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", formatEvolutionSafety(results))
	writeEvolveArtifact(t, "safety.json", results)

	if len(results) != 16 {
		t.Fatalf("%d attacks, want 16", len(results))
	}
	var promotions, denied uint64
	for _, r := range results {
		if !r.Flagged {
			t.Errorf("%s not flagged with evolution live (detection must stay 16/16)", r.Attack.Name)
		}
		if r.AttackPromoted {
			t.Errorf("%s: a promoted range contains a suspect verdict's origin", r.Attack.Name)
		}
		if r.Drops != 0 {
			t.Errorf("%s: %d telemetry drops (evidence lost)", r.Attack.Name, r.Drops)
		}
		promotions += r.Promotions
		denied += r.Denied
	}
	// The soak must exercise both sides of the gate: benign environment
	// recoveries promoting (the loop is live, not inert) and suspect
	// events being refused (the gate actually fired).
	if promotions == 0 {
		t.Error("no generation cut across 16 attack runs — the loop never ran")
	}
	if denied == 0 {
		t.Error("nothing denied across 16 attack runs — the gate never fired")
	}
}

// writeEvolveArtifact drops a JSON result into $EVOLVE_METRICS_OUT (a
// directory) when set — the CI soak job uploads it as the per-generation
// attack-surface artifact.
func writeEvolveArtifact(t *testing.T, name string, v any) {
	t.Helper()
	dir := os.Getenv("EVOLVE_METRICS_OUT")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatalf("artifact dir: %v", err)
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatalf("artifact marshal: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatalf("artifact write: %v", err)
	}
}
