package eval

import (
	"fmt"

	"facechange/internal/detect"
	"facechange/internal/kview"
	"facechange/internal/malware"
	"facechange/internal/telemetry"
)

// DetectionResult is one attack scenario replayed through the streaming
// pipeline: the runtime emits into a telemetry.Hub, the detection engine
// consumes the ordered stream, and the verdicts are the online equivalent
// of Table II's offline recovery-log diff.
type DetectionResult struct {
	Attack malware.Attack
	// Flagged reports whether the engine raised at least one
	// suspected-attack verdict during the infected run.
	Flagged bool
	// UnknownOrigin reports whether any verdict was unknown-origin (the
	// hidden-module signature — KBeast's shape).
	UnknownOrigin bool
	// Verdicts are the engine's retained verdicts, in emission order.
	Verdicts []detect.Verdict
	// Stats is the engine's final state.
	Stats detect.Stats
	// Engine is the engine that produced the verdicts (a live
	// telemetry.MetricSource — cmd/fcmon serves /metrics from it).
	Engine *detect.Engine
	// Drops is the hub's ring-drop count (0 expected; a drop would mean
	// the pipeline lost evidence).
	Drops uint64
}

// RunDetection replays every catalog attack through the streaming
// detection pipeline. For each attack the victim's clean run seeds the
// engine's baseline (the same clean-vs-infected semantics as Table II,
// evaluated online), then the infected run streams through a hub into the
// engine.
func RunDetection(views map[string]*kview.View, cfg Table2Config) ([]DetectionResult, error) {
	var out []DetectionResult
	for _, a := range malware.Catalog() {
		res, err := RunAttackDetection(a, views, cfg)
		if err != nil {
			return nil, fmt.Errorf("eval: detect %s: %w", a.Name, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// RunAttackDetection runs one attack's clean-baseline and infected runs
// through the pipeline. Extra sinks (e.g. a JSONL writer) see the infected
// run's event stream alongside the engine.
func RunAttackDetection(a malware.Attack, views map[string]*kview.View, cfg Table2Config, extra ...telemetry.Sink) (DetectionResult, error) {
	view, ok := views[a.Victim]
	if !ok {
		return DetectionResult{}, fmt.Errorf("no profiled view for victim %q", a.Victim)
	}
	baseline, err := cleanBaseline(a, view, cfg)
	if err != nil {
		return DetectionResult{}, fmt.Errorf("baseline: %w", err)
	}
	eng, drops, err := streamScenario(a, view, true, cfg, baseline, extra)
	if err != nil {
		return DetectionResult{}, fmt.Errorf("attack run: %w", err)
	}
	st := eng.Stats()
	return DetectionResult{
		Attack:        a,
		Flagged:       st.Suspicious() > 0,
		UnknownOrigin: st.ByClass[detect.ClassUnknownOrigin] > 0,
		Verdicts:      eng.Verdicts(),
		Stats:         st,
		Engine:        eng,
		Drops:         drops,
	}, nil
}

// runCleanDetection runs the victim's clean workload against its own
// clean-run baseline — the false-positive control: a benign app must
// produce zero suspected-attack verdicts.
func runCleanDetection(a malware.Attack, views map[string]*kview.View, cfg Table2Config) (DetectionResult, error) {
	view, ok := views[a.Victim]
	if !ok {
		return DetectionResult{}, fmt.Errorf("no profiled view for victim %q", a.Victim)
	}
	baseline, err := cleanBaseline(a, view, cfg)
	if err != nil {
		return DetectionResult{}, fmt.Errorf("baseline: %w", err)
	}
	eng, drops, err := streamScenario(a, view, false, cfg, baseline, nil)
	if err != nil {
		return DetectionResult{}, fmt.Errorf("clean run: %w", err)
	}
	st := eng.Stats()
	return DetectionResult{
		Attack:   a,
		Flagged:  st.Suspicious() > 0,
		Verdicts: eng.Verdicts(),
		Stats:    st,
		Engine:   eng,
		Drops:    drops,
	}, nil
}

// cleanBaseline runs the victim's clean workload and returns the set of
// recovered kernel function base names — what the administrator's clean
// runs are known to recover.
func cleanBaseline(a malware.Attack, view *kview.View, cfg Table2Config) (map[string]bool, error) {
	names, _, err := runScenario(a, view, false, cfg)
	if err != nil {
		return nil, err
	}
	return names, nil
}

// streamScenario is runScenario with the telemetry pipeline attached: the
// runtime streams into a hub feeding a detection engine configured with
// the victim's baseline. Returns the engine (post-drain) and the hub's
// drop count.
func streamScenario(a malware.Attack, view *kview.View, infected bool, cfg Table2Config, baseline map[string]bool, extra []telemetry.Sink) (*detect.Engine, uint64, error) {
	eng := detect.New(detect.Config{
		Baselines: map[string]map[string]bool{a.Victim: baseline},
	})
	sinks := append([]telemetry.Sink{eng}, extra...)
	hub := telemetry.NewHub(telemetry.HubConfig{Sinks: sinks})
	if _, _, err := runScenarioEmit(a, view, infected, cfg, hub); err != nil {
		return nil, 0, err
	}
	if err := hub.Close(); err != nil {
		return nil, 0, err
	}
	return eng, hub.Drops(), nil
}
