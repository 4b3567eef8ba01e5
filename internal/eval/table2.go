package eval

import (
	"fmt"
	"sort"
	"strings"

	"facechange"
	"facechange/internal/apps"
	"facechange/internal/core"
	"facechange/internal/kernel"
	"facechange/internal/kview"
	"facechange/internal/malware"
	"facechange/internal/telemetry"
)

// The scenarios' constants: every workload runs on seed 1 and each run is
// bounded at 4e9 simulated cycles; a Table II victim runs 220 system
// calls.
const (
	scenarioSeed      = 1
	scenarioBudget    = 4_000_000_000
	table2VictimCalls = 220
)

// Table2Config selects the runtime policy of the security evaluation;
// the zero value is the paper's.
type Table2Config struct {
	// SharedCore enables the shared-core runtime policy
	// (core.Options.SharedCore) on every scenario VM. Merged views change
	// what a vCPU exposes, but verdicts attribute per app, so detection
	// results must be unchanged.
	SharedCore bool
	// SharedCoreAdaptive enables the adaptive variant on top: merges are
	// gated on per-vCPU switch pressure and the suspect-split deny-list
	// is armed. Whether a scenario's switch cadence ever clears the
	// threshold or not, detection attribution must still be unchanged —
	// the policy trades exposure for switch rate, never verdicts. Implies
	// SharedCore.
	SharedCoreAdaptive bool
}

// AttackResult is one Table II row, extended with the union-view
// comparison of Section IV-A2.
type AttackResult struct {
	Attack malware.Attack
	// FCDetected reports whether the attack produced out-of-view kernel
	// execution under the victim's per-application view beyond the benign
	// baseline.
	FCDetected bool
	// FCEvidence lists the recovered kernel functions attributable to the
	// attack (the recovery-log diff against a clean run).
	FCEvidence []string
	// UnionDetected/UnionEvidence are the same measurement under the
	// system-wide "union" kernel view.
	UnionDetected bool
	UnionEvidence []string
	// Events is the number of recovery-log entries during the FC run.
	Events int
	// Log keeps the FC run's attack-attributable recovery events for
	// provenance display (Figures 4 and 5).
	Log []core.Event
}

// RunTable2 evaluates every attack in the catalog against per-application
// views and against the union view.
func RunTable2(views map[string]*kview.View, union *kview.View, cfg Table2Config) ([]AttackResult, error) {
	var out []AttackResult
	for _, a := range malware.Catalog() {
		res, err := runAttack(a, views, union, cfg)
		if err != nil {
			return nil, fmt.Errorf("eval: %s: %w", a.Name, err)
		}
		out = append(out, res)
	}
	return out, nil
}

func runAttack(a malware.Attack, views map[string]*kview.View, union *kview.View, cfg Table2Config) (AttackResult, error) {
	victimView, ok := views[a.Victim]
	if !ok {
		return AttackResult{}, fmt.Errorf("no profiled view for victim %q", a.Victim)
	}
	// Clean-run baseline: the benign recoveries (environment divergence,
	// unexercised interrupts, incomplete profiling) the administrator
	// already knows about.
	baseline, _, err := runScenario(a, victimView, false, cfg)
	if err != nil {
		return AttackResult{}, fmt.Errorf("baseline: %w", err)
	}
	fcNames, fcLog, err := runScenario(a, victimView, true, cfg)
	if err != nil {
		return AttackResult{}, fmt.Errorf("attack run: %w", err)
	}
	unionBase, _, err := runScenario(a, union, false, cfg)
	if err != nil {
		return AttackResult{}, fmt.Errorf("union baseline: %w", err)
	}
	unionNames, _, err := runScenario(a, union, true, cfg)
	if err != nil {
		return AttackResult{}, fmt.Errorf("union run: %w", err)
	}
	fcEvidence := diff(fcNames, baseline)
	unionEvidence := diff(unionNames, unionBase)
	var attackLog []core.Event
	evidenceSet := map[string]bool{}
	for _, e := range fcEvidence {
		evidenceSet[e] = true
	}
	for _, ev := range fcLog {
		if evidenceSet[fnBase(ev.Fn)] {
			attackLog = append(attackLog, ev)
		}
	}
	return AttackResult{
		Attack:        a,
		FCDetected:    len(fcEvidence) > 0,
		FCEvidence:    fcEvidence,
		UnionDetected: len(unionEvidence) > 0,
		UnionEvidence: unionEvidence,
		Events:        len(fcLog),
		Log:           attackLog,
	}, nil
}

// runScenario boots a runtime VM, enforces the given view on the victim's
// comm, runs the victim (clean or infected) to completion and returns the
// set of recovered function names plus the raw log.
func runScenario(a malware.Attack, view *kview.View, infected bool, cfg Table2Config) (map[string]bool, []core.Event, error) {
	return runScenarioEmit(a, view, infected, cfg, nil)
}

// runScenarioEmit is runScenario with an optional telemetry emitter
// attached to the runtime before it is enabled, so every switch, trap and
// recovery of the scenario streams through the pipeline.
func runScenarioEmit(a malware.Attack, view *kview.View, infected bool, cfg Table2Config, emit telemetry.Emitter) (map[string]bool, []core.Event, error) {
	var opts *core.Options
	if cfg.SharedCore || cfg.SharedCoreAdaptive {
		o := core.DefaultOptions()
		o.SharedCore = true
		o.SharedCoreAdaptive = cfg.SharedCoreAdaptive
		opts = &o
	}
	vm, err := facechange.NewVM(facechange.VMConfig{
		Modules:      a.RequiredModules(),
		ExtraModules: a.ExtraModules(),
		Options:      opts,
	})
	if err != nil {
		return nil, nil, err
	}
	if emit != nil {
		vm.Runtime.SetEmitter(emit)
	}
	if infected && a.IsRootkit() {
		// Case-study IV scenario: the rootkit is installed (and possibly
		// hidden) before FACE-CHANGE allocates the kernel view.
		if err := a.InstallRootkit(vm.Kernel); err != nil {
			return nil, nil, err
		}
	}
	idx, err := vm.LoadView(view)
	if err != nil {
		return nil, nil, err
	}
	if err := vm.Runtime.AssignView(a.Victim, idx); err != nil {
		return nil, nil, err
	}
	vm.Runtime.Enable()

	var task *kernel.Task
	if infected {
		task, err = startInfected(a, vm.Kernel)
	} else {
		app, ok := apps.ByName(a.Victim)
		if !ok {
			return nil, nil, fmt.Errorf("unknown victim %q", a.Victim)
		}
		task = vm.Kernel.StartTask(kernel.TaskSpec{
			Name:   a.Victim,
			Script: apps.Limit(app.Script(scenarioSeed), table2VictimCalls),
		})
		task.SignalScript = apps.DefaultSignalScript()
	}
	if err != nil {
		return nil, nil, err
	}
	if err := vm.Run(scenarioBudget, func() bool { return task.State == kernel.TaskDead }); err != nil {
		return nil, nil, err
	}
	if task.State != kernel.TaskDead {
		return nil, nil, fmt.Errorf("victim %s did not finish", a.Victim)
	}
	names := map[string]bool{}
	for _, ev := range vm.Runtime.Log() {
		names[fnBase(ev.Fn)] = true
	}
	return names, vm.Runtime.Log(), nil
}

func startInfected(a malware.Attack, k *kernel.Kernel) (*kernel.Task, error) {
	s, err := a.VictimScript(scenarioSeed, table2VictimCalls)
	if err != nil {
		return nil, err
	}
	t := k.StartTask(kernel.TaskSpec{Name: a.Victim, Script: s})
	if sp := a.SignalScript(); sp != nil {
		t.SignalScript = sp
	} else {
		t.SignalScript = apps.DefaultSignalScript()
	}
	return t, nil
}

func fnBase(sym string) string { return strings.SplitN(sym, "+", 2)[0] }

func diff(got, base map[string]bool) []string {
	var out []string
	for n := range got {
		if !base[n] {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// FormatTable2 renders the results like Table II, with the union-view
// comparison appended.
func FormatTable2(results []AttackResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-46s %-40s %-9s %-9s %s\n",
		"Name", "Infection Method", "Payload", "FC", "Union", "Evidence (recovered kernel code)")
	for _, r := range results {
		mark := func(d bool) string {
			if d {
				return "DETECTED"
			}
			return "missed"
		}
		ev := strings.Join(r.FCEvidence, ",")
		if len(ev) > 70 {
			ev = ev[:67] + "..."
		}
		fmt.Fprintf(&b, "%-14s %-46s %-40s %-9s %-9s %s\n",
			r.Attack.Name, r.Attack.Infection, r.Attack.Payload,
			mark(r.FCDetected), mark(r.UnionDetected), ev)
	}
	return b.String()
}
