package eval

import (
	"fmt"
	"strings"
	"sync"

	"facechange"
	"facechange/internal/apps"
	"facechange/internal/core"
	"facechange/internal/detect"
	"facechange/internal/evolve"
	"facechange/internal/kernel"
	"facechange/internal/kview"
	"facechange/internal/malware"
	"facechange/internal/telemetry"
)

// The convergence soak's constants: it replays top over 5 epochs, and its
// evolver promotes a span once it has recovered twice, in 2 distinct
// stream windows of 50e6 cycles.
const (
	convergenceApp          = "top"
	convergenceEpochs       = 5
	convergenceMinHits      = 2
	convergenceMinWindows   = 2
	convergenceWindowCycles = 50_000_000
)

// epochResult is one convergence-soak session.
type epochResult struct {
	Epoch int
	// Gen is the workload's view generation entering the epoch.
	Gen uint64
	// AppRecoveries counts recoveries attributed to the workload's comm
	// outside interrupt context — the population the evolution loop can
	// retire. Recoveries is the session total (interrupt-context and
	// other comms included).
	AppRecoveries, Recoveries int
	// Promotions is the number of generations cut during or at the end of
	// the epoch.
	Promotions int
	// BytesExposed and TextPct describe the generation after the epoch.
	BytesExposed uint64
	TextPct      float64
}

// convergenceResult is the convergence soak's outcome.
type convergenceResult struct {
	App    string
	Epochs []epochResult
	// Generations is the evolver's full cut history.
	Generations []evolve.Generation
	Stats       evolve.Stats
}

// format renders the soak as a per-epoch table.
func (r *convergenceResult) format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "convergence: %s\n", r.App)
	fmt.Fprintf(&b, "%-6s %-4s %-10s %-10s %-6s %-12s %s\n",
		"epoch", "gen", "app-recov", "all-recov", "cuts", "bytes", "text%")
	for _, e := range r.Epochs {
		fmt.Fprintf(&b, "%-6d %-4d %-10d %-10d %-6d %-12d %.2f\n",
			e.Epoch, e.Gen, e.AppRecoveries, e.Recoveries, e.Promotions,
			e.BytesExposed, 100*e.TextPct)
	}
	return b.String()
}

// hotplugPublisher applies each cut generation to whatever runtime is
// currently live — the convergence soak boots a fresh VM per epoch, so the
// evolver's publish target has to follow it.
type hotplugPublisher struct {
	mu   sync.Mutex
	rt   *core.Runtime
	prev map[string]int
}

func (p *hotplugPublisher) attach(rt *core.Runtime) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rt = rt
	p.prev = make(map[string]int)
}

func (p *hotplugPublisher) publish(app string, gen uint64, v *kview.View) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rt == nil {
		return nil
	}
	idx, err := p.rt.LoadView(v)
	if err != nil {
		return fmt.Errorf("hotplug %s gen %d: %w", app, gen, err)
	}
	if old, ok := p.prev[app]; ok {
		p.rt.UnloadView(old)
	}
	p.prev[app] = idx
	return nil
}

// runConvergence is the convergence soak: a stable workload replayed over
// several sessions, each booting a fresh VM on the latest view generation,
// with the evolution loop promoting the recoveries of earlier sessions.
// With an incomplete seed profile the early epochs recover steadily; once
// the hysteresis threshold is crossed the recovered spans ship as new
// generations and the recovery rate decays toward zero. profileCalls
// truncates the profiling workload seeding generation 0 (an incomplete
// profile, so the early epochs pay the recovery tax the evolution loop
// exists to retire); calls is each epoch's workload length in system
// calls.
func runConvergence(profileCalls, calls int) (*convergenceResult, error) {
	app, _ := apps.ByName(convergenceApp)
	seedView, err := facechange.Profile(app, facechange.ProfileConfig{
		Syscalls: profileCalls, Seed: scenarioSeed, Budget: scenarioBudget,
	})
	if err != nil {
		return nil, fmt.Errorf("eval: seed profile: %w", err)
	}

	pub := &hotplugPublisher{}
	var evo *evolve.Evolver // built on first boot (needs the text size)
	res := &convergenceResult{App: convergenceApp}

	for epoch := 1; epoch <= convergenceEpochs; epoch++ {
		vm, err := facechange.NewVM(facechange.VMConfig{})
		if err != nil {
			return nil, fmt.Errorf("eval: epoch %d: %w", epoch, err)
		}
		if evo == nil {
			evo, err = evolve.New(evolve.Config{
				Detector:     detect.New(detect.Config{}),
				Views:        map[string]*kview.View{convergenceApp: seedView},
				MinHits:      convergenceMinHits,
				MinWindows:   convergenceMinWindows,
				WindowCycles: convergenceWindowCycles,
				TextSize:     vm.Kernel.Img.TextSize(),
				Publish:      pub.publish,
			})
			if err != nil {
				return nil, err
			}
		}
		pub.attach(vm.Runtime)

		view, gen := evo.View(convergenceApp)
		hub := telemetry.NewHub(telemetry.HubConfig{Sinks: []telemetry.Sink{evo}})
		vm.Runtime.SetEmitter(hub)
		idx, err := vm.LoadView(view)
		if err != nil {
			return nil, fmt.Errorf("eval: epoch %d load gen %d: %w", epoch, gen, err)
		}
		if err := vm.Runtime.AssignView(convergenceApp, idx); err != nil {
			return nil, err
		}
		vm.Runtime.Enable()

		task := vm.StartApp(app, scenarioSeed, calls)
		before := len(evo.Generations())
		// Drain at every interrupt boundary: the evolution loop runs live
		// inside the session, and mid-epoch cuts hot-plug into this VM.
		err = vm.Run(scenarioBudget, func() bool {
			hub.Drain()
			return task.State == kernel.TaskDead
		})
		if err != nil {
			return nil, fmt.Errorf("eval: epoch %d run: %w", epoch, err)
		}
		if task.State != kernel.TaskDead {
			return nil, fmt.Errorf("eval: epoch %d: workload did not finish", epoch)
		}
		if err := hub.Close(); err != nil {
			return nil, err
		}
		evo.AdvanceAll() // epoch boundary: flush pending crossings

		var appRecov, recov int
		for _, ev := range vm.Runtime.Log() {
			recov++
			if ev.Comm == convergenceApp && !ev.Interrupt {
				appRecov++
			}
		}
		st := evo.Stats()
		as := st.Apps[convergenceApp]
		res.Epochs = append(res.Epochs, epochResult{
			Epoch:         epoch,
			Gen:           gen,
			AppRecoveries: appRecov,
			Recoveries:    recov,
			Promotions:    len(evo.Generations()) - before,
			BytesExposed:  as.BytesExposed,
			TextPct:       as.TextPct,
		})
	}
	res.Generations = evo.Generations()
	res.Stats = evo.Stats()
	return res, nil
}

// safetyResult is one attack replayed through the live evolution loop.
type safetyResult struct {
	Attack malware.Attack
	// Flagged reports whether the detection engine raised a suspect
	// verdict — the 16/16 detection property must survive evolution.
	Flagged bool
	// Promotions counts generations cut during the infected run (benign
	// environment recoveries may legitimately promote).
	Promotions uint64
	// Denied counts suspect-verdict events the evolver refused.
	Denied uint64
	// AttackPromoted reports whether any promoted range contains a
	// suspect verdict's origin address — must never be true.
	AttackPromoted bool
	// Drops is the hub's ring-drop count (0 expected).
	Drops uint64
}

// runEvolutionSafety replays every catalog attack with the evolution loop
// live and maximally permissive (MinHits=1, MinWindows=1, promotion cut on
// every window edge): the strongest configuration for the safety claim
// that verdict gating — not hysteresis — is what keeps attack evidence out
// of promoted views.
func runEvolutionSafety(views map[string]*kview.View, cfg Table2Config) ([]safetyResult, error) {
	var out []safetyResult
	for _, a := range malware.Catalog() {
		r, err := runAttackEvolution(a, views, cfg)
		if err != nil {
			return nil, fmt.Errorf("eval: evolve-safety %s: %w", a.Name, err)
		}
		out = append(out, r)
	}
	return out, nil
}

func runAttackEvolution(a malware.Attack, views map[string]*kview.View, cfg Table2Config) (safetyResult, error) {
	view, ok := views[a.Victim]
	if !ok {
		return safetyResult{}, fmt.Errorf("no profiled view for victim %q", a.Victim)
	}
	baseline, err := cleanBaseline(a, view, cfg)
	if err != nil {
		return safetyResult{}, fmt.Errorf("baseline: %w", err)
	}
	eng := detect.New(detect.Config{
		Baselines: map[string]map[string]bool{a.Victim: baseline},
	})

	vm, err := facechange.NewVM(facechange.VMConfig{
		Modules:      a.RequiredModules(),
		ExtraModules: a.ExtraModules(),
	})
	if err != nil {
		return safetyResult{}, err
	}
	evo, err := evolve.New(evolve.Config{
		Detector:     eng,
		Views:        map[string]*kview.View{a.Victim: view},
		MinHits:      1,
		MinWindows:   1,
		WindowCycles: 10_000_000,
		TextSize:     vm.Kernel.Img.TextSize(),
		Publish:      evolve.PublishToRuntime(vm.Runtime),
	})
	if err != nil {
		return safetyResult{}, err
	}
	hub := telemetry.NewHub(telemetry.HubConfig{Sinks: []telemetry.Sink{eng, evo}})
	vm.Runtime.SetEmitter(hub)

	if a.IsRootkit() {
		if err := a.InstallRootkit(vm.Kernel); err != nil {
			return safetyResult{}, err
		}
	}
	idx, err := vm.LoadView(view)
	if err != nil {
		return safetyResult{}, err
	}
	if err := vm.Runtime.AssignView(a.Victim, idx); err != nil {
		return safetyResult{}, err
	}
	vm.Runtime.Enable()
	task, err := startInfected(a, vm.Kernel)
	if err != nil {
		return safetyResult{}, err
	}
	// Live loop: drain at every interrupt boundary so promotions cut and
	// hot-plug while the infected workload runs.
	if err := vm.Run(scenarioBudget, func() bool {
		hub.Drain()
		return task.State == kernel.TaskDead
	}); err != nil {
		return safetyResult{}, err
	}
	if task.State != kernel.TaskDead {
		return safetyResult{}, fmt.Errorf("victim %s did not finish", a.Victim)
	}
	if err := hub.Close(); err != nil {
		return safetyResult{}, err
	}
	evo.AdvanceAll()

	st := eng.Stats()
	est := evo.Stats()
	promoted := evo.PromotedRanges(a.Victim)
	attackPromoted := false
	for _, v := range eng.Verdicts() {
		if v.Class.Suspect() && promoted.Contains(v.Addr) {
			attackPromoted = true
		}
	}
	return safetyResult{
		Attack:         a,
		Flagged:        st.Suspicious() > 0,
		Promotions:     est.Generations,
		Denied:         est.Denied + est.DeniedHits,
		AttackPromoted: attackPromoted,
		Drops:          hub.Drops(),
	}, nil
}

// formatEvolutionSafety renders the safety soak like Table II.
func formatEvolutionSafety(results []safetyResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-9s %-6s %-7s %s\n", "Name", "Flagged", "Cuts", "Denied", "AttackPromoted")
	for _, r := range results {
		fmt.Fprintf(&b, "%-14s %-9v %-6d %-7d %v\n",
			r.Attack.Name, r.Flagged, r.Promotions, r.Denied, r.AttackPromoted)
	}
	return b.String()
}
