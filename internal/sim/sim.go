// Package sim is a seeded, deterministic fault-injection simulator for the
// FACE-CHANGE runtime. It drives a full core.Runtime through long
// randomized event traces — context switches across many PIDs and vCPUs,
// UD2 trap storms, interleaved view hotplug, module load/hide churn and
// concurrent pool profiling — while a pluggable injector fails or corrupts
// the runtime's guest-memory channels. After every step it checks the
// runtime's safety invariants:
//
//   - switch-state consistency: every vCPU's active and deferred view
//     indices name loaded views; armed resume flags balance the shared
//     breakpoint refcount;
//   - cache refcount balance: the shadow-page cache tracks exactly the
//     references the loaded views hold — no leaks, no double frees;
//   - EPT agreement: each vCPU's mappings match its active view's shadow
//     pages (the freed-page tripwire);
//   - view isolation: every shadow byte equals the pristine kernel byte or
//     the UD2 filler pattern — no foreign bytes ever land in a view;
//   - recovery fidelity: every range the runtime recorded as recovered is
//     byte-identical to the pristine kernel code.
//
// Runs are reproducible: the same seed and configuration produce the same
// event trace and the same digest, so a failing seed is a replayable bug
// report (see cmd/fcsim).
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"facechange/internal/core"
	"facechange/internal/detect"
	"facechange/internal/evolve"
	"facechange/internal/kernel"
	"facechange/internal/kview"
	"facechange/internal/mem"
	"facechange/internal/telemetry"
)

// Config parameterizes a simulation run. The zero value of every field is
// replaced by a sensible default.
type Config struct {
	// Seed drives the event stream and the injector (default 1).
	Seed int64
	// Steps is the number of events a Run executes (default 1000).
	Steps int
	// CPUs is the number of vCPUs (default 2, max 8).
	CPUs int
	// Faults selects the live injection channels (default none).
	Faults FaultKind
	// FaultRate is the per-operation injection probability (default 0.01).
	FaultRate float64
	// Workers bounds pool-profiling concurrency (default 2).
	Workers int
	// MaxViews caps concurrently loaded views (default 6).
	MaxViews int
	// CheckEvery is the full-sweep cadence in steps (default 2000): byte
	// isolation and recovery fidelity of every loaded view.
	CheckEvery int
	// lightEvery is the cadence of the cheap periodic checks (default
	// 16): cache balance and sampled EPT agreement.
	lightEvery int
	// poolEvery rate-limits pool-profiling events (default 2000 steps).
	poolEvery int
	// NoPool disables pool-profiling events entirely.
	NoPool bool
	// LegacySwitch drives the runtime with the paper's per-entry EPT
	// rewrite switch path instead of the default precomputed-snapshot
	// root swap (core.Options.SnapshotSwitch).
	LegacySwitch bool
	// Mix selects the event mix: "default"; "churn" for a module load/hide
	// and view hotplug heavy stream that stresses snapshot and
	// module-list-cache invalidation; or "migrate" for the default mix plus
	// a steady stream of live view migrations onto a second target runtime
	// (freeze, canonical image round-trip, restore, commit — with the
	// occasional scripted abort).
	Mix string
	// SharedCore enables the shared-core runtime policy
	// (core.Options.SharedCore): co-scheduled apps on one vCPU run under a
	// merged union view, so quantum-frequency switching collapses into
	// elisions. Changes the digest (merged views load, actives differ);
	// checkSharedCore adds merge-registry invariants to every sweep.
	SharedCore bool
	// SharedCoreAdaptive enables the adaptive variant
	// (core.Options.SharedCoreAdaptive): merges are gated on per-vCPU
	// switch pressure, and unknown-origin recovery verdicts split their
	// app's view out of any union (deny-listed from future merges). The
	// split fires from the hub's drain side at the deterministic check
	// cadence, so the digest stays reproducible. Implies SharedCore.
	SharedCoreAdaptive bool
	// SharedCoreWindow overrides the adaptive rate window in cycles
	// (0 = core.DefaultSharedCoreRateWindow).
	SharedCoreWindow uint64
	// NoTelemetry detaches the telemetry pipeline (on by default: the
	// runtime streams through a Hub into the aggregator and the detection
	// engine, and the per-step checks verify stream completeness).
	// Telemetry charges no simulated cycles, so digests are identical with
	// and without it.
	NoTelemetry bool
	// Sinks are extra telemetry sinks appended after the built-in ones
	// (counting sink, aggregator, detection engine) — cmd/fcmon attaches a
	// JSONL writer here. Ignored under NoTelemetry.
	Sinks []telemetry.Sink
	// Evolve attaches the online view-evolution loop: an evolver consumes
	// the stream behind the detection engine's verdict gate and hot-plugs
	// promoted generations into the runtime mid-churn. The per-step checks
	// then cover promotion racing unload/load/switch traffic. Ignored
	// under NoTelemetry. Changes the digest (promotions load views).
	Evolve bool
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (c *Config) defaults() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Steps <= 0 {
		c.Steps = 1000
	}
	if c.CPUs <= 0 {
		c.CPUs = 2
	}
	if c.CPUs > 8 {
		c.CPUs = 8
	}
	if c.FaultRate <= 0 {
		c.FaultRate = 0.01
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.MaxViews <= 0 {
		c.MaxViews = 6
	}
	if c.CheckEvery <= 0 {
		c.CheckEvery = 2000
	}
	if c.lightEvery <= 0 {
		c.lightEvery = 16
	}
	if c.poolEvery <= 0 {
		c.poolEvery = 2000
	}
	if c.Mix == "" {
		c.Mix = "default"
	}
}

// Result summarizes a run.
type Result struct {
	// Steps is the number of events executed.
	Steps int
	// Digest is the deterministic trace digest (equal across identical
	// runs).
	Digest uint64
	// Events counts executed events per kind.
	Events [numKinds]uint64
	// FaultsInjected and Corruptions count injector activity; Errors
	// counts events whose application returned an (expected) error.
	FaultsInjected, Corruptions, Errors uint64
	// Recoveries, InstantRecoveries and ViewSwitches mirror the runtime's
	// counters at the end of the run.
	Recoveries, InstantRecoveries, ViewSwitches uint64
	// ElidedSwitches counts same-view switch decisions skipped; under
	// SharedCore, MergedViewLoads counts union views built and
	// MergedViewSplits counts unions retired by suspect-verdict splits.
	ElidedSwitches, MergedViewLoads, MergedViewSplits uint64
	// Loads, Unloads and PoolRuns count successful hotplug operations and
	// pool-profiling rounds.
	Loads, Unloads, PoolRuns uint64
	// Migrations counts completed live migrations onto the target runtime;
	// MigrateAborts counts migrations thawed on the scripted abort path.
	Migrations, MigrateAborts uint64
	// LiveViews is the number of views still loaded at the end.
	LiveViews int
	// Cache is the shadow-page cache's final state.
	Cache mem.CacheStats
	// Telemetry summarizes the event pipeline (zero when disabled).
	Telemetry TelemetrySummary
	// Evolve summarizes the evolution loop (zero when disabled).
	Evolve EvolveSummary
	// Violation is the failed invariant, or nil for a clean run.
	Violation *Violation
}

// TelemetrySummary is the pipeline's end-of-run state.
type TelemetrySummary struct {
	// Enabled reports whether the pipeline was attached.
	Enabled bool
	// Emitted and Drops are the hub's intake counters; Consumed is the
	// number of events delivered to sinks.
	Emitted, Drops, Consumed uint64
	// UnknownVerdicts and SuspectVerdicts count the detection engine's
	// unknown-origin classifications and total suspected-attack verdicts.
	UnknownVerdicts, SuspectVerdicts uint64
}

// EvolveSummary is the evolution loop's end-of-run state.
type EvolveSummary struct {
	// Enabled reports whether the loop was attached.
	Enabled bool
	// Generations, PromotedRanges and PromotedBytes total the cut
	// promotions; Denied counts suspect-verdict events refused.
	Generations, PromotedRanges, PromotedBytes, Denied uint64
	// PublishErrors counts hot-plug publishes that failed (cache pressure
	// under fault injection is the only tolerated cause).
	PublishErrors uint64
}

// Summary renders the result for humans.
func (r *Result) Summary() string {
	var b strings.Builder
	status := "OK"
	if r.Violation != nil {
		status = "VIOLATION"
	}
	fmt.Fprintf(&b, "%d steps, digest %016x [%s]\n", r.Steps, r.Digest, status)
	var parts []string
	for k, n := range r.Events {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%s %d", Kind(k), n))
		}
	}
	fmt.Fprintf(&b, "events:     %s\n", strings.Join(parts, ", "))
	fmt.Fprintf(&b, "faults:     %d injected, %d corruptions, %d events errored\n",
		r.FaultsInjected, r.Corruptions, r.Errors)
	fmt.Fprintf(&b, "runtime:    %d switches (%d elided), %d recoveries (%d instant)\n",
		r.ViewSwitches, r.ElidedSwitches, r.Recoveries, r.InstantRecoveries)
	if r.MergedViewLoads > 0 || r.MergedViewSplits > 0 {
		fmt.Fprintf(&b, "sharedcore: %d merged views built, %d split on suspicion\n", r.MergedViewLoads, r.MergedViewSplits)
	}
	fmt.Fprintf(&b, "hotplug:    %d loads, %d unloads, %d live, %d pool runs\n",
		r.Loads, r.Unloads, r.LiveViews, r.PoolRuns)
	if r.Migrations > 0 || r.MigrateAborts > 0 {
		fmt.Fprintf(&b, "migrate:    %d completed, %d aborted (thawed)\n", r.Migrations, r.MigrateAborts)
	}
	fmt.Fprintf(&b, "page cache: %d distinct, %d deduped, %.0f%% dedup, %d privatized\n",
		r.Cache.DistinctPages, r.Cache.DedupedPages, 100*r.Cache.DedupRatio(), r.Cache.Privatized)
	if r.Telemetry.Enabled {
		fmt.Fprintf(&b, "telemetry:  %d events, %d drops, %d unknown-origin verdicts (%d suspect total)\n",
			r.Telemetry.Consumed, r.Telemetry.Drops, r.Telemetry.UnknownVerdicts, r.Telemetry.SuspectVerdicts)
	}
	if r.Evolve.Enabled {
		fmt.Fprintf(&b, "evolve:     %d generations, %d ranges (+%dB), %d denied, %d publish errors\n",
			r.Evolve.Generations, r.Evolve.PromotedRanges, r.Evolve.PromotedBytes,
			r.Evolve.Denied, r.Evolve.PublishErrors)
	}
	return b.String()
}

// Simulator owns one simulated machine and its runtime under test.
type Simulator struct {
	cfg Config
	k   *kernel.Kernel
	rt  *core.Runtime
	inj *Injector

	// rng drives event generation and in-event choices; crng drives
	// invariant-check sampling, kept separate so checking cadence never
	// perturbs the event stream.
	rng  *rand.Rand
	crng *rand.Rand

	ctxAddr    uint32
	resumeAddr uint32
	textSize   uint32
	// textFuncs are the base-kernel functions UD2 storms and synthetic
	// views draw from.
	textFuncs []*kernel.Func

	weights     [numKinds]int
	weightTotal int

	profiled []*kview.View
	synCount int
	lastPool int
	step     int

	// migRT is the lazily booted migration-target runtime (no injector,
	// no emitter — its state never perturbs the source's telemetry
	// parity); migImported tracks imported view indices so long runs cap
	// the target's population.
	migRT       *core.Runtime
	migImported []int

	dig  *digest
	ring []string

	tel *simTelemetry

	res Result
}

// simTelemetry is the simulator's attached event pipeline: the hub the
// runtime emits into, the standard sinks, and an independent counting sink
// the stream-completeness invariant compares against the runtime's own
// counters.
type simTelemetry struct {
	hub *telemetry.Hub
	agg *telemetry.Aggregator
	eng *detect.Engine
	evo *evolve.Evolver // nil unless Config.Evolve

	// Counted by the counting sink, independently of the aggregator and
	// the engine (all mutation happens on the draining goroutine).
	recoveries uint64 // KindRecovery events seen
	unknown    uint64 // ...whose provenance is unresolvable
}

func newSimTelemetry(cpus int, extra []telemetry.Sink, rt *core.Runtime, evolveOn, splitOn bool) (*simTelemetry, error) {
	t := &simTelemetry{
		agg: telemetry.NewAggregator(0),
		eng: detect.New(detect.Config{}),
	}
	count := telemetry.SinkFunc(func(ev telemetry.Event) {
		if ev.Kind == telemetry.KindRecovery {
			t.recoveries++
			if detect.UnknownOrigin(ev) {
				t.unknown++
				if splitOn && ev.Comm != "" {
					// The adaptive shared-core verdict hook: an
					// unknown-origin recovery suspects its app, so split
					// its view out of any union and deny future merges.
					// Sinks run on the hub's drain side (the sim drains at
					// check cadence, never inside a trap), which is the
					// only side SplitShared may be called from.
					rt.SplitShared(ev.Comm)
				}
			}
		}
	})
	sinks := []telemetry.Sink{count, t.agg, t.eng}
	if evolveOn {
		// Gate on the same engine the pipeline feeds; short hysteresis so
		// churn-driven recoveries actually promote within a run, with
		// hot-plug straight into the runtime under test.
		evo, err := evolve.New(evolve.Config{
			Detector:     t.eng,
			MinHits:      2,
			MinWindows:   1,
			WindowCycles: 1_000_000,
			TextSize:     rt.TextSize(),
			Publish:      evolve.PublishToRuntime(rt),
		})
		if err != nil {
			return nil, err
		}
		t.evo = evo
		sinks = append(sinks, evo)
	}
	sinks = append(sinks, extra...)
	t.hub = telemetry.NewHub(telemetry.HubConfig{
		CPUs:  cpus,
		Sinks: sinks,
	})
	return t, nil
}

// New boots a simulation machine: a KVM-environment kernel with one
// standard module loaded, a runtime with snapshot switching on top of the
// paper's default options (core.FastOptions; cfg.LegacySwitch reverts to
// the paper's rewrite path), and an armed-on-demand fault injector.
func New(cfg Config) (*Simulator, error) {
	cfg.defaults()
	weights, err := mixWeights(cfg.Mix)
	if err != nil {
		return nil, err
	}
	k, err := kernel.New(kernel.Config{Clock: kernel.ClockKVM, NCPU: cfg.CPUs})
	if err != nil {
		return nil, fmt.Errorf("sim: boot kernel: %w", err)
	}
	if _, err := k.LoadModule("af_packet"); err != nil {
		return nil, fmt.Errorf("sim: boot module: %w", err)
	}
	opts := core.FastOptions()
	if cfg.LegacySwitch {
		opts = core.DefaultOptions()
	}
	opts.SharedCore = cfg.SharedCore || cfg.SharedCoreAdaptive
	opts.SharedCoreAdaptive = cfg.SharedCoreAdaptive
	opts.SharedCoreRateWindow = cfg.SharedCoreWindow
	rt, err := core.New(core.Setup{
		Machine:  k.M,
		Symbols:  k.Syms,
		TextSize: k.Img.TextSize(),
		Opts:     opts,
	})
	if err != nil {
		return nil, fmt.Errorf("sim: attach runtime: %w", err)
	}
	inj := NewInjector(cfg.Seed^0x5DEECE66D, cfg.Faults, cfg.FaultRate)
	rt.SetFaultInjector(inj)
	var tel *simTelemetry
	if !cfg.NoTelemetry {
		// The hub is drained synchronously at check cadence (no background
		// goroutine), so the event stream stays deterministic and every
		// check sees a fully flushed pipeline — promotions cut by the
		// evolution loop land at those same deterministic points.
		tel, err = newSimTelemetry(cfg.CPUs, cfg.Sinks, rt, cfg.Evolve, cfg.SharedCoreAdaptive)
		if err != nil {
			return nil, fmt.Errorf("sim: attach evolution loop: %w", err)
		}
		rt.SetEmitter(tel.hub)
	}
	rt.Enable()

	s := &Simulator{
		cfg:        cfg,
		k:          k,
		rt:         rt,
		inj:        inj,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		crng:       rand.New(rand.NewSource(cfg.Seed ^ 0x1F123BB5)),
		ctxAddr:    k.Syms.MustAddr("context_switch"),
		resumeAddr: k.Syms.MustAddr("resume_userspace"),
		textSize:   k.Img.TextSize(),
		weights:    weights,
		dig:        newDigest(),
		tel:        tel,
	}
	for _, w := range weights {
		s.weightTotal += w
	}
	for _, f := range k.Syms.Funcs() {
		if f.Module == "" && f.Size >= 16 && f.Addr >= mem.KernelTextGVA &&
			f.End() <= mem.KernelTextGVA+s.textSize {
			s.textFuncs = append(s.textFuncs, f)
		}
	}
	if len(s.textFuncs) == 0 {
		return nil, fmt.Errorf("sim: no base-kernel functions in symbol table")
	}
	return s, nil
}

// Pipeline exposes the attached telemetry pipeline — the hub the runtime
// emits into, the aggregator and the detection engine — or all nil when
// the run was configured with NoTelemetry. cmd/fcmon serves /metrics and
// /events from these.
func (s *Simulator) Pipeline() (*telemetry.Hub, *telemetry.Aggregator, *detect.Engine) {
	if s.tel == nil {
		return nil, nil, nil
	}
	return s.tel.hub, s.tel.agg, s.tel.eng
}

// Evolver exposes the attached evolution loop (nil unless Config.Evolve)
// — a live telemetry.MetricSource for cmd/fcmon and cmd/fcsim.
func (s *Simulator) Evolver() *evolve.Evolver {
	if s.tel == nil {
		return nil
	}
	return s.tel.evo
}

// Run executes cfg.Steps generated events and a final full sweep.
func (s *Simulator) Run() (*Result, error) {
	for i := 0; i < s.cfg.Steps; i++ {
		if v := s.stepEvent(s.genEvent()); v != nil {
			return s.finish(v)
		}
		if s.cfg.Logf != nil && s.step%10000 == 0 {
			s.cfg.Logf("step %d: %d recoveries, %d switches, %d views live",
				s.step, s.rt.Recoveries, s.rt.ViewSwitches, len(s.rt.LoadedIndices()))
		}
	}
	return s.finish(s.finalSweep())
}

// maxScriptEvents bounds scripted runs (fuzzing inputs).
const maxScriptEvents = 100000

// RunScript executes events decoded from a byte script — the fuzz entry
// point. The same appliers and checkers run as in Run.
func (s *Simulator) RunScript(script []byte) (*Result, error) {
	evs := DecodeScript(script)
	if len(evs) > maxScriptEvents {
		evs = evs[:maxScriptEvents]
	}
	for _, ev := range evs {
		if v := s.stepEvent(ev); v != nil {
			return s.finish(v)
		}
	}
	return s.finish(s.finalSweep())
}

// Run is the convenience entry: boot, run, summarize. The returned error
// (if any) is the *Violation.
func Run(cfg Config) (*Result, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// stepEvent applies one event and runs the per-step checks, returning a
// violation or nil.
func (s *Simulator) stepEvent(ev Event) *Violation {
	s.step++
	s.recordRing(ev)
	s.res.Events[ev.Kind]++

	s.inj.BeginEvent()
	s.inj.Arm(true)
	err := s.apply(ev)
	s.inj.Arm(false)

	var errByte byte
	if err != nil {
		// An event may fail only for a reason the simulation created:
		// injected faults or deliberate cache pressure. Anything else is a
		// runtime bug.
		if s.inj.EventActivity() > 0 || errors.Is(err, mem.ErrCachePressure) {
			s.res.Errors++
			errByte = 1
		} else {
			return s.violation(ev, fmt.Sprintf("unexpected runtime error: %v", err))
		}
	}

	actives := make([]int, s.cfg.CPUs)
	for c := range actives {
		actives[c] = s.rt.ActiveView(c)
	}
	s.dig.event(ev, errByte, actives, s.rt.Recoveries, s.rt.ViewSwitches, len(s.rt.LoadedIndices()))

	if err := s.rt.CheckSwitchState(); err != nil {
		return s.violation(ev, err.Error())
	}
	if s.step%s.cfg.lightEvery == 0 {
		if err := s.checkCacheBalance(); err != nil {
			return s.violation(ev, err.Error())
		}
		if err := s.checkEPT(false); err != nil {
			return s.violation(ev, err.Error())
		}
		if err := s.checkTelemetry(); err != nil {
			return s.violation(ev, err.Error())
		}
	}
	if s.step%s.cfg.CheckEvery == 0 {
		if err := s.CheckAll(); err != nil {
			return s.violation(ev, err.Error())
		}
		if s.cfg.Logf != nil {
			s.cfg.Logf("step %d: full sweep clean", s.step)
		}
	}
	return nil
}

// finalSweep runs the full checks one last time.
func (s *Simulator) finalSweep() *Violation {
	if err := s.CheckAll(); err != nil {
		return &Violation{Step: s.step, Event: "final sweep", Desc: err.Error(), Trace: append([]string(nil), s.ring...)}
	}
	if err := s.checkTelemetry(); err != nil {
		return &Violation{Step: s.step, Event: "final sweep", Desc: err.Error(), Trace: append([]string(nil), s.ring...)}
	}
	return nil
}

// checkTelemetry drains the pipeline and verifies stream completeness
// against the runtime's own counters:
//
//   - no ring drops at the configured capacity;
//   - every recovery the runtime performed is exactly one KindRecovery
//     event, every committed switch exactly one switch event, and every
//     elided switch exactly one elided-switch event;
//   - every unknown-provenance recovery yielded exactly one unknown-origin
//     classification in the detection engine.
func (s *Simulator) checkTelemetry() error {
	if s.tel == nil {
		return nil
	}
	s.tel.hub.Drain()
	if d := s.tel.hub.Drops(); d != 0 {
		return fmt.Errorf("telemetry: %d ring drops (capacity %d)", d, telemetry.DefaultRingSize)
	}
	if s.tel.recoveries != s.rt.Recoveries {
		return fmt.Errorf("telemetry: %d recovery events vs %d runtime recoveries", s.tel.recoveries, s.rt.Recoveries)
	}
	st := s.tel.agg.Stats()
	if st.Switches != s.rt.ViewSwitches {
		return fmt.Errorf("telemetry: %d switch events vs %d runtime switches", st.Switches, s.rt.ViewSwitches)
	}
	if el := st.ByKind[telemetry.KindElidedSwitch]; el != s.rt.ElidedSwitches {
		return fmt.Errorf("telemetry: %d elided-switch events vs %d runtime elisions", el, s.rt.ElidedSwitches)
	}
	if got := s.tel.eng.Stats().ByClass[detect.ClassUnknownOrigin]; got != s.tel.unknown {
		return fmt.Errorf("telemetry: %d unknown-origin verdicts vs %d unknown-provenance recoveries", got, s.tel.unknown)
	}
	return s.checkEvolve()
}

// checkEvolve verifies the evolution loop's safety mid-churn:
//
//   - every promoted range lies inside the base kernel text;
//   - no generation cut after a suspect verdict promoted a range containing
//     that verdict's origin (the gate denies and purges the span, so only a
//     promotion that already happened may cover the address — the sim's
//     baseline-free engine raises rate anomalies on benign recoveries, which
//     makes the temporal form the right invariant, not set intersection);
//   - a failed hot-plug publish is explained by cache pressure, never by
//     anything the simulation didn't create.
func (s *Simulator) checkEvolve() error {
	if s.tel == nil || s.tel.evo == nil {
		return nil
	}
	evo := s.tel.evo
	if err := evo.LastErr(); err != nil && !errors.Is(err, mem.ErrCachePressure) {
		return fmt.Errorf("evolve: unexplained publish error: %v", err)
	}
	for app := range evo.Stats().Apps {
		for _, rg := range evo.PromotedRanges(app) {
			if rg.Start < mem.KernelTextGVA || rg.End > mem.KernelTextGVA+s.textSize {
				return fmt.Errorf("evolve: %s promoted [%#x,%#x) outside kernel text", app, rg.Start, rg.End)
			}
		}
	}
	gens := evo.Generations()
	for _, v := range s.tel.eng.Verdicts() {
		if !v.Class.Suspect() {
			continue
		}
		for _, g := range gens {
			if g.App == v.Comm && g.Cycle > v.Cycle && g.NewRanges.Contains(v.Addr) {
				return fmt.Errorf("evolve: %s gen %d (cycle %d) promoted suspect origin %#x (%s, verdict cycle %d)",
					v.Comm, g.Gen, g.Cycle, v.Addr, v.Fn, v.Cycle)
			}
		}
	}
	return nil
}

// ringSize is the number of trailing events kept for violation reports.
const ringSize = 24

func (s *Simulator) recordRing(ev Event) {
	s.ring = append(s.ring, fmt.Sprintf("step %d: %s", s.step, ev))
	if len(s.ring) > ringSize {
		s.ring = s.ring[1:]
	}
}

func (s *Simulator) violation(ev Event, desc string) *Violation {
	return &Violation{
		Step:  s.step,
		Event: ev.String(),
		Desc:  desc,
		Trace: append([]string(nil), s.ring...),
	}
}

func (s *Simulator) finish(v *Violation) (*Result, error) {
	s.res.Steps = s.step
	s.res.Digest = s.dig.sum()
	s.res.FaultsInjected = s.inj.Injected
	s.res.Corruptions = s.inj.Corrupted
	s.res.Recoveries = s.rt.Recoveries
	s.res.InstantRecoveries = s.rt.InstantRecoveries
	s.res.ViewSwitches = s.rt.ViewSwitches
	s.res.ElidedSwitches = s.rt.ElidedSwitches
	s.res.MergedViewLoads = s.rt.MergedViewLoads
	s.res.MergedViewSplits = s.rt.MergedViewSplits
	s.res.LiveViews = len(s.rt.LoadedIndices())
	s.res.Cache = s.rt.CacheStats()
	if s.tel != nil {
		s.tel.hub.Drain()
		st := s.tel.eng.Stats()
		s.res.Telemetry = TelemetrySummary{
			Enabled:         true,
			Emitted:         s.tel.hub.Emitted(),
			Drops:           s.tel.hub.Drops(),
			Consumed:        s.tel.agg.Stats().Total,
			UnknownVerdicts: st.ByClass[detect.ClassUnknownOrigin],
			SuspectVerdicts: st.Suspicious(),
		}
		if s.tel.evo != nil {
			est := s.tel.evo.Stats()
			s.res.Evolve = EvolveSummary{
				Enabled:        true,
				Generations:    est.Generations,
				PromotedRanges: est.PromotedRanges,
				PromotedBytes:  est.PromotedBytes,
				Denied:         est.Denied + est.DeniedHits,
				PublishErrors:  est.PublishErrors,
			}
		}
	}
	s.res.Violation = v
	res := s.res
	if v != nil {
		return &res, v
	}
	return &res, nil
}

// sortedInts returns a sorted copy (tiny helper for deterministic walks).
func sortedInts(in []int) []int {
	out := append([]int(nil), in...)
	sort.Ints(out)
	return out
}
