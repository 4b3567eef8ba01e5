// Package detect is a streaming detection engine over the FACE-CHANGE
// telemetry stream. Every kernel code recovery is an out-of-view execution
// — the paper's detection signal — and the engine classifies each one by
// its provenance (Section III-B3's taxonomy):
//
//   - unknown origin: the recovered code or a backtrace frame symbolizes
//     as UNKNOWN — execution from code the guest does not admit to
//     (a hidden module, Figure 5's KBeast signature). Always a verdict.
//   - out of baseline: the recovered function is absent from the
//     application's known clean-run recovery set — the administrator's
//     Table II diff, evaluated online. A verdict when a baseline is
//     configured for the process.
//   - interrupt context: the call stack shows interrupt entry (benign
//     case i); counted, no verdict.
//   - instant recovery: a return-site "0B 0F" misparse repaired during a
//     backtrace; counted, no verdict.
//   - lazy recovery: in-baseline (or baseline-less) recovery of known
//     kernel code — incomplete profiling; counted, no verdict.
//
// On top of the per-event classes the engine keeps per-application anomaly
// counters with rate-window scoring: suspicious recoveries inside a
// sliding cycle window raise the application's score, and crossing the
// threshold emits one rate-anomaly verdict per window.
package detect

import (
	"fmt"
	"strings"
	"sync"

	"facechange/internal/mem"
	"facechange/internal/telemetry"
)

// Class is a verdict classification.
type Class uint8

const (
	// ClassUnknownOrigin marks recoveries whose code or call chain has no
	// guest-admitted origin — the strongest attack signal.
	ClassUnknownOrigin Class = iota
	// ClassSuspicious marks recoveries of known kernel code outside the
	// application's clean-run baseline.
	ClassSuspicious
	// ClassRateAnomaly marks an application whose suspicious-recovery
	// rate crossed the window threshold.
	ClassRateAnomaly
	// ClassInterrupt marks benign interrupt-context recoveries.
	ClassInterrupt
	// ClassInstant marks benign instant recoveries.
	ClassInstant
	// ClassLazy marks benign lazy recoveries of in-baseline (or
	// baseline-less) kernel code.
	ClassLazy

	// NumClasses is the number of classes.
	NumClasses
)

var classNames = [NumClasses]string{
	"unknown-origin", "suspicious", "rate-anomaly", "interrupt", "instant", "lazy",
}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Suspect reports whether the class indicates a suspected attack (a
// verdict-worthy class rather than a benign counter).
func (c Class) Suspect() bool {
	return c == ClassUnknownOrigin || c == ClassSuspicious || c == ClassRateAnomaly
}

// Verdict is one structured detection output.
type Verdict struct {
	Class Class
	// Cycle, CPU, PID, Comm, View, Addr and Fn carry the triggering
	// recovery's context (for rate anomalies: the recovery that crossed
	// the threshold).
	Cycle uint64
	CPU   int
	PID   int
	Comm  string
	View  string
	Addr  uint32
	Fn    string
	// Score is the application's rate-window score at emission
	// (suspicious recoveries in window / threshold).
	Score float64
	// Reason is a one-line human rendering of the classification.
	Reason string
}

func (v Verdict) String() string {
	return fmt.Sprintf("[%s] comm=%s pid=%d view=%s fn=%s addr=0x%08x score=%.2f: %s",
		v.Class, v.Comm, v.PID, v.View, v.Fn, v.Addr, v.Score, v.Reason)
}

// Config parameterizes an Engine. The zero value is usable: no baselines
// (every known-provenance recovery is lazy/benign) and default rate
// window.
type Config struct {
	// Baselines maps an application name (guest comm) to the set of
	// kernel function base names (symbol without the +0x offset) its
	// clean runs are known to recover. A recovery by a baselined app of a
	// function outside its set classifies as ClassSuspicious.
	Baselines map[string]map[string]bool
	// windowCycles is the rate-scoring sliding window in simulated
	// cycles (default 200e6).
	windowCycles uint64
	// rateThreshold is the suspicious-recovery count per window that
	// raises a rate anomaly (default 16).
	rateThreshold int
	// maxVerdicts bounds retained verdicts; beyond it new verdicts are
	// still counted but not stored (default 4096).
	maxVerdicts int
}

func (c *Config) defaults() {
	if c.windowCycles == 0 {
		c.windowCycles = 200_000_000
	}
	if c.rateThreshold <= 0 {
		c.rateThreshold = 16
	}
	if c.maxVerdicts <= 0 {
		c.maxVerdicts = 4096
	}
}

// AppStats is one application's anomaly state.
type AppStats struct {
	// Recoveries counts all recovery events attributed to the app.
	Recoveries uint64
	// Suspect counts verdict-worthy recoveries (unknown + suspicious).
	Suspect uint64
	// Score is the latest rate-window score.
	Score float64
}

// Stats summarizes the engine's state.
type Stats struct {
	// Recoveries is the number of recovery events classified.
	Recoveries uint64
	// ByClass counts classifications (rate anomalies count the extra
	// rate verdicts, not recoveries).
	ByClass [NumClasses]uint64
	// Verdicts is the number of verdicts emitted (stored or not);
	// VerdictsDropped counts those beyond the retention cap.
	Verdicts, VerdictsDropped uint64
	// Apps is the per-application anomaly state.
	Apps map[string]AppStats
}

// Suspicious reports the total suspected-attack verdict count.
func (s Stats) Suspicious() uint64 {
	return s.ByClass[ClassUnknownOrigin] + s.ByClass[ClassSuspicious] + s.ByClass[ClassRateAnomaly]
}

// appState tracks one application's rate window.
type appState struct {
	st AppStats
	// window holds the cycles of recent suspect recoveries.
	window []uint64
	// alerted marks that a rate verdict fired for the current window; it
	// rearms once the window drains below threshold.
	alerted bool
}

// Engine consumes telemetry events and emits verdicts. It implements
// telemetry.Sink and telemetry.MetricSource; queries are safe concurrently
// with event handling.
type Engine struct {
	cfg Config

	mu       sync.Mutex
	apps     map[string]*appState
	verdicts []Verdict
	st       Stats
}

// New creates an engine.
func New(cfg Config) *Engine {
	cfg.defaults()
	return &Engine{cfg: cfg, apps: make(map[string]*appState)}
}

// UnknownOrigin reports whether a recovery event's provenance fails to
// resolve: the recovered function symbolizes as UNKNOWN, or a backtrace
// frame points into the kernel module area yet symbolizes as UNKNOWN —
// code at a module address the guest's module list does not admit, the
// hidden-module signature of Figure 5. Frames outside code areas (raw
// stack values interrupt entry leaves in the chain) routinely symbolize
// as UNKNOWN and are not an attack signal.
func UnknownOrigin(ev telemetry.Event) bool {
	if ev.Kind != telemetry.KindRecovery {
		return false
	}
	if ev.Fn == "UNKNOWN" {
		return true
	}
	for _, f := range ev.Backtrace {
		if f.Sym == "UNKNOWN" && mem.IsModuleGVA(f.Addr) {
			return true
		}
	}
	return false
}

// fnBase strips the +0x offset from a symbolized name.
func fnBase(sym string) string { return strings.SplitN(sym, "+", 2)[0] }

// Classify applies the provenance taxonomy to one recovery event without
// recording it — the read-only classification the evolution loop's verdict
// gate is keyed on. The engine's configuration is immutable after New, so
// Classify is safe for concurrent use and never perturbs HandleEvent's
// counters or rate windows. Non-recovery events classify as ClassLazy
// (callers gate on Kind first).
func (e *Engine) Classify(ev telemetry.Event) Class { return e.classify(ev) }

// HandleEvent implements telemetry.Sink: classify recovery events, keep
// everything else for free (the engine only reacts to recoveries).
func (e *Engine) HandleEvent(ev telemetry.Event) {
	if ev.Kind != telemetry.KindRecovery {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.st.Recoveries++
	app := e.apps[ev.Comm]
	if app == nil {
		app = &appState{}
		e.apps[ev.Comm] = app
	}
	app.st.Recoveries++

	class := e.classify(ev)
	e.st.ByClass[class]++
	if !class.Suspect() {
		e.updateScore(app, ev.Cycle)
		return
	}

	app.st.Suspect++
	app.window = append(app.window, ev.Cycle)
	score := e.updateScore(app, ev.Cycle)
	e.record(Verdict{
		Class: class,
		Cycle: ev.Cycle, CPU: ev.CPU, PID: ev.PID, Comm: ev.Comm,
		View: ev.View, Addr: ev.Addr, Fn: ev.Fn,
		Score:  score,
		Reason: e.reason(class, ev),
	})
	if score >= 1 && !app.alerted {
		app.alerted = true
		e.st.ByClass[ClassRateAnomaly]++
		e.record(Verdict{
			Class: ClassRateAnomaly,
			Cycle: ev.Cycle, CPU: ev.CPU, PID: ev.PID, Comm: ev.Comm,
			View: ev.View, Addr: ev.Addr, Fn: ev.Fn,
			Score: score,
			Reason: fmt.Sprintf("%d suspicious recoveries within %d cycles (threshold %d)",
				len(app.window), e.cfg.windowCycles, e.cfg.rateThreshold),
		})
	}
}

// classify applies the provenance taxonomy. Order matters: an unresolvable
// origin always wins; a baseline miss outranks the benign flags (the
// baseline already absorbed the clean run's interrupt- and instant-context
// recoveries).
func (e *Engine) classify(ev telemetry.Event) Class {
	if UnknownOrigin(ev) {
		return ClassUnknownOrigin
	}
	if base, ok := e.cfg.Baselines[ev.Comm]; ok && !base[fnBase(ev.Fn)] {
		return ClassSuspicious
	}
	switch {
	case ev.Interrupt:
		return ClassInterrupt
	case ev.Instant:
		return ClassInstant
	default:
		return ClassLazy
	}
}

func (e *Engine) reason(class Class, ev telemetry.Event) string {
	switch class {
	case ClassUnknownOrigin:
		return "out-of-view execution with unresolvable origin (hidden code)"
	case ClassSuspicious:
		return fmt.Sprintf("recovered %s outside the app's clean-run baseline", fnBase(ev.Fn))
	default:
		return class.String()
	}
}

// updateScore prunes the app's window to cfg.windowCycles behind now and
// returns the current score. A drained window rearms the rate alert.
func (e *Engine) updateScore(app *appState, now uint64) float64 {
	var cut uint64
	if now > e.cfg.windowCycles {
		cut = now - e.cfg.windowCycles
	}
	i := 0
	for i < len(app.window) && app.window[i] < cut {
		i++
	}
	app.window = app.window[i:]
	if len(app.window) < e.cfg.rateThreshold {
		app.alerted = false
	}
	app.st.Score = float64(len(app.window)) / float64(e.cfg.rateThreshold)
	return app.st.Score
}

func (e *Engine) record(v Verdict) {
	e.st.Verdicts++
	if len(e.verdicts) >= e.cfg.maxVerdicts {
		e.st.VerdictsDropped++
		return
	}
	e.verdicts = append(e.verdicts, v)
}

// Verdicts returns a copy of the retained verdicts in emission order.
func (e *Engine) Verdicts() []Verdict {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Verdict(nil), e.verdicts...)
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.st
	st.Apps = make(map[string]AppStats, len(e.apps))
	for name, app := range e.apps {
		st.Apps[name] = app.st
	}
	return st
}

// WriteMetrics implements telemetry.MetricSource.
func (e *Engine) WriteMetrics(w *telemetry.Writer) {
	st := e.Stats()
	for c := Class(0); c < NumClasses; c++ {
		w.Labeled("facechange_detect_classified_total", "recovery classifications by class", "counter",
			[][2]string{{"class", c.String()}}, float64(st.ByClass[c]))
	}
	w.Counter("facechange_detect_verdicts_total", "suspected-attack verdicts emitted", float64(st.Verdicts))
	w.Counter("facechange_detect_verdicts_dropped_total", "verdicts beyond the retention cap", float64(st.VerdictsDropped))
	w.Gauge("facechange_detect_apps", "applications with anomaly state", float64(len(st.Apps)))
}
