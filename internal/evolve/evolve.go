// Package evolve closes the loop from detection back to profiling — the
// online view-evolution subsystem. The paper's kernel views are frozen at
// profiling time, so any benign-but-unprofiled code path pays the recovery
// tax forever. KASR frames the fix: an offline training phase (our
// profiler) followed by online enforcement with gradual, evidence-driven
// permission updates. The Evolver is that online phase: it consumes the
// ordered telemetry stream, aggregates benign recovery events per
// application into candidate ranges, and — once a range crosses a
// hysteresis threshold (N hits across M distinct stream windows) —
// promotes it into a new view generation and publishes it (through the
// fleet catalog, or straight into a live runtime's LoadView hot-plug
// path).
//
// Because this is the first subsystem that widens security policy at
// runtime, promotion is gated on the detection engine's verdict, not a
// score: an event the engine classifies unknown-origin, out-of-baseline or
// rate-anomalous never feeds a candidate, and its function span lands on a
// per-application deny-list that permanently blocks the span — including
// purging a pending candidate the span had already earned through benign
// hits. Only known-provenance instant and lazy recoveries of base-kernel
// text are promotable; interrupt-context recoveries are session
// environment, not application evidence, and module recoveries are
// excluded (module load addresses move between sessions, so a promoted
// absolute span would be wrong by the next boot).
package evolve

import (
	"fmt"
	"sort"
	"sync"

	"facechange/internal/detect"
	"facechange/internal/kview"
	"facechange/internal/mem"
	"facechange/internal/profiler"
	"facechange/internal/telemetry"
)

// PublishFunc ships one freshly cut view generation, for example
// PublishToRuntime (direct hot-plug) or a fleet.Server's Publish (catalog
// push + delta sync to every node). A returned error is recorded, not
// fatal — the generation stays cut and queryable, and the next cut retries
// the full current view.
type PublishFunc func(app string, gen uint64, v *kview.View) error

// Config parameterizes an Evolver. Detector is required; everything else
// has a usable zero value.
type Config struct {
	// Detector classifies each recovery event's provenance. Suspect
	// classes (unknown-origin, out-of-baseline, rate-anomaly) deny the
	// event's span; only instant and lazy classifications are promotable.
	Detector *detect.Engine
	// Views seeds generation 0 per application. Applications absent from
	// the map evolve from an empty view.
	Views map[string]*kview.View
	// MinHits is the hysteresis hit threshold N (default 3): a candidate
	// span must be recovered at least N times before promotion.
	MinHits int
	// MinWindows is the hysteresis window threshold M (default 2): the N
	// hits must fall in at least M distinct stream windows, so a single
	// burst cannot promote.
	MinWindows int
	// WindowCycles is the stream window length in simulated cycles
	// (default 50e6). A cycle counter moving backwards (a fresh runtime
	// session feeding the same evolver) starts a new window epoch.
	WindowCycles uint64
	// TextSize is the base kernel text size, for the %-of-text attack-
	// surface metric (0 disables the bound check and the percentage).
	TextSize uint32
	// maxGenerations caps promotions per application (default 64) — a
	// runaway-workload backstop, not a tuning knob.
	maxGenerations int
	// Publish ships each cut generation. Nil: generations only accumulate
	// in the history (View returns the latest).
	Publish PublishFunc
}

func (c *Config) defaults() {
	if c.MinHits <= 0 {
		c.MinHits = 3
	}
	if c.MinWindows <= 0 {
		c.MinWindows = 2
	}
	if c.MinWindows > c.MinHits {
		c.MinWindows = c.MinHits
	}
	if c.WindowCycles == 0 {
		c.WindowCycles = 50_000_000
	}
	if c.maxGenerations <= 0 {
		c.maxGenerations = 64
	}
}

// Span is one candidate or promoted function range (absolute base-kernel
// text addresses, [Start, End)).
type Span struct {
	Start, End uint32
}

func (s Span) String() string { return fmt.Sprintf("[%#x,%#x)", s.Start, s.End) }

// winKey identifies one stream window: the session epoch (bumped whenever
// the application's cycle counter moves backwards — a fresh runtime) and
// the cycle window within it.
type winKey struct {
	epoch uint64
	win   uint64
}

// newer reports whether a is a strictly later window than b.
func (a winKey) newer(b winKey) bool {
	return a.epoch > b.epoch || (a.epoch == b.epoch && a.win > b.win)
}

// candidate accumulates benign evidence for one span.
type candidate struct {
	hits    int
	windows map[winKey]struct{}
}

// Generation records one promotion: the attack-surface accounting the
// /metrics endpoint and the CI artifact expose per generation.
type Generation struct {
	App string `json:"app"`
	// Gen is the application's generation counter (0 is the profiled
	// seed; the first promotion cuts generation 1).
	Gen uint64 `json:"gen"`
	// Cycle is the stream cycle at the cut.
	Cycle uint64 `json:"cycle"`
	// PromotedRanges and PromotedBytes measure the cut's delta;
	// PromotedBytes is the real growth of the view (overlap with already-
	// exposed code does not count). NewRanges are the delta's spans —
	// checkers compare them against suspect-verdict origins with a cycle
	// older than the cut to prove no promotion ever drew on attack
	// evidence.
	PromotedRanges int             `json:"promoted_ranges"`
	PromotedBytes  uint64          `json:"promoted_bytes"`
	NewRanges      kview.RangeList `json:"new_ranges,omitempty"`
	// BytesExposed is the view's total size after the cut, and TextPct
	// the base-kernel share of the kernel text it makes reachable.
	BytesExposed uint64  `json:"bytes_exposed"`
	TextPct      float64 `json:"text_pct"`
	// PublishErr records a failed publish ("" on success).
	PublishErr string `json:"publish_err,omitempty"`
	// View is the cut generation's full configuration.
	View *kview.View `json:"-"`
}

// appEvo is one application's evolution state.
type appEvo struct {
	name string
	base *kview.View // current generation's view
	gen  uint64

	cands   map[Span]*candidate
	denied  map[Span]detect.Class // hard deny-list, keyed by verdict class
	pending []Span                // crossed, awaiting the next cut
	pendWin winKey                // window of the first pending crossing

	lastCycle uint64
	epoch     uint64
	started   bool

	promoted kview.RangeList // every span ever promoted (absolute)

	st AppStats
}

// AppStats is one application's evolution counters.
type AppStats struct {
	// Gen is the current generation (0 until the first cut).
	Gen uint64
	// Recoveries counts recovery events attributed to the app; Eligible
	// the instant/lazy base-kernel-text subset feeding candidates.
	Recoveries, Eligible uint64
	// Denied counts suspect-class events (each also lands its span on the
	// deny-list); DeniedHits counts benign events discarded because their
	// span was already denied — evidence an attacker tried to launder.
	Denied, DeniedHits uint64
	// PendingPurged counts spans evicted from the pending set by a late
	// suspect verdict — crossings that never became a generation.
	PendingPurged uint64
	// PromotedRanges and PromotedBytes total across generations.
	PromotedRanges uint64
	PromotedBytes  uint64
	// BytesExposed and TextPct describe the current generation.
	BytesExposed uint64
	TextPct      float64
	// Candidates is the live (not yet crossed) candidate count.
	Candidates int
}

// Stats snapshots the evolver.
type Stats struct {
	// Recoveries counts recovery events seen; Skipped the ones outside
	// promotable base-kernel text (module recoveries, malformed spans).
	Recoveries, Skipped uint64
	// Interrupt counts interrupt-context recoveries (benign, never
	// promoted).
	Interrupt uint64
	// Eligible, Denied, DeniedHits and PendingPurged aggregate the
	// per-app counters.
	Eligible, Denied, DeniedHits, PendingPurged uint64
	// Crossed counts hysteresis crossings; Generations cut generations;
	// Suppressed crossings discarded at the maxGenerations cap.
	Crossed, Generations, Suppressed uint64
	// PromotedRanges and PromotedBytes total across all generations.
	PromotedRanges, PromotedBytes uint64
	// PublishErrors counts failed publishes.
	PublishErrors uint64
	// Apps is the per-application state.
	Apps map[string]AppStats
}

// Evolver is the incremental re-profiler. It implements telemetry.Sink
// (attach it to the hub that carries the runtime's stream) and
// telemetry.MetricSource. Queries are safe concurrently with event
// handling.
type Evolver struct {
	cfg Config

	mu      sync.Mutex
	apps    map[string]*appEvo
	history []Generation
	st      Stats
	lastErr error
}

// New creates an evolver.
func New(cfg Config) (*Evolver, error) {
	if cfg.Detector == nil {
		return nil, fmt.Errorf("evolve: config needs a Detector")
	}
	cfg.defaults()
	return &Evolver{cfg: cfg, apps: make(map[string]*appEvo)}, nil
}

// app returns (creating) the per-application state.
func (e *Evolver) app(name string) *appEvo {
	a := e.apps[name]
	if a == nil {
		base := e.cfg.Views[name]
		if base == nil {
			base = kview.NewView(name)
		}
		a = &appEvo{
			name:   name,
			base:   base,
			cands:  make(map[Span]*candidate),
			denied: make(map[Span]detect.Class),
		}
		a.st.BytesExposed = base.Size()
		a.st.TextPct = e.textPct(base)
		e.apps[name] = a
	}
	return a
}

func (e *Evolver) textPct(v *kview.View) float64 {
	if e.cfg.TextSize == 0 {
		return 0
	}
	return float64(v.Ranges(kview.BaseKernel).Size()) / float64(e.cfg.TextSize)
}

// span extracts the promotable function span from a recovery event, or
// ok=false for spans outside the base kernel text (module recoveries are
// recorded module-relative and their load addresses move; hidden code has
// no admitted span at all).
func (e *Evolver) span(ev telemetry.Event) (Span, bool) {
	if ev.FnStart == 0 || ev.FnEnd <= ev.FnStart {
		return Span{}, false
	}
	if mem.IsModuleGVA(ev.Addr) || ev.FnStart < mem.KernelTextGVA {
		return Span{}, false
	}
	end := mem.KernelTextGVA + uint32(mem.KernelTextMax)
	if e.cfg.TextSize > 0 {
		end = mem.KernelTextGVA + e.cfg.TextSize
	}
	if ev.FnEnd > end {
		return Span{}, false
	}
	return Span{Start: ev.FnStart, End: ev.FnEnd}, true
}

// HandleEvent implements telemetry.Sink: the aggregation described in the
// package comment. Only recovery events matter.
func (e *Evolver) HandleEvent(ev telemetry.Event) {
	if ev.Kind != telemetry.KindRecovery {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.st.Recoveries++
	a := e.app(ev.Comm)
	a.st.Recoveries++

	// Window bookkeeping: a cycle counter moving backwards means a fresh
	// runtime session started feeding this evolver; its windows must not
	// collide with the previous session's.
	if a.started && ev.Cycle < a.lastCycle {
		a.epoch++
	}
	a.started = true
	a.lastCycle = ev.Cycle
	w := winKey{epoch: a.epoch, win: ev.Cycle / e.cfg.WindowCycles}

	// The verdict gate. Keyed on the classification, not a score: any
	// suspect event permanently denies its span, and purges a pending or
	// accumulating candidate the span had already earned. The gate runs
	// before the cut check below so that a suspect event arriving in the
	// cut-triggering position purges its span before the cut ships — a
	// promoted range can never intersect a suspect event the evolver has
	// already seen.
	class := e.cfg.Detector.Classify(ev)
	span, ok := e.span(ev)
	suspect := class.Suspect()
	if suspect && ok {
		a.denied[span] = class
		delete(a.cands, span)
		for i, p := range a.pending {
			if p == span {
				a.pending = append(a.pending[:i], a.pending[i+1:]...)
				e.st.PendingPurged++
				a.st.PendingPurged++
				break
			}
		}
	}

	// Cut a pending generation once the stream has moved past the window
	// it was crossed in — promotion keeps pace with the stream without an
	// external clock.
	if len(a.pending) > 0 && w.newer(a.pendWin) {
		e.cut(a, ev.Cycle)
	}

	if suspect {
		e.st.Denied++
		a.st.Denied++
		return
	}
	if !ok {
		e.st.Skipped++
		return
	}
	if class == detect.ClassInterrupt {
		e.st.Interrupt++
		return
	}
	if _, bad := a.denied[span]; bad {
		e.st.DeniedHits++
		a.st.DeniedHits++
		return
	}
	e.st.Eligible++
	a.st.Eligible++

	c := a.cands[span]
	if c == nil {
		c = &candidate{windows: make(map[winKey]struct{})}
		a.cands[span] = c
	}
	c.hits++
	c.windows[w] = struct{}{}
	if c.hits >= e.cfg.MinHits && len(c.windows) >= e.cfg.MinWindows {
		delete(a.cands, span)
		e.st.Crossed++
		if a.gen >= uint64(e.cfg.maxGenerations) {
			e.st.Suppressed++
			return
		}
		if len(a.pending) == 0 {
			a.pendWin = w
		}
		a.pending = append(a.pending, span)
	}
}

// cut promotes an application's pending spans into the next view
// generation and publishes it. Called with e.mu held.
func (e *Evolver) cut(a *appEvo, cycle uint64) {
	var promo kview.RangeList
	for _, s := range a.pending {
		promo = promo.Insert(s.Start, s.End)
		a.promoted = a.promoted.Insert(s.Start, s.End)
	}
	nranges := len(a.pending)
	a.pending = a.pending[:0]

	next := profiler.NextGeneration(a.base, promo)
	grown := next.Size() - a.base.Size()
	a.base = next
	a.gen++

	g := Generation{
		App:            a.name,
		Gen:            a.gen,
		Cycle:          cycle,
		PromotedRanges: nranges,
		PromotedBytes:  grown,
		NewRanges:      promo,
		BytesExposed:   next.Size(),
		TextPct:        e.textPct(next),
		View:           next,
	}
	if e.cfg.Publish != nil {
		if err := e.cfg.Publish(a.name, a.gen, next); err != nil {
			e.st.PublishErrors++
			e.lastErr = err
			g.PublishErr = err.Error()
		}
	}
	e.history = append(e.history, g)
	e.st.Generations++
	e.st.PromotedRanges += uint64(nranges)
	e.st.PromotedBytes += grown
	a.st.Gen = a.gen
	a.st.PromotedRanges += uint64(nranges)
	a.st.PromotedBytes += grown
	a.st.BytesExposed = g.BytesExposed
	a.st.TextPct = g.TextPct
}

// AdvanceAll force-cuts every application's pending promotions — the epoch
// boundary for harnesses that step the workload in rounds (and the natural
// final flush before reading Generations). Returns the generations cut.
func (e *Evolver) AdvanceAll() []Generation {
	e.mu.Lock()
	defer e.mu.Unlock()
	before := len(e.history)
	names := make([]string, 0, len(e.apps))
	for name := range e.apps {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if a := e.apps[name]; len(a.pending) > 0 {
			e.cut(a, a.lastCycle)
		}
	}
	return append([]Generation(nil), e.history[before:]...)
}

// View returns an application's current generation view and its generation
// counter. Unknown applications return their configured (or empty) base at
// generation 0.
func (e *Evolver) View(app string) (*kview.View, uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	a := e.app(app)
	return a.base, a.gen
}

// PromotedRanges returns every span ever promoted for an application.
func (e *Evolver) PromotedRanges(app string) kview.RangeList {
	e.mu.Lock()
	defer e.mu.Unlock()
	if a := e.apps[app]; a != nil {
		return a.promoted.Clone()
	}
	return nil
}

// DeniedSpan is one deny-list entry with the verdict class that earned it
// — the class-preserving form live migration carries between nodes.
type DeniedSpan struct {
	Span
	Class detect.Class
}

// AppState is an application's portable evolution state: the current
// generation's view, the generation counter, and the deny-list. It is what
// a live migration ships so the learned profile survives the move.
type AppState struct {
	App    string
	Gen    uint64
	View   *kview.View
	Denied []DeniedSpan
}

// ExportApp snapshots an application's portable evolution state. Unknown
// applications export their configured (or empty) base at generation 0.
func (e *Evolver) ExportApp(app string) AppState {
	e.mu.Lock()
	defer e.mu.Unlock()
	a := e.app(app)
	st := AppState{App: app, Gen: a.gen, View: a.base}
	st.Denied = make([]DeniedSpan, 0, len(a.denied))
	for s, c := range a.denied {
		st.Denied = append(st.Denied, DeniedSpan{Span: s, Class: c})
	}
	sort.Slice(st.Denied, func(i, j int) bool {
		if st.Denied[i].Start != st.Denied[j].Start {
			return st.Denied[i].Start < st.Denied[j].Start
		}
		return st.Denied[i].End < st.Denied[j].End
	})
	return st
}

// ImportApp merges a migrated application's evolution state into this
// evolver. The generation counter is newest-wins: a strictly newer
// generation replaces the base view and counter (the same monotonic guard
// the fleet catalog applies); an older or equal one only contributes its
// deny-list. Deny-list entries always merge — a span denied anywhere in
// the fleet stays denied here — and purge any candidate or pending
// promotion the span had locally earned.
func (e *Evolver) ImportApp(st AppState) {
	e.mu.Lock()
	defer e.mu.Unlock()
	a := e.app(st.App)
	if st.Gen > a.gen && st.View != nil {
		a.base = st.View
		a.gen = st.Gen
		a.st.Gen = st.Gen
		a.st.BytesExposed = st.View.Size()
		a.st.TextPct = e.textPct(st.View)
	}
	for _, d := range st.Denied {
		if _, ok := a.denied[d.Span]; !ok {
			a.denied[d.Span] = d.Class
		}
		delete(a.cands, d.Span)
		for i, p := range a.pending {
			if p == d.Span {
				a.pending = append(a.pending[:i], a.pending[i+1:]...)
				e.st.PendingPurged++
				a.st.PendingPurged++
				break
			}
		}
	}
}

// Generations returns the full cut history, in cut order.
func (e *Evolver) Generations() []Generation {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Generation(nil), e.history...)
}

// Stats snapshots the evolver's counters.
func (e *Evolver) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.st
	st.Apps = make(map[string]AppStats, len(e.apps))
	for name, a := range e.apps {
		as := a.st
		as.Candidates = len(a.cands)
		st.Apps[name] = as
	}
	return st
}

// LastErr returns the most recent publish error (nil when none).
func (e *Evolver) LastErr() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastErr
}

// WriteMetrics implements telemetry.MetricSource: the per-generation
// attack-surface accounting on /metrics.
func (e *Evolver) WriteMetrics(w *telemetry.Writer) {
	st := e.Stats()
	w.Counter("facechange_evolve_recoveries_total", "recovery events seen by the evolver", float64(st.Recoveries))
	w.Counter("facechange_evolve_eligible_total", "benign base-kernel recoveries feeding candidates", float64(st.Eligible))
	w.Counter("facechange_evolve_denied_total", "suspect-verdict events denied from promotion", float64(st.Denied))
	w.Counter("facechange_evolve_denied_hits_total", "benign events discarded on deny-listed spans", float64(st.DeniedHits))
	w.Counter("facechange_evolve_pending_purged_total", "pending promotions purged by late suspect verdicts", float64(st.PendingPurged))
	w.Counter("facechange_evolve_generations_total", "view generations cut", float64(st.Generations))
	w.Counter("facechange_evolve_promoted_ranges_total", "code ranges promoted into views", float64(st.PromotedRanges))
	w.Counter("facechange_evolve_promoted_bytes_total", "bytes of kernel code promoted into views", float64(st.PromotedBytes))
	w.Counter("facechange_evolve_publish_errors_total", "generation publishes that failed", float64(st.PublishErrors))
	names := make([]string, 0, len(st.Apps))
	for name := range st.Apps {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		as := st.Apps[name]
		l := [][2]string{{"app", name}}
		w.Labeled("facechange_evolve_generation", "current view generation per application", "gauge", l, float64(as.Gen))
		w.Labeled("facechange_evolve_bytes_exposed", "view size in bytes per application", "gauge", l, float64(as.BytesExposed))
		w.Labeled("facechange_evolve_text_pct", "share of kernel text reachable per application", "gauge", l, as.TextPct)
	}
}
