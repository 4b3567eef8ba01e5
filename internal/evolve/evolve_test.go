package evolve

import (
	"errors"
	"strings"
	"testing"

	"facechange/internal/detect"
	"facechange/internal/kview"
	"facechange/internal/mem"
	"facechange/internal/telemetry"
)

const testTextSize = 0x100000

// rec builds a benign-shaped recovery event for a base-kernel function
// span at the given text offset.
func rec(comm string, cycle uint64, off, size uint32, fn string) telemetry.Event {
	start := mem.KernelTextGVA + off
	return telemetry.Event{
		Kind:    telemetry.KindRecovery,
		Cycle:   cycle,
		Comm:    comm,
		Addr:    start + 2,
		FnStart: start,
		FnEnd:   start + size,
		Fn:      fn + "+0x2",
	}
}

// eng builds an engine where "top" has a baseline admitting good_fn and
// good2_fn; any other recovered function is out-of-baseline (suspicious).
func eng(t *testing.T) *detect.Engine {
	t.Helper()
	return detect.New(detect.Config{
		Baselines: map[string]map[string]bool{
			"top": {"good_fn": true, "good2_fn": true},
		},
	})
}

func newEvolver(t *testing.T, cfg Config) *Evolver {
	t.Helper()
	if cfg.Detector == nil {
		cfg.Detector = eng(t)
	}
	if cfg.TextSize == 0 {
		cfg.TextSize = testTextSize
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestHysteresisPromotion(t *testing.T) {
	var published []Generation
	e := newEvolver(t, Config{
		MinHits: 3, MinWindows: 2, WindowCycles: 100,
		Publish: func(app string, gen uint64, v *kview.View) error {
			published = append(published, Generation{App: app, Gen: gen, View: v})
			return nil
		},
	})

	// Two hits in window 0: below both thresholds.
	e.HandleEvent(rec("top", 10, 0x1000, 0x40, "good_fn"))
	e.HandleEvent(rec("top", 20, 0x1000, 0x40, "good_fn"))
	if st := e.Stats(); st.Crossed != 0 || st.Apps["top"].Candidates != 1 {
		t.Fatalf("premature crossing: %+v", st)
	}
	// Third hit in window 1: 3 hits across 2 windows — crossed, pending.
	e.HandleEvent(rec("top", 150, 0x1000, 0x40, "good_fn"))
	if st := e.Stats(); st.Crossed != 1 || st.Generations != 0 {
		t.Fatalf("want crossed=1 pending, got %+v", st)
	}
	// An event in window 2 cuts the generation.
	e.HandleEvent(rec("top", 250, 0x2000, 0x20, "good2_fn"))
	st := e.Stats()
	if st.Generations != 1 || st.PromotedRanges != 1 || st.PromotedBytes != 0x40 {
		t.Fatalf("want one generation of one 0x40-byte range, got %+v", st)
	}
	if len(published) != 1 || published[0].App != "top" || published[0].Gen != 1 {
		t.Fatalf("publish calls: %+v", published)
	}
	v, gen := e.View("top")
	if gen != 1 {
		t.Fatalf("generation = %d, want 1", gen)
	}
	if !v.Ranges(kview.BaseKernel).Contains(mem.KernelTextGVA + 0x1010) {
		t.Fatalf("promoted span missing from generation 1: %v", v.Ranges(kview.BaseKernel))
	}
	as := st.Apps["top"]
	if as.BytesExposed != 0x40 || as.TextPct == 0 {
		t.Fatalf("attack-surface accounting: %+v", as)
	}
	gens := e.Generations()
	if len(gens) != 1 || gens[0].BytesExposed != 0x40 || gens[0].PromotedBytes != 0x40 {
		t.Fatalf("history: %+v", gens)
	}
}

func TestSingleBurstDoesNotPromote(t *testing.T) {
	e := newEvolver(t, Config{MinHits: 3, MinWindows: 2, WindowCycles: 1000})
	// Many hits, all inside one window: the M-windows leg must hold.
	for i := uint64(0); i < 20; i++ {
		e.HandleEvent(rec("top", 10+i, 0x1000, 0x40, "good_fn"))
	}
	e.AdvanceAll()
	if st := e.Stats(); st.Generations != 0 || st.Crossed != 0 {
		t.Fatalf("burst promoted: %+v", st)
	}
}

func TestSuspectVerdictDenies(t *testing.T) {
	e := newEvolver(t, Config{MinHits: 2, MinWindows: 1, WindowCycles: 100})
	// evil_fn is outside top's baseline → ClassSuspicious → deny.
	e.HandleEvent(rec("top", 10, 0x3000, 0x40, "evil_fn"))
	// Benign-shaped hits on the same span afterwards must be discarded.
	for i := uint64(0); i < 10; i++ {
		e.HandleEvent(rec("top", 20+i*100, 0x3000, 0x40, "good_fn"))
	}
	e.AdvanceAll()
	st := e.Stats()
	if st.Generations != 0 {
		t.Fatalf("denied span promoted: %+v", st)
	}
	if st.Denied != 1 || st.DeniedHits != 10 {
		t.Fatalf("deny accounting: %+v", st)
	}
	spans := e.ExportApp("top").Denied
	if len(spans) != 1 || spans[0].Start != mem.KernelTextGVA+0x3000 {
		t.Fatalf("deny-list: %+v", spans)
	}
	if rl := e.PromotedRanges("top"); rl.Size() != 0 {
		t.Fatalf("promoted ranges: %v", rl)
	}
}

func TestUnknownOriginDenies(t *testing.T) {
	e := newEvolver(t, Config{MinHits: 1, MinWindows: 1, WindowCycles: 100})
	ev := rec("sshd", 10, 0x4000, 0x40, "good_fn")
	ev.Fn = "UNKNOWN"
	e.HandleEvent(ev)
	e.AdvanceAll()
	if st := e.Stats(); st.Generations != 0 || st.Denied != 1 {
		t.Fatalf("unknown-origin handling: %+v", st)
	}
}

func TestLateVerdictPurgesPending(t *testing.T) {
	e := newEvolver(t, Config{MinHits: 2, MinWindows: 2, WindowCycles: 100})
	// Cross the threshold with benign evidence…
	e.HandleEvent(rec("top", 10, 0x5000, 0x40, "good_fn"))
	e.HandleEvent(rec("top", 150, 0x5000, 0x40, "good_fn"))
	if st := e.Stats(); st.Crossed != 1 {
		t.Fatalf("not crossed: %+v", st)
	}
	// …then a suspect verdict for the same span lands before the cut: the
	// pending promotion must be purged, not shipped.
	e.HandleEvent(rec("top", 160, 0x5000, 0x40, "evil_fn"))
	e.HandleEvent(rec("top", 500, 0x2000, 0x20, "good2_fn")) // later window: would cut
	e.AdvanceAll()
	st := e.Stats()
	if st.Generations != 0 || st.PendingPurged != 1 {
		t.Fatalf("late verdict did not purge: %+v", st)
	}
}

func TestInterruptAndModuleEventsNeverPromote(t *testing.T) {
	e := newEvolver(t, Config{MinHits: 1, MinWindows: 1})
	irq := rec("gzip", 10, 0x6000, 0x40, "good_fn")
	irq.Interrupt = true
	e.HandleEvent(irq)

	modAddr := mem.ModuleGVA + 0x100
	mod := telemetry.Event{
		Kind: telemetry.KindRecovery, Cycle: 20, Comm: "gzip",
		Addr: modAddr, FnStart: modAddr, FnEnd: modAddr + 0x40, Fn: "mod_fn+0x0",
	}
	e.HandleEvent(mod)
	e.AdvanceAll()
	st := e.Stats()
	if st.Generations != 0 || st.Interrupt != 1 || st.Skipped != 1 {
		t.Fatalf("interrupt/module handling: %+v", st)
	}
}

func TestSessionRestartCountsDistinctWindows(t *testing.T) {
	e := newEvolver(t, Config{MinHits: 2, MinWindows: 2, WindowCycles: 1000})
	// One hit late in session A, one hit early in session B (cycle counter
	// restarts): same raw window index, but distinct sessions — the
	// hysteresis must see two windows, not one.
	e.HandleEvent(rec("bash", 500, 0x7000, 0x40, "good_fn"))
	e.HandleEvent(rec("bash", 100, 0x7000, 0x40, "good_fn")) // cycle went backwards
	gens := e.AdvanceAll()
	if len(gens) != 1 || gens[0].App != "bash" {
		t.Fatalf("session-restart windows not distinct: %+v (stats %+v)", gens, e.Stats())
	}
}

func TestSeedViewGrowsNotReplaced(t *testing.T) {
	seed := kview.NewView("top")
	seed.Insert(kview.BaseKernel, mem.KernelTextGVA, mem.KernelTextGVA+0x100)
	e := newEvolver(t, Config{
		Views:   map[string]*kview.View{"top": seed},
		MinHits: 1, MinWindows: 1, WindowCycles: 100,
	})
	e.HandleEvent(rec("top", 10, 0x8000, 0x40, "good_fn"))
	gens := e.AdvanceAll()
	if len(gens) != 1 {
		t.Fatalf("no generation: %+v", e.Stats())
	}
	v, _ := e.View("top")
	rl := v.Ranges(kview.BaseKernel)
	if !rl.Contains(mem.KernelTextGVA+0x10) || !rl.Contains(mem.KernelTextGVA+0x8010) {
		t.Fatalf("generation 1 lost seed or promoted ranges: %v", rl)
	}
	if seed.Ranges(kview.BaseKernel).Contains(mem.KernelTextGVA + 0x8010) {
		t.Fatal("seed view was mutated")
	}
	if got := gens[0].BytesExposed; got != 0x140 {
		t.Fatalf("bytes exposed = %#x, want 0x140", got)
	}
}

func TestMaxGenerationsSuppresses(t *testing.T) {
	e := newEvolver(t, Config{MinHits: 1, MinWindows: 1, WindowCycles: 100, maxGenerations: 2})
	for i := uint32(0); i < 5; i++ {
		e.HandleEvent(rec("top", uint64(10+i*200), 0x1000+i*0x100, 0x40, "good_fn"))
	}
	e.AdvanceAll()
	st := e.Stats()
	if st.Apps["top"].Gen != 2 || st.Suppressed == 0 {
		t.Fatalf("cap not enforced: %+v", st)
	}
}

func TestPublishErrorRecorded(t *testing.T) {
	boom := errors.New("boom")
	e := newEvolver(t, Config{
		MinHits: 1, MinWindows: 1, WindowCycles: 100,
		Publish: func(string, uint64, *kview.View) error { return boom },
	})
	e.HandleEvent(rec("top", 10, 0x1000, 0x40, "good_fn"))
	gens := e.AdvanceAll()
	st := e.Stats()
	if st.PublishErrors != 1 || !errors.Is(e.LastErr(), boom) {
		t.Fatalf("publish error not recorded: %+v, lastErr=%v", st, e.LastErr())
	}
	// The generation is still cut — the next cut ships the full view.
	if len(gens) != 1 || gens[0].PublishErr == "" || st.Generations != 1 {
		t.Fatalf("generation dropped on publish error: %+v", gens)
	}
}

func TestWriteMetrics(t *testing.T) {
	e := newEvolver(t, Config{MinHits: 1, MinWindows: 1, WindowCycles: 100})
	e.HandleEvent(rec("top", 10, 0x1000, 0x40, "good_fn"))
	e.HandleEvent(rec("top", 20, 0x3000, 0x40, "evil_fn"))
	e.AdvanceAll()
	var sb strings.Builder
	w := telemetry.NewMetricsWriter(&sb)
	e.WriteMetrics(w)
	out := sb.String()
	for _, want := range []string{
		"facechange_evolve_generations_total 1",
		"facechange_evolve_denied_total 1",
		"facechange_evolve_promoted_ranges_total 1",
		`facechange_evolve_generation{app="top"} 1`,
		`facechange_evolve_bytes_exposed{app="top"} 64`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, out)
		}
	}
}
