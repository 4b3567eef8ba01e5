package detect

import (
	"strings"
	"testing"

	"facechange/internal/telemetry"
)

func rec(comm, fn string, cycle uint64, mod func(*telemetry.Event)) telemetry.Event {
	ev := telemetry.Event{Kind: telemetry.KindRecovery, Comm: comm, Fn: fn, Cycle: cycle, View: comm}
	if mod != nil {
		mod(&ev)
	}
	return ev
}

func TestUnknownOrigin(t *testing.T) {
	if !UnknownOrigin(rec("x", "UNKNOWN", 0, nil)) {
		t.Error("UNKNOWN fn not flagged")
	}
	if !UnknownOrigin(rec("x", "sys_read+0x0", 0, func(ev *telemetry.Event) {
		ev.Backtrace = []telemetry.Frame{{Addr: 0xf8100000, Sym: "UNKNOWN"}}
	})) {
		t.Error("UNKNOWN module-area backtrace frame not flagged")
	}
	if UnknownOrigin(rec("x", "sys_read+0x0", 0, nil)) {
		t.Error("known fn flagged")
	}
	// A raw stack value in the frame chain (interrupt entry) symbolizes as
	// UNKNOWN but is not in a code area — not an attack signal.
	if UnknownOrigin(rec("x", "sys_read+0x0", 0, func(ev *telemetry.Event) {
		ev.Backtrace = []telemetry.Frame{{Addr: 0xc0903fb4, Sym: "UNKNOWN"}}
	})) {
		t.Error("non-code UNKNOWN frame flagged")
	}
	if UnknownOrigin(telemetry.Event{Kind: telemetry.KindSwitch, Fn: "UNKNOWN"}) {
		t.Error("non-recovery event flagged")
	}
}

func TestClassificationTaxonomy(t *testing.T) {
	e := New(Config{Baselines: map[string]map[string]bool{
		"nginx": {"tcp_sendmsg": true},
	}})
	cases := []struct {
		ev   telemetry.Event
		want Class
	}{
		// Unknown origin wins over everything, including the baseline.
		{rec("nginx", "UNKNOWN", 1, nil), ClassUnknownOrigin},
		// Baseline miss outranks the benign interrupt flag.
		{rec("nginx", "filp_open+0x10", 2, func(ev *telemetry.Event) { ev.Interrupt = true }), ClassSuspicious},
		// In-baseline recovery with flags → benign classes.
		{rec("nginx", "tcp_sendmsg+0x4", 3, func(ev *telemetry.Event) { ev.Interrupt = true }), ClassInterrupt},
		{rec("nginx", "tcp_sendmsg+0x8", 4, func(ev *telemetry.Event) { ev.Instant = true }), ClassInstant},
		{rec("nginx", "tcp_sendmsg+0xc", 5, nil), ClassLazy},
		// No baseline configured → lazy, never suspicious.
		{rec("sshd", "filp_open+0x10", 6, nil), ClassLazy},
	}
	for i, tc := range cases {
		if got := e.classify(tc.ev); got != tc.want {
			t.Errorf("case %d (%s/%s): class = %v, want %v", i, tc.ev.Comm, tc.ev.Fn, got, tc.want)
		}
	}
}

func TestVerdictsOnlyForSuspectClasses(t *testing.T) {
	e := New(Config{Baselines: map[string]map[string]bool{"app": {"good_fn": true}}})
	e.HandleEvent(rec("app", "good_fn+0x0", 1, nil))                                               // lazy
	e.HandleEvent(rec("app", "good_fn+0x4", 2, func(ev *telemetry.Event) { ev.Interrupt = true })) // interrupt
	e.HandleEvent(rec("app", "good_fn+0x8", 3, func(ev *telemetry.Event) { ev.Instant = true }))   // instant
	e.HandleEvent(rec("app", "evil_fn+0x0", 4, nil))                                               // suspicious
	e.HandleEvent(rec("app", "UNKNOWN", 5, nil))                                                   // unknown
	e.HandleEvent(telemetry.Event{Kind: telemetry.KindSwitch, Comm: "app"})                        // ignored

	st := e.Stats()
	if st.Recoveries != 5 {
		t.Fatalf("Recoveries = %d, want 5", st.Recoveries)
	}
	if st.ByClass[ClassLazy] != 1 || st.ByClass[ClassInterrupt] != 1 || st.ByClass[ClassInstant] != 1 ||
		st.ByClass[ClassSuspicious] != 1 || st.ByClass[ClassUnknownOrigin] != 1 {
		t.Fatalf("ByClass = %v", st.ByClass)
	}
	vs := e.Verdicts()
	if len(vs) != 2 {
		t.Fatalf("verdicts = %d, want 2 (suspicious + unknown)", len(vs))
	}
	if vs[0].Class != ClassSuspicious || vs[1].Class != ClassUnknownOrigin {
		t.Fatalf("verdict classes = %v, %v", vs[0].Class, vs[1].Class)
	}
	if !strings.Contains(vs[0].Reason, "evil_fn") {
		t.Fatalf("suspicious reason = %q", vs[0].Reason)
	}
	app := st.Apps["app"]
	if app.Recoveries != 5 || app.Suspect != 2 {
		t.Fatalf("app stats = %+v", app)
	}
}

func TestRateAnomalyWindow(t *testing.T) {
	e := New(Config{windowCycles: 1000, rateThreshold: 3})
	// Three unknown-origin recoveries inside one window → one rate verdict
	// on top of the three unknown verdicts.
	for i := uint64(0); i < 3; i++ {
		e.HandleEvent(rec("mal", "UNKNOWN", 100+i*10, nil))
	}
	vs := e.Verdicts()
	if len(vs) != 4 {
		t.Fatalf("verdicts = %d, want 4", len(vs))
	}
	if vs[3].Class != ClassRateAnomaly || vs[3].Score < 1 {
		t.Fatalf("last verdict = %+v", vs[3])
	}
	// Staying over threshold must not re-alert within the same window...
	e.HandleEvent(rec("mal", "UNKNOWN", 130, nil))
	if st := e.Stats(); st.ByClass[ClassRateAnomaly] != 1 {
		t.Fatalf("rate anomalies = %d, want 1", st.ByClass[ClassRateAnomaly])
	}
	// ...but once the window drains, the alert rearms.
	e.HandleEvent(rec("mal", "UNKNOWN", 5000, nil))
	e.HandleEvent(rec("mal", "UNKNOWN", 5010, nil))
	e.HandleEvent(rec("mal", "UNKNOWN", 5020, nil))
	if st := e.Stats(); st.ByClass[ClassRateAnomaly] != 2 {
		t.Fatalf("rate anomalies after rearm = %d, want 2", st.ByClass[ClassRateAnomaly])
	}
}

func TestSparseSuspectsNoRateAnomaly(t *testing.T) {
	e := New(Config{windowCycles: 100, rateThreshold: 3})
	for i := uint64(0); i < 10; i++ {
		e.HandleEvent(rec("slow", "UNKNOWN", i*1000, nil)) // one per 10 windows
	}
	st := e.Stats()
	if st.ByClass[ClassRateAnomaly] != 0 {
		t.Fatalf("rate anomalies = %d, want 0 for sparse events", st.ByClass[ClassRateAnomaly])
	}
	if st.Apps["slow"].Score >= 1 {
		t.Fatalf("score = %v, want < 1", st.Apps["slow"].Score)
	}
}

func TestVerdictRetentionCap(t *testing.T) {
	e := New(Config{maxVerdicts: 2})
	for i := uint64(0); i < 5; i++ {
		e.HandleEvent(rec("mal", "UNKNOWN", i, nil))
	}
	st := e.Stats()
	if len(e.Verdicts()) != 2 {
		t.Fatalf("retained = %d, want 2", len(e.Verdicts()))
	}
	if st.Verdicts != 5 || st.VerdictsDropped != 3 {
		t.Fatalf("verdicts/dropped = %d/%d, want 5/3", st.Verdicts, st.VerdictsDropped)
	}
}

func TestStatsSuspiciousAndMetrics(t *testing.T) {
	e := New(Config{})
	e.HandleEvent(rec("mal", "UNKNOWN", 1, nil))
	e.HandleEvent(rec("ok", "sys_read+0x0", 2, nil))
	st := e.Stats()
	if st.Suspicious() != 1 {
		t.Fatalf("Suspicious() = %d, want 1", st.Suspicious())
	}

	var sb strings.Builder
	e.WriteMetrics(telemetry.NewMetricsWriter(&sb))
	body := sb.String()
	for _, want := range []string{
		`facechange_detect_classified_total{class="unknown-origin"} 1`,
		`facechange_detect_classified_total{class="lazy"} 1`,
		"facechange_detect_verdicts_total 1",
		"facechange_detect_apps 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}
}
