package load

import (
	"strings"
	"testing"
)

// goldenTraceDigest pins generation for the default configuration
// (seed 1, 12 apps, skew 1.1 implied by the caller below, 100000 events).
// Any change to the generator's draw order, the event encoding or the
// Zipf sampler shows up here before it silently shifts every tracked
// benchmark number.
const goldenTraceDigest = "9f512ffbb8e08f4d"

func defaultTrace(t *testing.T) *Trace {
	t.Helper()
	tr, err := GenTrace(TraceConfig{Seed: 1, Skew: 1.1})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTraceGoldenDigest(t *testing.T) {
	if got := defaultTrace(t).DigestString(); got != goldenTraceDigest {
		t.Fatalf("trace digest = %s, want %s (generator output changed)", got, goldenTraceDigest)
	}
}

func TestTraceDeterminism(t *testing.T) {
	a, b := defaultTrace(t), defaultTrace(t)
	if a.Digest() != b.Digest() {
		t.Fatalf("same seed, different digests: %s vs %s", a.DigestString(), b.DigestString())
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("same seed, different lengths: %d vs %d", len(a.Events), len(b.Events))
	}
	c, err := GenTrace(TraceConfig{Seed: 2, Skew: 1.1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest() == c.Digest() {
		t.Fatal("different seeds produced the same digest")
	}
}

func TestTraceConfigValidation(t *testing.T) {
	for _, bad := range []TraceConfig{
		{Skew: -1},
		{Arrival: "bursty"},
		{Shape: "sawtooth"},
	} {
		if _, err := GenTrace(bad); err == nil {
			t.Errorf("GenTrace(%+v) accepted an invalid config", bad)
		}
	}
	tr, err := GenTrace(TraceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tr.Cfg
	if cfg.Seed != 1 || cfg.Apps != 12 || cfg.Events != 100000 || cfg.Arrival != "open" || cfg.Shape != "steady" {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

func TestZipfShares(t *testing.T) {
	uniform, err := GenTrace(TraceConfig{Seed: 1, Skew: 0, Events: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range uniform.Shares {
		if s < 1.0/12-1e-9 || s > 1.0/12+1e-9 {
			t.Fatalf("uniform share[%d] = %f, want 1/12", i, s)
		}
	}
	skewed, err := GenTrace(TraceConfig{Seed: 1, Skew: 1.5, Events: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(skewed.Shares); i++ {
		if skewed.Shares[i] >= skewed.Shares[i-1] {
			t.Fatalf("skewed shares not strictly decreasing at rank %d: %v", i, skewed.Shares)
		}
	}
}

func TestOpenLoopTimestampsMonotonic(t *testing.T) {
	tr := defaultTrace(t)
	last := uint64(0)
	for i, ev := range tr.Events {
		if ev.At < last {
			t.Fatalf("event %d arrives at %d before previous %d", i, ev.At, last)
		}
		last = ev.At
	}
	if last == 0 {
		t.Fatal("open-loop trace has no timeline")
	}
}

func TestShardCoverage(t *testing.T) {
	tr := defaultTrace(t)
	shards := shard(tr, 3)
	total := 0
	for r, sh := range shards {
		total += len(sh)
		for _, ev := range sh {
			if int(ev.App)%3 != r {
				t.Fatalf("app %d event landed in shard %d", ev.App, r)
			}
		}
	}
	if total != len(tr.Events) {
		t.Fatalf("shards cover %d events, trace has %d", total, len(tr.Events))
	}
}

// smallRun replays a short trace; shared by the determinism and SLO tests.
func smallRun(t *testing.T, seed int64, legacy bool) *Report {
	t.Helper()
	tr, err := GenTrace(TraceConfig{Seed: seed, Skew: 1.1, Events: 3000})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(RunConfig{Trace: tr, Runtimes: 2, Legacy: legacy})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestRunDeterminism(t *testing.T) {
	a, b := smallRun(t, 1, false), smallRun(t, 1, false)
	if a.ReportDigest != b.ReportDigest {
		t.Fatalf("same seed, different report digests: %s vs %s", a.ReportDigest, b.ReportDigest)
	}
	if a.Aggregate.All.P99 != b.Aggregate.All.P99 || a.Counters.Recoveries != b.Counters.Recoveries {
		t.Fatalf("same digest but diverging numbers: %+v vs %+v", a.Aggregate.All, b.Aggregate.All)
	}
	if c := smallRun(t, 2, false); c.ReportDigest == a.ReportDigest {
		t.Fatal("different seeds produced the same report digest")
	}
}

func TestRunShape(t *testing.T) {
	rep := smallRun(t, 3, false)
	if rep.Counters.Events != 3000 {
		t.Fatalf("replayed %d events, want 3000", rep.Counters.Events)
	}
	if len(rep.Apps) != 12 {
		t.Fatalf("report has %d app rows, want 12", len(rep.Apps))
	}
	if rep.Counters.Recoveries == 0 || rep.Counters.Switches == 0 {
		t.Fatalf("degenerate run: %+v", rep.Counters)
	}
	if rep.Aggregate.All.Count == 0 || rep.Aggregate.All.P99 < rep.Aggregate.All.P50 {
		t.Fatalf("broken aggregate summary: %+v", rep.Aggregate.All)
	}
	if rep.Telemetry.Total == 0 {
		t.Fatal("no telemetry captured")
	}
	if rep.TraceDigest == "" || rep.ReportDigest == "" {
		t.Fatal("missing digests")
	}
	var events uint64
	for _, a := range rep.Apps {
		events += a.Events
	}
	if events != rep.Counters.Events-rep.Counters.IdleSwitches {
		t.Fatalf("per-app events sum %d, want %d", events, rep.Counters.Events-rep.Counters.IdleSwitches)
	}
	if out := rep.Format(); !strings.Contains(out, "trace digest") || !strings.Contains(out, "per-app") {
		t.Fatalf("Format output incomplete:\n%s", out)
	}
}

func TestLegacyPathRuns(t *testing.T) {
	rep := smallRun(t, 1, true)
	if rep.Counters.Switches == 0 {
		t.Fatal("legacy path made no switches")
	}
	if !rep.Config.Legacy {
		t.Fatal("legacy flag not echoed into the report")
	}
}

func TestClosedLoopRun(t *testing.T) {
	tr, err := GenTrace(TraceConfig{Seed: 4, Events: 2000, Arrival: "closed", Think: 3000})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(RunConfig{Trace: tr, Runtimes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counters.Events != 2000 {
		t.Fatalf("closed-loop replayed %d events", rep.Counters.Events)
	}
	// Think time is charged before the arrival snapshot, so samples are
	// pure service time — and every serviced event pays at least one VM
	// exit.
	if rep.Aggregate.All.Min < 2000 {
		t.Fatalf("closed-loop min %d below a VM exit", rep.Aggregate.All.Min)
	}
}

func TestFleetRun(t *testing.T) {
	tr, err := GenTrace(TraceConfig{Seed: 6, Events: 2000})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(RunConfig{Trace: tr, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fleet == nil {
		t.Fatal("fleet run produced no fleet section")
	}
	if !rep.Fleet.Converged {
		t.Fatal("fleet did not converge on the catalog digest")
	}
	if len(rep.Fleet.JoinBytes) != 2 || rep.Fleet.JoinBytes[0] == 0 {
		t.Fatalf("join bytes = %v", rep.Fleet.JoinBytes)
	}
	if rep.Fleet.RelayedEvents == 0 {
		t.Fatal("no telemetry relayed to the central hub")
	}
	if rep.Counters.Events != 2000 {
		t.Fatalf("fleet replayed %d events, want 2000", rep.Counters.Events)
	}
}

// TestFleetRunSharded drives the same trace through a 3-shard plane and
// pins the equivalence contract: sharding changes the control-plane
// topology — ring-partitioned catalog, homing dialers, relay path — but
// never the replay, so the report digest matches the one-shard fleet run
// and the telemetry accounting at the aggregator is identical.
func TestFleetRunSharded(t *testing.T) {
	tr, err := GenTrace(TraceConfig{Seed: 6, Events: 2000})
	if err != nil {
		t.Fatal(err)
	}
	single, err := Run(RunConfig{Trace: tr, Nodes: 2}) // one shard
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Run(RunConfig{Trace: tr, Nodes: 2, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Fleet == nil || sharded.Fleet.Shards != 3 {
		t.Fatalf("fleet section = %+v, want 3 shards", sharded.Fleet)
	}
	if !sharded.Fleet.Converged {
		t.Fatal("sharded fleet did not converge on the catalog digest")
	}
	if sharded.ReportDigest != single.ReportDigest {
		t.Fatalf("sharding changed the replay: digest %s != one-shard %s",
			sharded.ReportDigest, single.ReportDigest)
	}
	if sharded.Fleet.RelayedEvents != single.Fleet.RelayedEvents {
		t.Fatalf("relay path lost or duplicated events: %d relayed, one shard saw %d",
			sharded.Fleet.RelayedEvents, single.Fleet.RelayedEvents)
	}
	if sharded.Fleet.RelayedEvents == 0 {
		t.Fatal("no telemetry reached the aggregator hub")
	}
}

func TestParseSLOs(t *testing.T) {
	tests := []struct {
		spec    string
		want    int
		wantErr bool
	}{
		{"", 0, false},
		{"p99=40000", 1, false},
		{"p99=40000,recovery.p999=200000", 2, false},
		{"switch.p95=1, resume.max=2 ,wall.p50=3", 3, false},
		{"p99", 0, true},
		{"p99=abc", 0, true},
		{"p98=5", 0, true},
		{"queue.p99=5", 0, true},
	}
	for _, tt := range tests {
		got, err := ParseSLOs(tt.spec)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseSLOs(%q) error = %v, wantErr %v", tt.spec, err, tt.wantErr)
			continue
		}
		if !tt.wantErr && len(got) != tt.want {
			t.Errorf("ParseSLOs(%q) = %d bounds, want %d", tt.spec, len(got), tt.want)
		}
	}
}

func TestSLOGate(t *testing.T) {
	rep := smallRun(t, 1, false)
	pass, _ := ParseSLOs("max=18446744073709551615")
	if !rep.ApplySLOs(pass) {
		t.Fatalf("unbounded SLO failed: %+v", rep.SLO)
	}
	fail, _ := ParseSLOs("recovery.p50=1")
	if rep.ApplySLOs(fail) {
		t.Fatal("1-cycle recovery SLO passed")
	}
	if len(rep.SLO) != 1 || rep.SLO[0].Pass || rep.SLO[0].Actual == 0 {
		t.Fatalf("SLO verdict not recorded: %+v", rep.SLO)
	}
}

// TestRunSharedCore: the shared-core policy must build merged views,
// convert re-switches into elisions, keep the replay deterministic, and
// be digest-visible against the same trace without it.
func TestRunSharedCore(t *testing.T) {
	tr, err := GenTrace(TraceConfig{Seed: 1, Skew: 1.1, Events: 3000})
	if err != nil {
		t.Fatal(err)
	}
	scRun := func() *Report {
		rep, err := Run(RunConfig{Trace: tr, Runtimes: 2, SharedCore: true})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := scRun(), scRun()
	if a.ReportDigest != b.ReportDigest {
		t.Fatalf("sharedcore not deterministic: %s vs %s", a.ReportDigest, b.ReportDigest)
	}
	if a.Counters.MergedViewLoads == 0 {
		t.Fatal("no merged views built with SharedCore on")
	}
	if a.Counters.ElidedSwitches == 0 {
		t.Fatal("no elided switches with SharedCore on")
	}
	base, err := Run(RunConfig{Trace: tr, Runtimes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if base.ReportDigest == a.ReportDigest {
		t.Fatalf("SharedCore is digest-invisible: %s both ways", a.ReportDigest)
	}
	if a.Counters.Switches >= base.Counters.Switches {
		t.Fatalf("SharedCore did not reduce committed switches: %d vs base %d",
			a.Counters.Switches, base.Counters.Switches)
	}
}
