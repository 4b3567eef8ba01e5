package load

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"strings"

	"facechange/internal/stats"
	"facechange/internal/telemetry"
)

// ConfigReport echoes the run's effective parameters into the report.
type ConfigReport struct {
	Seed     int64   `json:"seed"`
	Apps     int     `json:"apps"`
	Skew     float64 `json:"skew"`
	Events   int     `json:"events"`
	CPUs     int     `json:"cpus"`
	Arrival  string  `json:"arrival"`
	Rate     float64 `json:"rate"`
	Think    uint64  `json:"think"`
	Shape    string  `json:"shape"`
	Runtimes int     `json:"runtimes"`
	Legacy   bool    `json:"legacy"`
	Profile  bool    `json:"profile"`
	// SharedCore marks a merged-union-view run; folded into the report
	// digest only when set, so reports from existing modes keep their
	// digests.
	SharedCore bool `json:"sharedcore,omitempty"`
	Nodes      int  `json:"nodes,omitempty"`
	Shards     int  `json:"shards,omitempty"`
	// MigrateRate marks a live-migration run (migrations per 1000 events);
	// like SharedCore, folded into the digest only when set.
	MigrateRate float64 `json:"migrate_rate,omitempty"`
}

// OpLatency is the aggregate charged-cycle latency, overall and split by
// operation kind. Open-loop samples are sojourn times (completion minus
// arrival), so queueing delay under overload is visible in the tail.
type OpLatency struct {
	All      stats.Summary `json:"all"`
	Switch   stats.Summary `json:"switch"`
	Resume   stats.Summary `json:"resume"`
	Recovery stats.Summary `json:"recovery"`
}

// AppReport is one application's slice of the run.
type AppReport struct {
	App      string        `json:"app"`
	Share    float64       `json:"share"` // analytic Zipf popularity mass
	Events   uint64        `json:"events"`
	WarmHits uint64        `json:"warm_hits"`
	Switch   stats.Summary `json:"switch"`
	Recovery stats.Summary `json:"recovery"`
}

// MemoryReport sums the per-runtime recovery page caches.
type MemoryReport struct {
	DistinctPages   uint64  `json:"distinct_pages"`
	DedupedPages    uint64  `json:"deduped_pages"`
	BytesSaved      uint64  `json:"bytes_saved"`
	BytesSavedTotal uint64  `json:"bytes_saved_total"`
	DedupRatio      float64 `json:"dedup_ratio"`
}

// CounterReport sums the runtimes' absolute counters.
type CounterReport struct {
	Events              uint64  `json:"events"`
	Switches            uint64  `json:"switches"`
	Recoveries          uint64  `json:"recoveries"`
	InstantRecoveries   uint64  `json:"instant_recoveries"`
	InterruptRecoveries uint64  `json:"interrupt_recoveries"`
	WarmHits            uint64  `json:"warm_hits"`
	IdleSwitches        uint64  `json:"idle_switches"`
	ElidedSwitches      uint64  `json:"elided_switches"`
	MergedViewLoads     uint64  `json:"merged_view_loads,omitempty"`
	ElapsedCycles       uint64  `json:"elapsed_cycles"` // slowest runtime
	EventsPerSecond     float64 `json:"events_per_second"`
}

// FleetReport describes the control-plane side of a fleet-mode run.
type FleetReport struct {
	Nodes         int      `json:"nodes"`
	Shards        int      `json:"shards,omitempty"`
	CatalogDigest string   `json:"catalog_digest"`
	Converged     bool     `json:"converged"`
	JoinBytes     []uint64 `json:"join_bytes"`
	RelayedEvents uint64   `json:"relayed_events"`
	// Migrations counts completed live migrations; MigrateBytes totals the
	// wire images (deltas and metadata only — catalog chunks never travel),
	// and DeltasApplied/DeltasSkipped total the COW pages landed on targets.
	Migrations    int    `json:"migrations,omitempty"`
	MigrateBytes  uint64 `json:"migrate_bytes,omitempty"`
	DeltasApplied uint64 `json:"deltas_applied,omitempty"`
	DeltasSkipped uint64 `json:"deltas_skipped,omitempty"`
}

// Report is the machine-readable run result (BENCH_load.json).
type Report struct {
	GeneratedBy  string                   `json:"generated_by"`
	Config       ConfigReport             `json:"config"`
	TraceDigest  string                   `json:"trace_digest"`
	ReportDigest string                   `json:"report_digest"`
	Aggregate    OpLatency                `json:"aggregate_cycles"`
	WallNS       stats.Summary            `json:"wall_ns"`
	Apps         []AppReport              `json:"apps"`
	Memory       MemoryReport             `json:"memory"`
	Counters     CounterReport            `json:"counters"`
	Telemetry    telemetry.HistogramStats `json:"telemetry"`
	Fleet        *FleetReport             `json:"fleet,omitempty"`
	SLO          []SLOResult              `json:"slo,omitempty"`
}

// assemble merges per-runtime results (in runtime-index order, so the
// outcome is deterministic) into the report and stamps its digest.
func assemble(cfg *RunConfig, specs []*appSpec, results []*runtimeResult, fleet *FleetReport) *Report {
	tc := cfg.Trace.Cfg
	rep := &Report{
		GeneratedBy: "fcload",
		Config: ConfigReport{
			Seed: tc.Seed, Apps: tc.Apps, Skew: tc.Skew, Events: tc.Events,
			CPUs: tc.CPUs, Arrival: tc.Arrival, Rate: tc.Rate, Think: tc.Think,
			Shape: tc.Shape, Runtimes: cfg.Runtimes, Legacy: cfg.Legacy,
			Profile: cfg.Profile, SharedCore: cfg.SharedCore, Nodes: cfg.Nodes,
			Shards: cfg.Shards, MigrateRate: cfg.MigrateRate,
		},
		TraceDigest: cfg.Trace.DigestString(),
		Fleet:       fleet,
	}

	var sw, resu, rec, all, wall stats.Hist
	sink := telemetry.NewHistogramSink()
	for _, r := range results {
		sw.Merge(&r.sw)
		resu.Merge(&r.resu)
		rec.Merge(&r.rec)
		all.Merge(&r.all)
		wall.Merge(&r.wall)
		sink.Merge(r.sink)

		rep.Counters.Events += r.events
		rep.Counters.Switches += r.switches
		rep.Counters.Recoveries += r.recoveries
		rep.Counters.InstantRecoveries += r.instant
		rep.Counters.InterruptRecoveries += r.interrupt
		rep.Counters.WarmHits += r.warm
		rep.Counters.IdleSwitches += r.idle
		rep.Counters.ElidedSwitches += r.elided
		rep.Counters.MergedViewLoads += r.merged
		if r.cycles > rep.Counters.ElapsedCycles {
			rep.Counters.ElapsedCycles = r.cycles
		}

		rep.Memory.DistinctPages += uint64(r.cache.DistinctPages)
		rep.Memory.DedupedPages += r.cache.DedupedPages
		rep.Memory.BytesSaved += r.cache.BytesSaved
		rep.Memory.BytesSavedTotal += r.cache.BytesSavedTotal
	}
	if total := rep.Memory.DistinctPages + rep.Memory.DedupedPages; total > 0 {
		rep.Memory.DedupRatio = float64(rep.Memory.DedupedPages) / float64(total)
	}
	if rep.Counters.ElapsedCycles > 0 {
		rep.Counters.EventsPerSecond = float64(rep.Counters.Events) /
			(float64(rep.Counters.ElapsedCycles) / CyclesPerSecond)
	}
	rep.Aggregate = OpLatency{
		All:      all.Summarize(),
		Switch:   sw.Summarize(),
		Resume:   resu.Summarize(),
		Recovery: rec.Summarize(),
	}
	rep.WallNS = wall.Summarize()
	rep.Telemetry = sink.Stats()

	for _, spec := range specs {
		ar := AppReport{App: spec.name, Share: cfg.Trace.Shares[spec.idx]}
		// Under live migration an app's numbers accumulate on every node
		// that hosted it; merge across runtimes (a no-op for static runs,
		// where each app lives on exactly one).
		var asw, arec stats.Hist
		for _, r := range results {
			if a, ok := r.apps[spec.idx]; ok {
				ar.Events += a.events
				ar.WarmHits += a.warm
				asw.Merge(&a.sw)
				arec.Merge(&a.rec)
			}
		}
		ar.Switch = asw.Summarize()
		ar.Recovery = arec.Summarize()
		rep.Apps = append(rep.Apps, ar)
	}
	rep.ReportDigest = rep.digestString()
	return rep
}

// digestBuf collects the little-endian bytes the report digest hashes;
// strings are NUL-terminated.
type digestBuf []byte

func (b *digestBuf) byte(v byte)  { *b = append(*b, v) }
func (b *digestBuf) u64(v uint64) { *b = binary.LittleEndian.AppendUint64(*b, v) }
func (b *digestBuf) str(s string) { *b = append(append(*b, s...), 0) }

func foldSummary(h *digestBuf, s stats.Summary) {
	h.u64(s.Count)
	h.u64(s.Min)
	h.u64(s.Max)
	h.u64(math.Float64bits(s.Mean))
	h.u64(s.P50)
	h.u64(s.P95)
	h.u64(s.P99)
	h.u64(s.P999)
}

// digest folds the deterministic report sections: configuration, trace
// digest, aggregate charged-cycle latencies, per-app rows, counters and
// memory. Wall time, allocation measurements, telemetry relay totals and
// the SLO verdicts are excluded — they may vary across hosts without the
// benchmark result itself changing.
func (r *Report) digest() uint64 {
	var h digestBuf
	h.str(r.TraceDigest)
	h.u64(uint64(r.Config.Seed))
	h.byte(byte(r.Config.Apps))
	h.u64(math.Float64bits(r.Config.Skew))
	h.u64(uint64(r.Config.Events))
	h.byte(byte(r.Config.CPUs))
	h.str(r.Config.Arrival)
	h.u64(math.Float64bits(r.Config.Rate))
	h.u64(r.Config.Think)
	h.str(r.Config.Shape)
	h.byte(byte(r.Config.Runtimes))
	if r.Config.Legacy {
		h.byte(1)
	} else {
		h.byte(0)
	}
	foldSummary(&h, r.Aggregate.All)
	foldSummary(&h, r.Aggregate.Switch)
	foldSummary(&h, r.Aggregate.Resume)
	foldSummary(&h, r.Aggregate.Recovery)
	for _, a := range r.Apps {
		h.str(a.App)
		h.u64(math.Float64bits(a.Share))
		h.u64(a.Events)
		h.u64(a.WarmHits)
		foldSummary(&h, a.Switch)
		foldSummary(&h, a.Recovery)
	}
	h.u64(r.Counters.Events)
	h.u64(r.Counters.Switches)
	h.u64(r.Counters.Recoveries)
	h.u64(r.Counters.InstantRecoveries)
	h.u64(r.Counters.InterruptRecoveries)
	h.u64(r.Counters.WarmHits)
	h.u64(r.Counters.IdleSwitches)
	h.u64(r.Counters.ElapsedCycles)
	h.u64(r.Memory.DistinctPages)
	h.u64(r.Memory.DedupedPages)
	h.u64(r.Memory.BytesSaved)
	h.u64(r.Memory.BytesSavedTotal)
	if r.Config.SharedCore {
		// Folded only when the mode is on: reports from pre-existing modes
		// keep their digests byte-for-byte.
		h.byte(1)
		h.u64(r.Counters.ElidedSwitches)
		h.u64(r.Counters.MergedViewLoads)
	}
	if r.Config.MigrateRate > 0 && r.Fleet != nil {
		// Same contract as SharedCore: live-migration runs fold the move
		// ledger; every other mode's digest is untouched.
		h.byte(2)
		h.u64(math.Float64bits(r.Config.MigrateRate))
		h.u64(uint64(r.Fleet.Migrations))
		h.u64(r.Fleet.MigrateBytes)
		h.u64(r.Fleet.DeltasApplied)
		h.u64(r.Fleet.DeltasSkipped)
	}
	f := fnv.New64a()
	f.Write(h)
	return f.Sum64()
}

func (r *Report) digestString() string { return fmt.Sprintf("%016x", r.digest()) }

// JSON renders the report for BENCH_load.json.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Format renders the report for terminals.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fcload: seed=%d apps=%d skew=%.2f events=%d arrival=%s shape=%s runtimes=%d",
		r.Config.Seed, r.Config.Apps, r.Config.Skew, r.Config.Events,
		r.Config.Arrival, r.Config.Shape, r.Config.Runtimes)
	if r.Config.Legacy {
		b.WriteString(" legacy")
	}
	if r.Config.Profile {
		b.WriteString(" profiled-views")
	}
	if r.Config.SharedCore {
		b.WriteString(" sharedcore")
	}
	if r.Fleet != nil {
		fmt.Fprintf(&b, " fleet=%d", r.Fleet.Nodes)
		if r.Fleet.Shards > 1 {
			fmt.Fprintf(&b, " shards=%d", r.Fleet.Shards)
		}
	}
	fmt.Fprintf(&b, "\ntrace digest  %s\nreport digest %s\n", r.TraceDigest, r.ReportDigest)

	row := func(name string, s stats.Summary) {
		fmt.Fprintf(&b, "  %-9s n=%-8d p50=%-8d p95=%-8d p99=%-8d p999=%-8d max=%d\n",
			name, s.Count, s.P50, s.P95, s.P99, s.P999, s.Max)
	}
	b.WriteString("latency (charged cycles):\n")
	row("all", r.Aggregate.All)
	row("switch", r.Aggregate.Switch)
	row("resume", r.Aggregate.Resume)
	row("recovery", r.Aggregate.Recovery)
	b.WriteString("latency (wall ns):\n")
	row("all", r.WallNS)

	b.WriteString("per-app:\n")
	for _, a := range r.Apps {
		fmt.Fprintf(&b, "  %-10s share=%5.1f%% events=%-7d sw.p99=%-8d rec.p99=%-8d warm=%d\n",
			a.App, a.Share*100, a.Events, a.Switch.P99, a.Recovery.P99, a.WarmHits)
	}
	fmt.Fprintf(&b, "counters: %d events, %d switches (%d elided), %d recoveries (%d instant, %d interrupt), %d warm hits, %d idle, %.0f ev/s simulated\n",
		r.Counters.Events, r.Counters.Switches, r.Counters.ElidedSwitches,
		r.Counters.Recoveries,
		r.Counters.InstantRecoveries, r.Counters.InterruptRecoveries,
		r.Counters.WarmHits, r.Counters.IdleSwitches, r.Counters.EventsPerSecond)
	if r.Counters.MergedViewLoads > 0 {
		fmt.Fprintf(&b, "sharedcore: %d merged views built\n", r.Counters.MergedViewLoads)
	}
	fmt.Fprintf(&b, "memory: %d distinct pages, %d deduped (%.1f%%), %dB saved now, %dB saved cumulative\n",
		r.Memory.DistinctPages, r.Memory.DedupedPages, r.Memory.DedupRatio*100,
		r.Memory.BytesSaved, r.Memory.BytesSavedTotal)
	if r.Fleet != nil {
		topo := ""
		if r.Fleet.Shards > 1 {
			topo = fmt.Sprintf(" across %d shards", r.Fleet.Shards)
		}
		fmt.Fprintf(&b, "fleet: %d nodes%s, catalog %s, converged=%v, %d telemetry events relayed\n",
			r.Fleet.Nodes, topo, r.Fleet.CatalogDigest, r.Fleet.Converged, r.Fleet.RelayedEvents)
		if r.Fleet.Migrations > 0 {
			fmt.Fprintf(&b, "migrate: %d live migrations, %dB shipped (deltas only), %d deltas applied, %d skipped\n",
				r.Fleet.Migrations, r.Fleet.MigrateBytes, r.Fleet.DeltasApplied, r.Fleet.DeltasSkipped)
		}
	}
	for _, s := range r.SLO {
		verdict := "PASS"
		if !s.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "slo: %-4s %s <= %d (actual %d)\n", verdict, s.Metric, s.Bound, s.Actual)
	}
	return b.String()
}

// SLO is one latency bound: Metric must not exceed Bound charged cycles.
type SLO struct {
	Metric string
	Bound  uint64
}

// SLOResult is one checked bound.
type SLOResult struct {
	Metric string `json:"metric"`
	Bound  uint64 `json:"bound"`
	Actual uint64 `json:"actual"`
	Pass   bool   `json:"pass"`
}

// sloSections maps a metric prefix to the summary it reads.
var sloSections = []string{"all", "switch", "resume", "recovery", "wall"}

// ParseSLOs parses a -slo spec: comma-separated metric=bound pairs where
// a metric is a quantile name (p50, p95, p99, p999, min, max, mean) with
// an optional section prefix — all (default), switch, resume, recovery
// or wall. Example: "p99=40000,recovery.p999=80000,switch.p95=6000".
func ParseSLOs(spec string) ([]SLO, error) {
	var out []SLO
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		eq := strings.IndexByte(part, '=')
		if eq < 0 {
			return nil, fmt.Errorf("load: slo %q: want metric=bound", part)
		}
		metric := strings.TrimSpace(part[:eq])
		bound, err := strconv.ParseUint(strings.TrimSpace(part[eq+1:]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("load: slo %q: bad bound: %v", part, err)
		}
		section, q := "all", metric
		if dot := strings.IndexByte(metric, '.'); dot >= 0 {
			section, q = metric[:dot], metric[dot+1:]
		}
		if !validSection(section) {
			return nil, fmt.Errorf("load: slo %q: unknown section %q", part, section)
		}
		if _, ok := (stats.Summary{}).Quantile(q); !ok {
			return nil, fmt.Errorf("load: slo %q: unknown quantile %q", part, q)
		}
		out = append(out, SLO{Metric: metric, Bound: bound})
	}
	return out, nil
}

var sortedSections = func() []string {
	s := append([]string(nil), sloSections...)
	sort.Strings(s)
	return s
}()

func validSection(s string) bool {
	i := sort.SearchStrings(sortedSections, s)
	return i < len(sortedSections) && sortedSections[i] == s
}

// ApplySLOs evaluates the bounds against the report, records the verdicts
// in r.SLO, and reports whether every bound passed.
func (r *Report) ApplySLOs(slos []SLO) bool {
	ok := true
	r.SLO = r.SLO[:0]
	for _, s := range slos {
		section, q := "all", s.Metric
		if dot := strings.IndexByte(s.Metric, '.'); dot >= 0 {
			section, q = s.Metric[:dot], s.Metric[dot+1:]
		}
		var sum stats.Summary
		switch section {
		case "all":
			sum = r.Aggregate.All
		case "switch":
			sum = r.Aggregate.Switch
		case "resume":
			sum = r.Aggregate.Resume
		case "recovery":
			sum = r.Aggregate.Recovery
		case "wall":
			sum = r.WallNS
		}
		actual, _ := sum.Quantile(q)
		pass := actual <= s.Bound
		r.SLO = append(r.SLO, SLOResult{Metric: s.Metric, Bound: s.Bound, Actual: actual, Pass: pass})
		ok = ok && pass
	}
	return ok
}
