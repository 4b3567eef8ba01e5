// Package load is the ReqBench-style workload harness for the FACE-CHANGE
// runtime: a seeded trace generator over the application catalog (Zipf-
// skewed popularity, open-loop Poisson or closed-loop arrivals, burst and
// diurnal rate shapes) whose traces compile into millions of context-
// switch / resume / kernel-code-recovery events and replay against live
// runtimes — or a fleet of them — through the real trap, switch and
// telemetry paths. The replay collects charged-cycle and wall-clock
// latency into shared histograms (internal/stats) and emits the
// machine-readable BENCH_load.json report with per-app and aggregate
// percentiles plus a pass/fail SLO gate for CI.
//
// Everything derived from a TraceConfig is deterministic: the same seed
// produces a byte-identical trace (pinned by Trace.Digest) and, because
// all latency is measured in charged simulated cycles, an identical
// report (pinned by Report.Digest). Wall-clock sections are collected for
// operators but excluded from the digest.
package load

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
)

// CyclesPerSecond converts between simulated cycles and seconds for
// arrival-rate computations (the guest's nominal clock, as in
// internal/httpload).
const CyclesPerSecond = 5_000_000

// Op is a trace event operation.
type Op uint8

const (
	// OpSwitch is a scheduler pick of the app's process: a context-switch
	// trap (and, under deferred switching, the arming of resume).
	OpSwitch Op = iota
	// OpResume is a resume-userspace trap on the event's vCPU, committing
	// any deferred switch.
	OpResume
	// OpRecovery executes kernel code outside the app's view: a UD2 trap
	// and code recovery (or a warm hit when the span was already
	// recovered — the paper's decaying recovery rate).
	OpRecovery
	// OpIdle is a scheduler pick of an unprofiled process ("init"): the
	// runtime must restore the full kernel view.
	OpIdle

	numOps
)

var opNames = [numOps]string{"switch", "resume", "recovery", "idle"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// opWeights is the event mix: mostly context switches and resumes (the
// per-request kernel entry/exit churn), a steady rate of out-of-view
// executions, and a trickle of unprofiled processes.
var opWeights = [numOps]int{
	OpSwitch:   48,
	OpResume:   26,
	OpRecovery: 16,
	OpIdle:     10,
}

// Event is one trace entry. The trace is the unit of determinism: its
// byte encoding (and hence its digest) is fixed by TraceConfig alone.
type Event struct {
	Op  Op
	App uint8 // catalog app index (sharding key; "idle" events keep one too)
	CPU uint8 // vCPU on the owning runtime
	Arg uint16
	// At is the arrival cycle on the open-loop timeline (0 under closed-
	// loop arrivals, where pacing is think-time driven).
	At uint64
}

// TraceConfig parameterizes generation.
type TraceConfig struct {
	// Seed drives every random choice (default 1).
	Seed int64
	// Apps is the number of catalog applications in play, most-popular
	// first (default and max: the full 12-app catalog).
	Apps int
	// Skew is the Zipf exponent s over app popularity: app rank r gets
	// weight 1/r^s. 0 means uniform; 1.1 is the benchmark default.
	Skew float64
	// Events is the trace length (default 100000).
	Events int
	// CPUs is the number of vCPUs per runtime events are spread over
	// (default 2, max 8).
	CPUs int
	// Arrival selects the arrival process: "open" (Poisson arrivals on a
	// global timeline; latency includes queueing delay when the machine
	// falls behind) or "closed" (back-to-back with think time).
	Arrival string
	// Rate is the open-loop mean arrival rate in events per simulated
	// second (default 2000).
	Rate float64
	// Think is the closed-loop think time in cycles between events
	// (default 2000).
	Think uint64
	// Shape modulates the open-loop rate over time: "steady", "burst"
	// (4x rate bursts for 1/4 of every 2-second window) or "diurnal"
	// (sinusoidal ±80% over a 10-second period).
	Shape string
}

func (c *TraceConfig) defaults() error {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Apps <= 0 || c.Apps > 12 {
		c.Apps = 12
	}
	if c.Skew < 0 || math.IsNaN(c.Skew) || math.IsInf(c.Skew, 0) {
		return fmt.Errorf("load: invalid skew %f", c.Skew)
	}
	if c.Skew > 8 {
		c.Skew = 8
	}
	if c.Events <= 0 {
		c.Events = 100000
	}
	if c.CPUs <= 0 {
		c.CPUs = 2
	}
	if c.CPUs > 8 {
		c.CPUs = 8
	}
	switch c.Arrival {
	case "":
		c.Arrival = "open"
	case "open", "closed":
	default:
		return fmt.Errorf("load: unknown arrival process %q (want open or closed)", c.Arrival)
	}
	if c.Rate <= 0 || math.IsNaN(c.Rate) {
		c.Rate = 2000
	}
	if c.Think == 0 {
		c.Think = 2000
	}
	switch c.Shape {
	case "":
		c.Shape = "steady"
	case "steady", "burst", "diurnal":
	default:
		return fmt.Errorf("load: unknown rate shape %q (want steady, burst or diurnal)", c.Shape)
	}
	return nil
}

// zipfSampler samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s via a cumulative table and binary search. math/rand's
// Zipf requires s > 1; the benchmark needs arbitrary skew including the
// uniform (s=0) and near-critical (s=1) regimes.
type zipfSampler struct {
	cdf []float64
}

func newZipfSampler(n int, s float64) *zipfSampler {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1 // guard against rounding
	return &zipfSampler{cdf: cdf}
}

func (z *zipfSampler) sample(u float64) int {
	return sort.SearchFloat64s(z.cdf, u)
}

// share returns rank r's probability mass (for the report's popularity
// column).
func (z *zipfSampler) share(r int) float64 {
	if r == 0 {
		return z.cdf[0]
	}
	return z.cdf[r] - z.cdf[r-1]
}

// shapeFactor modulates the base rate at simulated time t (seconds).
func shapeFactor(shape string, t float64) float64 {
	switch shape {
	case "burst":
		// 4x bursts for the first quarter of every 2-second window, a
		// reduced floor otherwise (same long-run mean as 1.3x steady).
		if math.Mod(t, 2.0) < 0.5 {
			return 4.0
		}
		return 0.4
	case "diurnal":
		// A compressed day: ±80% sinusoid over a 10-second period.
		return 1 + 0.8*math.Sin(2*math.Pi*t/10)
	default:
		return 1.0
	}
}

// Trace is a generated workload trace.
type Trace struct {
	Cfg    TraceConfig
	Events []Event
	// Shares is each app's analytic popularity mass (rank order).
	Shares []float64
}

// GenTrace generates the trace for a configuration. Same config, same
// trace — byte for byte.
func GenTrace(cfg TraceConfig) (*Trace, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := newZipfSampler(cfg.Apps, cfg.Skew)

	weightTotal := 0
	for _, w := range opWeights {
		weightTotal += w
	}

	tr := &Trace{Cfg: cfg, Events: make([]Event, 0, cfg.Events)}
	for r := 0; r < cfg.Apps; r++ {
		tr.Shares = append(tr.Shares, zipf.share(r))
	}

	// Open-loop timeline in fractional cycles.
	t := 0.0
	for i := 0; i < cfg.Events; i++ {
		n := rng.Intn(weightTotal)
		op := Op(0)
		for k, w := range opWeights {
			if n < w {
				op = Op(k)
				break
			}
			n -= w
		}
		ev := Event{
			Op:  op,
			App: uint8(zipf.sample(rng.Float64())),
			CPU: uint8(rng.Intn(cfg.CPUs)),
			Arg: uint16(rng.Intn(1 << 16)),
		}
		if cfg.Arrival == "open" {
			rate := cfg.Rate * shapeFactor(cfg.Shape, t/CyclesPerSecond)
			if rate < cfg.Rate/16 {
				rate = cfg.Rate / 16
			}
			t += rng.ExpFloat64() / rate * CyclesPerSecond
			ev.At = uint64(t)
		}
		tr.Events = append(tr.Events, ev)
	}
	return tr, nil
}

// Digest returns the deterministic trace digest: FNV-1a over every
// event's byte encoding. Two traces with equal digests are byte-identical
// with overwhelming probability; CI compares digests across runs to pin
// generation determinism.
func (t *Trace) Digest() uint64 {
	h := fnv.New64a()
	h.Write([]byte{byte(t.Cfg.Apps), byte(t.Cfg.CPUs)})
	var rec [13]byte
	for _, ev := range t.Events {
		rec[0], rec[1], rec[2] = byte(ev.Op), ev.App, ev.CPU
		binary.LittleEndian.PutUint16(rec[3:], ev.Arg)
		binary.LittleEndian.PutUint64(rec[5:], ev.At)
		h.Write(rec[:])
	}
	return h.Sum64()
}

// DigestString renders the digest the way reports and CI logs carry it.
func (t *Trace) DigestString() string { return fmt.Sprintf("%016x", t.Digest()) }

// SimScript compiles the trace into internal/sim's 6-byte event script so
// every generated trace can be replayed under the simulator's invariant
// checkers (the FuzzTrace entry point). The mapping targets sim's event
// kinds by wire value: ctxswitch=0, resume=1, ud2=2, loadview=3; a small
// preamble of view loads gives the context switches custom views to land
// on. TestSimScriptKindPin pins the wire values against the sim package.
func (t *Trace) SimScript() []byte {
	const (
		simCtxSwitch = 0
		simResume    = 1
		simUD2       = 2
		simLoadView  = 3
	)
	buf := make([]byte, 0, (len(t.Events)+6)*6)
	for i := 0; i < 6; i++ {
		buf = append(buf, simLoadView, byte(i), byte(i*7+1), 0, byte(i*13+2), 0)
	}
	for _, ev := range t.Events {
		var kind byte
		switch ev.Op {
		case OpSwitch, OpIdle:
			kind = simCtxSwitch
		case OpResume:
			kind = simResume
		case OpRecovery:
			kind = simUD2
		}
		buf = append(buf, kind, ev.CPU, byte(ev.Arg), byte(ev.Arg>>8), ev.App, 0)
	}
	return buf
}
