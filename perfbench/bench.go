package main

import (
	"fmt"
	"runtime"

	"facechange/internal/load"
)

// The shape every workload shares: fcload's 12-app catalog, two
// runtimes (or fleet nodes), two vCPUs each.
const (
	numApps     = 12
	numRuntimes = 2
	numCPUs     = 2
)

// workload is one benchmark input set. Everything but the seed is fixed
// here, so a run's inputs depend on --workload and --seed alone.
type workload struct {
	name string
	// Trace generation (load.GenTrace): Zipf skew over the apps, events
	// per round, of which the first warm are an untimed warm-up prefix.
	skew         float64
	events, warm int
	// churn profiles undertrained views through the pool, attaches a
	// detect-gated evolver per runtime and ends every app's session after
	// sessionEvents of its events.
	churn bool
	// fleet runs the nodes on a sharded plane. After the warm-up it
	// replays closed events back to back, timed until the aggregator has
	// admitted them (the fleet path's capacity), then the rest open-loop
	// at fleetRate trace events per host second.
	fleet  bool
	closed int
}

const (
	// profileSyscalls keeps session-churn's profiled views undertrained.
	profileSyscalls = 60
	sessionEvents   = 1500
	// fleetRate is fixed, so every version of the program is offered the
	// same load: 3-4% of the fleet path's closed-loop capacity (replay_eps
	// on fleet-relay, 500k-600k events/s on a 2-vCPU Xeon VM).
	fleetRate = 20_000
	// migrationsPerRound: an untraced run has at least three rounds, so
	// at least 120 migrations, and their p90 has at least ten beyond it.
	migrationsPerRound = 40
)

var workloads = []*workload{
	{name: "local-zipf", skew: 1.1, events: 640_000, warm: 40_000},
	{name: "session-churn", skew: 0, events: 200_000, warm: 10_000, churn: true},
	{name: "fleet-relay", skew: 1.1, events: 440_000, warm: 40_000, closed: 360_000, fleet: true},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// genTrace generates the workload's trace for a seed: fcload's generator
// at its defaults (open-loop simulated timeline) with the workload's skew
// and length.
func (wl *workload) genTrace(seed int64) (*load.Trace, error) {
	return load.GenTrace(load.TraceConfig{
		Seed:   seed,
		Apps:   numApps,
		Skew:   wl.skew,
		Events: wl.events,
		CPUs:   numCPUs,
	})
}

// round is one set-up, warm-up, timed replay and migration phase on
// fresh runtimes. A run repeats rounds until its time is up.
type round struct {
	seed    int64
	simRate float64 // the trace's open-loop arrival rate, events per simulated second
	traced  bool
	mainTr  *tracer // set-up and migration spans (nil when untraced)
	specs   []*appSpec
	nodes   []*node

	setupNs int64
	// eps holds the round's closed-loop throughput samples, in trace
	// events per host second: on the local workloads the timed replay,
	// on fleet-relay each capacity chunk up to its last event's
	// admission.
	eps []int64
	// loopNs is the host time spent inside replay loops, summed over the
	// replaying goroutines, and paceNs the part of it the open-loop
	// generator spent waiting for events to fall due. The driver.event
	// span trees must cover the rest.
	loopNs, paceNs int64
	// workNs is the timed replay's busy time: its wall time when closed-
	// loop, the summed event times when paced open-loop. Traced over
	// untraced workNs is the tracing overhead.
	workNs     int64
	admitNs    []int64
	migrations []migration
	attempted  uint64
	errs       []error

	counts roundCounts

	// The round's figures, kept once its raw samples are dropped.
	sig                          signature
	trap50, trap99, adm50, adm99 int64
	late99                       int64
	// trapSketch is the round's trap times thinned to at most sketchSize
	// evenly spaced order statistics, so the run pools its rounds'
	// samples without keeping every one.
	trapSketch []int64

	// Fleet-only measurements.
	fleet *fleetStats
}

func (r *round) fail(err error) { r.errs = append(r.errs, err) }

// runRound executes one round of the workload. The heap is collected
// before each timed phase, so no phase pays for the garbage of the one
// before it.
func runRound(wl *workload, tr *load.Trace, seed int64, traced bool) (*round, error) {
	r := &round{seed: seed, simRate: tr.Cfg.Rate, traced: traced}
	if traced {
		r.mainTr = newTracer("main")
	}
	warm, timed := tr.Events[:wl.warm], tr.Events[wl.warm:]
	t0 := now()
	if wl.fleet {
		if err := fleetSetup(r); err != nil {
			r.teardown()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.setupNs = now() - t0
		fleetRun(wl, r, warm, timed)
	} else {
		if err := localSetup(wl, r); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.setupNs = now() - t0
		localReplay(r, warm, false)
		r.resetCycles()
		runtime.GC()
		r.workNs = localReplay(r, timed, true)
		r.eps = []int64{int64(ratio(float64(len(timed))*1e9, float64(r.workNs)))}
		for _, n := range r.nodes {
			r.loopNs += n.loopNs
		}
		runtime.GC()
		localMigrations(r)
		r.localGates()
	}
	r.attempted += uint64(len(tr.Events))
	for _, n := range r.nodes {
		n.g.finish()
		r.errs = append(r.errs, n.errs...)
	}
	r.collect()
	r.teardown()
	r.reduce()
	return r, nil
}

// reduce computes the round's figures and drops its raw samples, so a
// run's memory does not grow with its rounds.
func (r *round) reduce() {
	r.sig = r.signature()
	trap, late := r.trapNs(), []int64(nil)
	for _, n := range r.nodes {
		late = append(late, n.lateNs...)
		n.trapNs, n.lateNs, n.g.cycles = nil, nil, nil
	}
	r.trap50, r.trap99 = int64(quantile(trap, 0.5)), int64(quantile(trap, 0.99))
	r.trapSketch = sketch(trap)
	r.adm50, r.adm99 = int64(quantile(r.admitNs, 0.5)), int64(quantile(r.admitNs, 0.99))
	r.late99 = int64(quantile(late, 0.99))
	r.admitNs = nil
}

// localGates drains every local hub and checks the exactness gates: no
// drops, and each runtime's admitted count equal to its emitted count,
// read from the admit sink itself.
func (r *round) localGates() {
	for _, n := range r.nodes {
		n.drain()
		r.attempted++
		if d := n.hub.Drops(); d > 0 {
			r.fail(fmt.Errorf("%s: hub dropped %d events", n.id, d))
		}
		r.attempted++
		want := n.emit.n.Load()
		n.admit.settle(map[string]uint64{"": want}, admitQuiet)
		if err := n.admit.check("", want); err != nil {
			r.fail(fmt.Errorf("%s: %w", n.id, err))
		}
		r.admitNs = append(r.admitNs, n.admit.latencies()...)
		if n.evo != nil {
			r.attempted++
			if st := n.evo.Stats(); st.PublishErrors > 0 {
				r.fail(fmt.Errorf("%s: %d evolve publish errors: %v", n.id, st.PublishErrors, n.evo.LastErr()))
			}
		}
	}
}

// teardown stops everything the round started (fleet nodes, the plane
// and hubs; local rounds own no goroutines past their replay) and drops
// the machines, keeping only the round's samples and counts.
func (r *round) teardown() {
	if r.fleet != nil {
		r.fleet.close()
		r.fleet.drop()
	}
	for _, n := range r.nodes {
		n.vm, n.hub, n.evo, n.agent, n.agg, n.det = nil, nil, nil, nil, nil, nil
		n.emit, n.admit, n.kf = nil, nil, nil
		n.g.k, n.g.rt, n.g.apps = nil, nil, nil
	}
	r.specs = nil
}

// resetCycles drops the warm-up's charged-cycle samples, so the
// simulated-latency summary covers the timed events only.
func (r *round) resetCycles() {
	for _, n := range r.nodes {
		n.g.cycles = n.g.cycles[:0]
	}
}

// trapNs gathers every node's timed per-event host times.
func (r *round) trapNs() []int64 {
	var out []int64
	for _, n := range r.nodes {
		out = append(out, n.trapNs...)
	}
	return out
}

// signature is the round's deterministic outcome: the driver's counters
// and charged-cycle summary. Rounds of one seed, traced or not, must
// agree on it exactly.
type signature struct {
	ctr    driverCounters
	cycles [5]uint64 // count, p50, p90, p99, max
}

func (r *round) signature() signature {
	var s signature
	var cyc []uint64
	for _, n := range r.nodes {
		c := n.g.ctr
		s.ctr.events += c.events
		s.ctr.warm += c.warm
		s.ctr.idle += c.idle
		s.ctr.recoveries += c.recoveries
		s.ctr.instant += c.instant
		s.ctr.interrupt += c.interrupt
		s.ctr.switches += c.switches
		s.ctr.elided += c.elided
		if c.elapsed > s.ctr.elapsed {
			s.ctr.elapsed = c.elapsed
		}
		cyc = append(cyc, n.g.cycles...)
	}
	sortU64(cyc)
	s.cycles = [5]uint64{uint64(len(cyc)), exactQ(cyc, 0.5), exactQ(cyc, 0.9), exactQ(cyc, 0.99), exactQ(cyc, 1)}
	return s
}
