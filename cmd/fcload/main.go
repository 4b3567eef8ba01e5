// Command fcload is the ReqBench-style load harness: it generates a
// seeded, Zipf-skewed workload trace over the application catalog,
// replays it against live FACE-CHANGE runtimes (or a fleet of nodes)
// through the real trap, switch and recovery paths, and reports per-app
// and aggregate latency percentiles in charged cycles plus memory and
// telemetry breakdowns.
//
// The run is deterministic: the same seed and flags reproduce the same
// trace digest and the same report digest, which CI compares across runs.
// The -slo flag turns the report into a gate — the process exits 1 when
// any bound is exceeded. The -diff flag compares the run against a prior
// JSON report of the same trace and fails on charged-cycle percentile
// regressions beyond -difftol.
//
//	fcload -seed 1 -apps 12 -skew 1.1 -events 1000000
//	fcload -seed 7 -arrival closed -think 4000 -slo p99=60000,recovery.p999=200000
//	fcload -seed 1 -fleet -nodes 3 -events 50000 -out BENCH_load.json
//	fcload -seed 1 -fleet -nodes 6 -shards 3 -events 50000
//	fcload -seed 1 -events 50000 -diff BENCH_load.json -difftol 0.10
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"

	"facechange/internal/load"
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "trace seed (drives every random choice)")
		apps     = flag.Int("apps", 12, "catalog applications in play, most popular first (max 12)")
		skew     = flag.Float64("skew", 1.1, "Zipf exponent over app popularity (0 = uniform)")
		events   = flag.Int("events", 100000, "trace length in events")
		cpus     = flag.Int("cpus", 2, "vCPUs per runtime (max 8)")
		runtimes = flag.Int("runtimes", 2, "live runtimes driven in parallel")
		arrival  = flag.String("arrival", "open", "arrival process: open (Poisson timeline) or closed (think time)")
		rate     = flag.Float64("rate", 2000, "open-loop mean arrival rate, events per simulated second")
		think    = flag.Uint64("think", 2000, "closed-loop think time in cycles")
		shape    = flag.String("shape", "steady", "open-loop rate shape: steady, burst or diurnal")
		legacy   = flag.Bool("legacy", false, "use the paper's per-entry EPT rewrite switch path instead of snapshot root swaps")
		profile  = flag.Bool("profile", false, "profile real catalog views instead of synthetic deterministic views")
		shcore   = flag.Bool("sharedcore", false, "merge co-scheduled apps' views per vCPU into union views (changes the report digest)")
		fleetM   = flag.Bool("fleet", false, "drive fleet nodes synced from a control-plane server instead of local runtimes")
		nodes    = flag.Int("nodes", 3, "fleet size under -fleet")
		shards   = flag.Int("shards", 1, "under -fleet: partition the control plane into this many shards (ring-routed catalog, homing nodes, relayed telemetry)")
		migRate  = flag.Float64("migrate-rate", 0, "under -fleet: live-migrate apps between nodes mid-replay, this many moves per 1000 events (changes the report digest)")
		slo      = flag.String("slo", "", "comma-separated latency bounds, e.g. p99=40000,recovery.p999=200000")
		diffPath = flag.String("diff", "", "compare against a prior JSON report; exit 1 on percentile regression beyond -difftol")
		diffTol  = flag.Float64("difftol", 0.10, "fractional slowdown tolerated by -diff (0.10 = +10%)")
		out      = flag.String("out", "", "write the JSON report to this file")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the replay to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile (after the replay) to this file")
		verbose  = flag.Bool("v", false, "log progress")
	)
	flag.Parse()

	slos, err := load.ParseSLOs(*slo)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	tr, err := load.GenTrace(load.TraceConfig{
		Seed: *seed, Apps: *apps, Skew: *skew, Events: *events, CPUs: *cpus,
		Arrival: *arrival, Rate: *rate, Think: *think, Shape: *shape,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cfg := load.RunConfig{
		Trace:      tr,
		Runtimes:   *runtimes,
		Legacy:     *legacy,
		SharedCore: *shcore,
		Profile:    *profile,
	}
	if *fleetM {
		cfg.Nodes = *nodes
		cfg.Shards = *shards
		cfg.MigrateRate = *migRate
	}
	if *verbose {
		cfg.Logf = log.Printf
		log.Printf("fcload: trace %s (%d events)", tr.DigestString(), len(tr.Events))
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer f.Close()
	}

	rep, err := load.Run(cfg)
	if *cpuProf != "" {
		// Stop before the SLO checks and diffing: the profile covers the
		// replay itself.
		pprof.StopCPUProfile()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		f.Close()
	}

	pass := rep.ApplySLOs(slos)

	if *out != "" {
		data, err := rep.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	fmt.Print(rep.Format())

	if *diffPath != "" {
		prior, err := load.ReadReport(*diffPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		d, err := load.DiffReports(prior, rep, *diffTol)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Print(d.Format())
		if !d.OK() {
			fmt.Fprintln(os.Stderr, "fcload: trend gate failed")
			os.Exit(1)
		}
	}

	if !pass {
		fmt.Fprintln(os.Stderr, "fcload: SLO gate failed")
		os.Exit(1)
	}
}
