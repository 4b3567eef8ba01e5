package main

import (
	"testing"

	"facechange/internal/load"
	"facechange/internal/stats"
)

// TestDriverParity holds the benchmark's replay driver to fcload: on the
// same trace it must reproduce load.Run's counters and charged-cycle
// percentiles, for a local configuration and for a fleet configuration
// (two nodes on a two-shard plane) without migration.
func TestDriverParity(t *testing.T) {
	tr, err := load.GenTrace(load.TraceConfig{Seed: 7, Apps: numApps, Skew: 1.1, Events: 30000, CPUs: numCPUs})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		cfg   load.RunConfig
		fleet bool
	}{
		{"local", load.RunConfig{Trace: tr, Runtimes: numRuntimes}, false},
		{"fleet", load.RunConfig{Trace: tr, Nodes: numRuntimes, Shards: 2}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, err := load.Run(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := &round{seed: tr.Cfg.Seed, simRate: tr.Cfg.Rate}
			defer r.teardown()
			if c.fleet {
				if err := fleetSetup(r); err != nil {
					t.Fatal(err)
				}
				fleetSegment(r, tr.Events, 0, false)
			} else {
				if err := localSetup(&workload{}, r); err != nil {
					t.Fatal(err)
				}
				localReplay(r, tr.Events, false)
			}
			var all stats.Hist
			for _, n := range r.nodes {
				for _, e := range n.errs {
					t.Error(e)
				}
				n.g.finish()
				for _, d := range n.g.cycles {
					all.Record(d)
				}
			}
			got := r.signature().ctr
			wc := want.Counters
			for _, f := range []struct {
				name      string
				got, want uint64
			}{
				{"events", got.events, wc.Events},
				{"switches", got.switches, wc.Switches},
				{"elided", got.elided, wc.ElidedSwitches},
				{"recoveries", got.recoveries, wc.Recoveries},
				{"instant", got.instant, wc.InstantRecoveries},
				{"interrupt", got.interrupt, wc.InterruptRecoveries},
				{"warm hits", got.warm, wc.WarmHits},
				{"idle", got.idle, wc.IdleSwitches},
				{"elapsed cycles", got.elapsed, wc.ElapsedCycles},
			} {
				if f.got != f.want {
					t.Errorf("%s: driver %d, fcload %d", f.name, f.got, f.want)
				}
			}
			if s := all.Summarize(); s != want.Aggregate.All {
				t.Errorf("charged cycles: driver %+v, fcload %+v", s, want.Aggregate.All)
			}
		})
	}
}
