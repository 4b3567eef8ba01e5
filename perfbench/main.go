// Command perfbench is the repository's wall-clock benchmark: it replays
// fcload-generated trap traces against live FACE-CHANGE runtimes (local,
// or fleet nodes on a sharded plane) and reports trap-to-aggregator
// latency, replay throughput, migration time and set-up time in host
// time, with correctness gates counted against operations attempted.
// With --trace 1 it alternates untraced and traced rounds and reports
// per-layer numbers derived from spans instead.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload local-zipf --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	wlName := flag.String("workload", "", "workload: local-zipf, session-churn or fleet-relay")
	seed := flag.Int64("seed", 1, "workload seed (trace generation and every derived choice)")
	seconds := flag.Int("seconds", 10, "measure for this many seconds (rounds repeat until then)")
	traceFlag := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for the result record and span file")
	flag.Parse()
	wl := findWorkload(*wlName)
	if wl == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wlName)
		return 2
	}
	if *seed == 0 || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need a nonzero --seed, --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	traced := *traceFlag == 1
	host := fingerprint()

	tr, err := wl.genTrace(*seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	// Untraced runs need three rounds for a set-up median; traced runs
	// alternate untraced and traced rounds, at least one of each.
	minRounds := untracedRounds
	if traced {
		minRounds = 2
	}
	var rounds []*round
	start := time.Now()
	for i := 0; i < minRounds || time.Since(start) < time.Duration(*seconds)*time.Second; i++ {
		r, err := runRound(wl, tr, *seed, traced && i%2 == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s round %d: %v\n", wl.name, i, err)
			return 1
		}
		rounds = append(rounds, r)
		// Collect the round's machines now, so peak memory is one round's.
		runtime.GC()
	}

	res := summarize(rounds, traced)
	for i, e := range res.errs {
		if i == maxReported {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more failures\n", len(res.errs)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %v\n", e)
	}
	hostJSON, _ := json.Marshal(host)
	fmt.Printf("perfbench: host %s\n", hostJSON)
	fmt.Printf("perfbench: %s seed %d: %d rounds (%d traced), %d timed events, %d migrations, %d/%d operations failed\n",
		wl.name, *seed, len(rounds), res.tracedRounds, res.timedEvents, res.migrations, res.Failed, res.Attempted)

	if err := writeRecord(*out, wl.name, *seed, traced, host, res, rounds); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: record: %v\n", err)
	}
	if traced {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name, *seed))
		if err := writeSpans(path, res.tracers); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: spans: %v\n", err)
		}
	}
	line, err := json.Marshal(res.result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// untracedRounds is the fewest rounds an untraced run makes.
const untracedRounds = 3

// maxReported bounds the failures a run prints and records one by one.
const maxReported = 20

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// summary is a run's result plus what the log lines and record need.
type summary struct {
	result
	errs         []error
	tracers      []*tracer
	tracedRounds int
	timedEvents  uint64
	migrations   int
}

// summarize gates the rounds and derives the run's metrics: end-to-end
// from the untraced rounds, per-layer from the traced ones.
func summarize(rounds []*round, traced bool) *summary {
	s := &summary{result: result{Metrics: map[string]metric{}}}
	base := rounds[0].sig
	for i, r := range rounds {
		s.Attempted += r.attempted
		s.errs = append(s.errs, r.errs...)
		s.migrations += len(r.migrations)
		for _, n := range r.nodes {
			s.timedEvents += n.events
		}
		if i > 0 {
			s.Attempted++
			if sig := r.sig; sig != base {
				kind := "untraced"
				if r.traced {
					kind = "traced"
				}
				s.errs = append(s.errs, fmt.Errorf("round %d (%s): counters or charged cycles %+v differ from round 0's %+v", i, kind, sig, base))
			}
		}
	}
	s.Failed = uint64(len(s.errs))
	s.Correct = s.Failed == 0

	var plain, tracedR []*round
	for _, r := range rounds {
		if r.traced {
			tracedR = append(tracedR, r)
		} else {
			plain = append(plain, r)
		}
	}
	s.tracedRounds = len(tracedR)
	if traced {
		s.perLayer(plain, tracedR)
	} else {
		s.endToEnd(plain, base)
	}
	return s
}

func (s *summary) put(name string, v float64, unit string) {
	s.Metrics[name] = metric{Value: v, Unit: unit}
}

// endToEnd reports set-up time and admission latency as the median over
// rounds of each round's own figure, so one disturbed round cannot move
// them: the relayed path's admission tail moves with host scheduling.
// replay_eps is the median of every throughput sample. Trap times pool
// the rounds' sketches, and migration times every migration of the run
// (at least 120, so at least ten lie beyond its p90).
func (s *summary) endToEnd(rounds []*round, base signature) {
	var setup, eps, trap, adm50, adm99, mig []int64
	for _, r := range rounds {
		setup = append(setup, r.setupNs)
		eps = append(eps, r.eps...)
		trap = append(trap, r.trapSketch...)
		adm50 = append(adm50, r.adm50)
		adm99 = append(adm99, r.adm99)
		for _, m := range r.migrations {
			mig = append(mig, m.ns)
		}
	}
	s.put("setup_s", median(setup)/1e9, "s")
	s.put("replay_eps", median(eps), "1/s")
	s.put("trap_ns_p50", quantile(trap, 0.5), "ns")
	s.put("trap_ns_p99", quantile(trap, 0.99), "ns")
	s.put("admit_ms_p50", median(adm50)/1e6, "ms")
	s.put("admit_ms_p99", median(adm99)/1e6, "ms")
	s.put("migrate_ms_p50", quantile(mig, 0.5)/1e6, "ms")
	s.put("migrate_ms_tail", quantile(mig, migrateTailQ)/1e6, "ms")
	s.put("sim_cycles_p99", float64(base.cycles[3]), "cycles")
	s.put("rss_peak_mb", peakRSSMB(), "MB")
}

// migrateTailQ is migrate_ms_tail's percentile: the highest of p90, p99
// and p99.9 that has ten samples beyond it in every run.
const migrateTailQ = 0.9

// writeRecord stores the run's metrics with its host fingerprint.
func writeRecord(dir, wl string, seed int64, traced bool, host hostInfo, s *summary, rounds []*round) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var errs []string
	for _, e := range s.errs[:min(len(s.errs), maxReported)] {
		errs = append(errs, e.Error())
	}
	type roundRec struct {
		Traced                       bool
		SetupNs                      int64
		EPS                          []int64
		Trap50, Trap99, Adm50, Adm99 int64
		Migrations                   int
	}
	var rr []roundRec
	for _, r := range rounds {
		rr = append(rr, roundRec{r.traced, r.setupNs, r.eps, r.trap50, r.trap99, r.adm50, r.adm99, len(r.migrations)})
	}
	rec := struct {
		Host       hostInfo   `json:"host"`
		Workload   string     `json:"workload"`
		Seed       int64      `json:"seed"`
		Traced     bool       `json:"traced"`
		Migrations int        `json:"migration_samples,omitempty"`
		Result     result     `json:"result"`
		Rounds     []roundRec `json:"rounds"`
		Failures   []string   `json:"failures,omitempty"`
	}{host, wl, seed, traced, s.migrations, s.result, rr, errs}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", wl, seed, map[bool]int{false: 0, true: 1}[traced])
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
