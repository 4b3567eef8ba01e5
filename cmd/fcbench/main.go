// Command fcbench regenerates the paper's evaluation artifacts: the
// Table I similarity matrix, the Table II security evaluation, the
// Figure 6 UnixBench sweep, the Figure 7 Apache I/O sweep, and the
// design-choice ablations.
//
// Usage:
//
//	fcbench -table1
//	fcbench -table2
//	fcbench -fig6
//	fcbench -fig7
//	fcbench -ablations
//	fcbench -baseline [-out BENCH_baseline.json]
//	fcbench -all
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"facechange"
	"facechange/internal/apps"
	"facechange/internal/eval"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fcbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		table1    = flag.Bool("table1", false, "similarity matrix of kernel views (Table I)")
		table2    = flag.Bool("table2", false, "security evaluation against 16 attacks (Table II)")
		fig6      = flag.Bool("fig6", false, "normalized UnixBench sweep (Figure 6)")
		fig7      = flag.Bool("fig7", false, "Apache I/O throughput sweep (Figure 7)")
		ablations = flag.Bool("ablations", false, "design-choice ablations (Section III-B)")
		baseline  = flag.Bool("baseline", false, "hot-path charged-cost baseline (JSON artifact)")
		out       = flag.String("out", "", "write the -baseline JSON artifact to this path (default: print only)")
		all       = flag.Bool("all", false, "everything")
		syscalls  = flag.Int("syscalls", 400, "profiling workload length")
		verbose   = flag.Bool("v", false, "print attack provenance logs (with -table2)")
	)
	flag.Parse()
	if *all {
		*table1, *table2, *fig6, *fig7, *ablations, *baseline = true, true, true, true, true, true
	}
	if !*table1 && !*table2 && !*fig6 && !*fig7 && !*ablations && !*baseline {
		flag.Usage()
		return fmt.Errorf("pick at least one experiment")
	}

	if *baseline {
		fmt.Println("=== Baseline: charged hot-path costs (switch / recovery / symbolize) ===")
		b, err := eval.MeasureBaseline()
		if err != nil {
			return err
		}
		fmt.Print(b.Format())
		if *out != "" {
			data, err := json.MarshalIndent(b, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *out)
		}
		if !*table1 && !*table2 && !*fig6 && !*fig7 && !*ablations {
			return nil
		}
	}

	profileCfg := facechange.ProfileConfig{Syscalls: *syscalls}

	fmt.Println("profiling the twelve Table I applications (independent sessions)...")
	tab, err := eval.RunTable1(profileCfg)
	if err != nil {
		return err
	}

	if *table1 {
		fmt.Println("\n=== Table I: similarity matrix for applications' kernel views ===")
		fmt.Print(tab.Format())
	}

	if *table2 {
		fmt.Println("\n=== Table II: security evaluation (per-app views vs. union view) ===")
		results, err := eval.RunTable2(tab.Views, tab.UnionView(), eval.Table2Config{})
		if err != nil {
			return err
		}
		fmt.Print(eval.FormatTable2(results))
		if *verbose {
			for _, r := range results {
				if len(r.Log) == 0 {
					continue
				}
				fmt.Printf("\n--- %s provenance (victim %s) ---\n", r.Attack.Name, r.Attack.Victim)
				for _, ev := range r.Log {
					fmt.Print(ev.String())
				}
			}
		}
	}

	if *fig6 {
		fmt.Println("\n=== Figure 6: normalized UnixBench scores vs. number of loaded views ===")
		res, err := eval.RunFig6(tab.Views)
		if err != nil {
			return err
		}
		fmt.Print(res.Format())
	}

	if *fig7 {
		fmt.Println("\n=== Figure 7: Apache I/O throughput ratio (FACE-CHANGE / baseline) ===")
		points, err := eval.RunFig7(tab.Views["apache"])
		if err != nil {
			return err
		}
		fmt.Print(eval.FormatFig7(points))
	}

	if *ablations {
		fmt.Println("\n=== Ablations (Section III-B design choices) ===")
		top, _ := apps.ByName("top")
		gzip, _ := apps.ByName("gzip")
		type abl func() (eval.AblationResult, error)
		for _, f := range []abl{
			func() (eval.AblationResult, error) { return eval.AblateLoadGranularity(tab.Views["top"], top) },
			func() (eval.AblationResult, error) { return eval.AblateInstantRecovery(tab.Views["top"]) },
			func() (eval.AblationResult, error) { return eval.AblateSameViewElision(tab.Views["gzip"], gzip) },
			func() (eval.AblationResult, error) { return eval.AblateEPTGranularity(tab.Views["top"], top) },
			func() (eval.AblationResult, error) { return eval.AblateSwitchPoint(tab.Views["top"], top) },
			func() (eval.AblationResult, error) { return eval.AblateSnapshotSwitch(tab.Views["gzip"], gzip) },
		} {
			res, err := f()
			if err != nil {
				return err
			}
			fmt.Println(res)
		}
	}
	return nil
}
