package eval

import (
	"fmt"
	"strings"

	"facechange"
	"facechange/internal/kernel"
	"facechange/internal/kview"
	"facechange/internal/unixbench"
)

// fig6Budget is each UnixBench subtest's simulated cycle budget:
// 6 000 000 cycles.
const fig6Budget = 6_000_000

// Fig6Result is the normalized-UnixBench sweep of Figure 6.
type Fig6Result struct {
	// Subtests are the suite's names.
	Subtests []string
	// Configs labels each measurement: "baseline", then "N views".
	Configs []string
	// Normalized[c][s] is config c's subtest-s score divided by baseline.
	Normalized [][]float64
	// Index[c] is the overall normalized index (geometric mean).
	Index []float64
}

// Fig6ViewOrder returns the paper's view-loading order: the Table I
// applications with gzip excluded ("it is not a long running application",
// footnote 5).
func Fig6ViewOrder() []string {
	return []string{"apache", "firefox", "totem", "gvim", "vsftpd", "top",
		"tcpdump", "mysqld", "bash", "sshd", "eog"}
}

// quiescentScript is an idle resident application: the launched Table I
// programs sit parked in their event loops during the benchmark (the paper
// reports that additional loaded views have trivial impact, so the
// residents contribute presence, not load).
func quiescentScript() kernel.Script {
	return &kernel.LoopScript{Calls: []kernel.Syscall{
		{Nr: kernel.SysNanosleep, Blocks: 1, SleepTicks: 100000},
	}}
}

// RunFig6 measures UnixBench without FACE-CHANGE (baseline), then with
// FACE-CHANGE enabled while loading the applications' kernel views one at
// a time (measurements ii and iii of Section IV-B1), with the paper's
// FACE-CHANGE options.
func RunFig6(views map[string]*kview.View) (*Fig6Result, error) {
	order := Fig6ViewOrder()
	subtests := unixbench.Subtests()

	res := &Fig6Result{}
	for _, st := range subtests {
		res.Subtests = append(res.Subtests, st.Name)
	}

	runConfig := func(nviews int) ([]unixbench.Score, error) {
		var scores []unixbench.Score
		for _, st := range subtests {
			vm, err := facechange.NewVM(facechange.VMConfig{})
			if err != nil {
				return nil, err
			}
			if nviews >= 0 {
				for i := 0; i < nviews; i++ {
					name := order[i]
					v, ok := views[name]
					if !ok {
						return nil, fmt.Errorf("eval: no view for %s", name)
					}
					if _, err := vm.LoadView(v); err != nil {
						return nil, err
					}
					// The paper launches the application after loading its
					// view.
					vm.Kernel.StartTask(kernel.TaskSpec{Name: name, Script: quiescentScript()})
				}
				vm.Runtime.Enable()
				// Let the residents boot and park before the measurement
				// window opens.
				if err := vm.Run(1_500_000, nil); err != nil {
					return nil, err
				}
			}
			s, err := unixbench.Run(vm.Kernel, st, fig6Budget)
			if err != nil {
				return nil, err
			}
			scores = append(scores, s)
		}
		return scores, nil
	}

	baseline, err := runConfig(-1) // FACE-CHANGE disabled
	if err != nil {
		return nil, err
	}
	res.Configs = append(res.Configs, "baseline")
	res.Normalized = append(res.Normalized, ratios(baseline, baseline))
	res.Index = append(res.Index, 1.0)

	for n := 1; n <= len(order); n++ {
		scores, err := runConfig(n)
		if err != nil {
			return nil, err
		}
		res.Configs = append(res.Configs, fmt.Sprintf("%d views", n))
		res.Normalized = append(res.Normalized, ratios(scores, baseline))
		res.Index = append(res.Index, unixbench.Index(scores, baseline))
	}
	return res, nil
}

func ratios(scores, baseline []unixbench.Score) []float64 {
	out := make([]float64, len(scores))
	for i := range scores {
		if baseline[i].Score > 0 {
			out[i] = scores[i].Score / baseline[i].Score
		}
	}
	return out
}

// Format renders the sweep as the Figure 6 series.
func (r *Fig6Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s", "config")
	for _, s := range r.Subtests {
		short := s
		if len(short) > 12 {
			short = short[:12]
		}
		fmt.Fprintf(&b, "%14s", short)
	}
	fmt.Fprintf(&b, "%14s\n", "INDEX")
	for i, c := range r.Configs {
		fmt.Fprintf(&b, "%-12s", c)
		for _, v := range r.Normalized[i] {
			fmt.Fprintf(&b, "%14.3f", v)
		}
		fmt.Fprintf(&b, "%14.3f\n", r.Index[i])
	}
	return b.String()
}
