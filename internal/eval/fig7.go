package eval

import (
	"fmt"
	"strings"

	"facechange"
	"facechange/internal/httpload"
	"facechange/internal/kview"
)

// fig7Seconds is each rate point's measurement time: 6 simulated seconds.
const fig7Seconds = 6

// Fig7Point is one rate measurement.
type Fig7Point struct {
	Rate        float64
	BaselineRPS float64
	FCRPS       float64
	// Ratio is FC throughput over baseline throughput — the Figure 7
	// series.
	Ratio float64
}

// RunFig7 sweeps the paper's offered request rates, 5 to 60 req/s in steps
// of 5, against Apache with and without FACE-CHANGE (the paper's options)
// enforcing Apache's kernel view.
func RunFig7(apacheView *kview.View) ([]Fig7Point, error) {
	measure := func(rate float64, enforce bool) (float64, error) {
		vm, err := facechange.NewVM(facechange.VMConfig{})
		if err != nil {
			return 0, err
		}
		if enforce {
			if _, err := vm.LoadView(apacheView); err != nil {
				return 0, err
			}
			vm.Runtime.Enable()
		}
		servers := httpload.StartServers(vm.Kernel)
		// Warm up half a second so the pool is parked in accept.
		if err := vm.Run(httpload.CyclesPerSecond/2, nil); err != nil {
			return 0, err
		}
		res, err := httpload.Run(vm.Kernel, servers, rate, fig7Seconds)
		if err != nil {
			return 0, err
		}
		return res.ServedRPS, nil
	}
	var out []Fig7Point
	for rate := 5.0; rate <= 60; rate += 5 {
		base, err := measure(rate, false)
		if err != nil {
			return nil, fmt.Errorf("eval fig7 baseline @%v: %w", rate, err)
		}
		fc, err := measure(rate, true)
		if err != nil {
			return nil, fmt.Errorf("eval fig7 fc @%v: %w", rate, err)
		}
		p := Fig7Point{Rate: rate, BaselineRPS: base, FCRPS: fc}
		if base > 0 {
			p.Ratio = fc / base
		}
		out = append(out, p)
	}
	return out, nil
}

// FormatFig7 renders the sweep as the Figure 7 series.
func FormatFig7(points []Fig7Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8s %14s %14s %8s\n", "req/s", "baseline rps", "facechange rps", "ratio")
	for _, p := range points {
		fmt.Fprintf(&b, "%8.0f %14.2f %14.2f %8.3f\n", p.Rate, p.BaselineRPS, p.FCRPS, p.Ratio)
	}
	return b.String()
}
