package eval

import (
	"testing"

	"facechange"
	"facechange/internal/apps"
	"facechange/internal/kview"
)

// fig6Views profiles the Figure 6 application set once.
func fig6Views(t *testing.T) map[string]*kview.View {
	t.Helper()
	views := map[string]*kview.View{}
	for _, name := range Fig6ViewOrder() {
		app, ok := apps.ByName(name)
		if !ok {
			t.Fatalf("no app %s", name)
		}
		v, err := facechange.Profile(app, facechange.ProfileConfig{Syscalls: 300})
		if err != nil {
			t.Fatalf("profile %s: %v", name, err)
		}
		views[name] = v
	}
	return views
}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full UnixBench sweep")
	}
	res, err := RunFig6(fig6Views(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Format())
	if len(res.Configs) != 12 { // baseline + 11 view counts
		t.Fatalf("%d configs", len(res.Configs))
	}
	// Paper finding 1: enabling FACE-CHANGE costs 5-7%% overall.
	oneView := res.Index[1]
	if oneView < 0.90 || oneView > 0.97 {
		t.Errorf("index with FACE-CHANGE = %.3f, want ~0.93-0.95 (paper: 5-7%% overhead)", oneView)
	}
	// Paper finding 2: adding views has trivial impact.
	for i := 2; i < len(res.Index); i++ {
		if diff := res.Index[i] - oneView; diff < -0.02 || diff > 0.02 {
			t.Errorf("index at %s = %.3f deviates from 1 view (%.3f): views should not matter",
				res.Configs[i], res.Index[i], oneView)
		}
	}
	// Paper finding 3: pipe-based context switching is the degraded
	// subtest; everything else stays near baseline.
	pipeIdx := -1
	for i, n := range res.Subtests {
		if n == "Pipe-based Context Switching" {
			pipeIdx = i
		}
	}
	pipe := res.Normalized[1][pipeIdx]
	for i, n := range res.Subtests {
		v := res.Normalized[1][i]
		if i == pipeIdx {
			if v > 0.9 {
				t.Errorf("pipe-based context switching = %.3f, expected visible degradation", v)
			}
			continue
		}
		if v < pipe {
			t.Errorf("%s (%.3f) more degraded than pipe-based context switching (%.3f)", n, v, pipe)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full rate sweep")
	}
	app := fig6Views(t)["apache"]
	points, err := RunFig7(app)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FormatFig7(points))
	if len(points) != 12 {
		t.Fatalf("%d points", len(points))
	}
	// Below the ~55 req/s threshold the ratio is ~1.0.
	for _, p := range points {
		if p.Rate <= 55 {
			if p.Ratio < 0.97 || p.Ratio > 1.03 {
				t.Errorf("ratio at %v req/s = %.3f, want ~1.0 below threshold", p.Rate, p.Ratio)
			}
		}
	}
	// At 60 req/s FACE-CHANGE serves measurably less than baseline.
	last := points[len(points)-1]
	if last.Rate != 60 {
		t.Fatalf("last point at %v", last.Rate)
	}
	if last.Ratio >= 1.0 {
		t.Errorf("ratio at 60 req/s = %.3f, want degradation past the threshold", last.Ratio)
	}
}
