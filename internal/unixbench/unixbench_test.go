package unixbench

import (
	"math"
	"testing"

	"facechange/internal/kernel"
)

func TestSuiteNamesAndOrder(t *testing.T) {
	sts := Subtests()
	if len(sts) != 9 {
		t.Fatalf("%d subtests, want 9", len(sts))
	}
	if sts[0].Name != "Dhrystone 2" || sts[5].Name != "Pipe-based Context Switching" {
		t.Errorf("unexpected ordering: %q, %q", sts[0].Name, sts[5].Name)
	}
}

func TestEverySubtestProgresses(t *testing.T) {
	for _, st := range Subtests() {
		st := st
		t.Run(st.Name, func(t *testing.T) {
			k, err := kernel.New(kernel.Config{})
			if err != nil {
				t.Fatal(err)
			}
			s, err := Run(k, st, 2_500_000)
			if err != nil {
				t.Fatal(err)
			}
			if s.Ops == 0 {
				t.Errorf("%s completed zero operations", st.Name)
			}
			if s.Score <= 0 {
				t.Errorf("%s score = %v", st.Name, s.Score)
			}
		})
	}
}

func TestScoresAreDeterministic(t *testing.T) {
	st := Subtests()[4] // pipe throughput
	run := func() Score {
		k, err := kernel.New(kernel.Config{})
		if err != nil {
			t.Fatal(err)
		}
		s, err := Run(k, st, 1_500_000)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := run(), run()
	if a.Ops != b.Ops || a.Cycles != b.Cycles {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestIndexGeometricMean(t *testing.T) {
	base := []Score{{Name: "a", Score: 10}, {Name: "b", Score: 20}}
	same := []Score{{Name: "a", Score: 10}, {Name: "b", Score: 20}}
	if idx := Index(same, base); math.Abs(idx-1.0) > 1e-12 {
		t.Errorf("identical runs index = %v", idx)
	}
	half := []Score{{Name: "a", Score: 5}, {Name: "b", Score: 10}}
	if idx := Index(half, base); math.Abs(idx-0.5) > 1e-12 {
		t.Errorf("half-speed index = %v", idx)
	}
	mixed := []Score{{Name: "a", Score: 20}, {Name: "b", Score: 10}}
	if idx := Index(mixed, base); math.Abs(idx-1.0) > 1e-12 {
		t.Errorf("geomean of 2x and 0.5x = %v, want 1", idx)
	}
	if Index(nil, nil) != 0 {
		t.Error("empty index should be 0")
	}
	if Index(base, base[:1]) != 0 {
		t.Error("mismatched lengths should be 0")
	}
}

func TestPipeContextSwitchingActuallySwitches(t *testing.T) {
	k, err := kernel.New(kernel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var st Subtest
	for _, s := range Subtests() {
		if s.Name == "Pipe-based Context Switching" {
			st = s
		}
	}
	before := k.ContextSwitches
	if _, err := Run(k, st, 2_000_000); err != nil {
		t.Fatal(err)
	}
	if k.ContextSwitches-before < 20 {
		t.Errorf("only %d context switches during the ping-pong subtest", k.ContextSwitches-before)
	}
}
