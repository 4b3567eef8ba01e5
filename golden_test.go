package facechange_test

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"facechange"
	"facechange/internal/apps"
	"facechange/internal/core"
	"facechange/internal/eval"
	"facechange/internal/kview"
	"facechange/internal/load"
	"facechange/internal/sim"
)

// TestGoldenViewConfigRoundTrip: exporting a profiled view configuration
// and re-importing it must materialize the *same* view — identical
// LoadedBytes and identical shadow page sets. With the content-addressed
// page cache the check is exact: the re-imported view must map every page
// to the very same host page as the original (100% dedup), because any
// content difference would intern a new page.
func TestGoldenViewConfigRoundTrip(t *testing.T) {
	app, ok := apps.ByName("apache")
	if !ok {
		t.Fatal("no apache app")
	}
	view, err := facechange.Profile(app, facechange.ProfileConfig{Syscalls: 300})
	if err != nil {
		t.Fatal(err)
	}

	data, err := view.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	imported, err := kview.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := imported.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("config file not stable across export → import → export")
	}

	vm, err := facechange.NewVM(facechange.VMConfig{Modules: app.Modules})
	if err != nil {
		t.Fatal(err)
	}
	i1, err := vm.LoadView(view)
	if err != nil {
		t.Fatal(err)
	}
	i2, err := vm.LoadView(imported)
	if err != nil {
		t.Fatal(err)
	}
	v1, v2 := vm.Runtime.ViewByIndex(i1), vm.Runtime.ViewByIndex(i2)

	if v1.LoadedBytes != v2.LoadedBytes {
		t.Errorf("LoadedBytes: original %d, re-imported %d", v1.LoadedBytes, v2.LoadedBytes)
	}
	pagesOf := func(v *core.LoadedView) (out [][2]uint32) {
		v.Pages(func(gpa, hpa uint32) bool {
			out = append(out, [2]uint32{gpa, hpa})
			return true
		})
		return out
	}
	p1, p2 := pagesOf(v1), pagesOf(v2)
	if len(p1) != len(p2) {
		t.Fatalf("page count: original %d, re-imported %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Errorf("page %#x → HPA %#x in the original, page %#x → HPA %#x re-imported", p1[i][0], p1[i][1], p2[i][0], p2[i][1])
		}
	}

	// Full dedup: loading the re-imported twin added no distinct pages.
	st := vm.Runtime.CacheStats()
	pages := uint64(len(p2))
	if st.DedupedPages < pages {
		t.Errorf("DedupedPages = %d, want ≥ %d (the whole re-imported view)", st.DedupedPages, pages)
	}
}

// TestSimDigestPins replays the three fcsim runs that CI pins, in process
// and with fcsim's flag defaults, and asserts their trace digests:
//
//	fcsim -seed 1 -steps 20000 -faults all
//	fcsim -seed 3 -steps 15000 -faults all -legacy -mix churn
//	fcsim -seed 3 -steps 12000 -mix migrate
func TestSimDigestPins(t *testing.T) {
	all, err := sim.ParseFaults("all")
	if err != nil {
		t.Fatal(err)
	}
	for _, pin := range []struct {
		name   string
		seed   int64
		steps  int
		legacy bool
		mix    string
		digest uint64
	}{
		{"snapshot", 1, 20000, false, "default", 0x909592cdb23b9568},
		{"legacy-churn", 3, 15000, true, "churn", 0x988b04a5d7de321a},
		{"migrate", 3, 12000, false, "migrate", 0xd50b7d69529aa3cf},
	} {
		t.Run(pin.name, func(t *testing.T) {
			res, err := sim.Run(sim.Config{
				Seed:         pin.seed,
				Steps:        pin.steps,
				CPUs:         2,
				Faults:       all,
				FaultRate:    0.01,
				Workers:      2,
				MaxViews:     6,
				CheckEvery:   2000,
				LegacySwitch: pin.legacy,
				Mix:          pin.mix,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Digest != pin.digest {
				t.Fatalf("digest %016x, want %016x", res.Digest, pin.digest)
			}
		})
	}
}

// TestLoadDigestPins replays the load harness in process, with fcload's
// flag defaults, and asserts the trace and report digests of
//
//	fcload -seed 1 -apps 12 -skew 1.1 -events 50000 [-sharedcore]
func TestLoadDigestPins(t *testing.T) {
	tr, err := load.GenTrace(load.TraceConfig{
		Seed: 1, Apps: 12, Skew: 1.1, Events: 50000, CPUs: 2,
		Arrival: "open", Rate: 2000, Think: 2000, Shape: "steady",
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tr.DigestString(), "a54ec5094f18d952"; got != want {
		t.Fatalf("trace digest %s, want %s", got, want)
	}
	for _, pin := range []struct {
		name       string
		sharedCore bool
		digest     string
	}{
		{"local", false, "2d7c6c11b07948e2"},
		{"sharedcore", true, "7a217c28392900d2"},
	} {
		t.Run(pin.name, func(t *testing.T) {
			rep, err := load.Run(load.RunConfig{Trace: tr, Runtimes: 2, SharedCore: pin.sharedCore})
			if err != nil {
				t.Fatal(err)
			}
			if rep.ReportDigest != pin.digest {
				t.Fatalf("report digest %s, want %s", rep.ReportDigest, pin.digest)
			}
		})
	}
}

// TestBaselinePin regenerates the charged-cost baseline and requires it to
// equal the committed BENCH_baseline.json byte for byte, marshalled the
// way `fcbench -baseline -out` writes it. Every figure in the file is a
// charged cycle count or a cost-model constant, so any drift is a real
// change in the cost of a hot path; rewrite the file with
// `fcbench -baseline -out BENCH_baseline.json` and review its diff.
func TestBaselinePin(t *testing.T) {
	b, err := eval.MeasureBaseline()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got := append(data, '\n')
	want, err := os.ReadFile("BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCH_baseline.json is stale; regenerated baseline:\n%s", got)
	}
}
