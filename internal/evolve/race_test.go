package evolve

import (
	"net"
	"sync"
	"testing"
	"time"

	"facechange/internal/core"
	"facechange/internal/detect"
	"facechange/internal/fleet"
	"facechange/internal/kernel"
	"facechange/internal/kview"
	"facechange/internal/mem"
	"facechange/internal/telemetry"
)

// TestGenerationRaceWithSwitchStormAndFleetSync hammers the three writers
// that can touch a live runtime's view table at once: the evolution loop
// publishing freshly cut generations (hot-plug LoadView + retirement),
// an administrator storming load/assign/unload on an unrelated view, and
// a fleet node delta-syncing every published generation into a second
// runtime. Run under -race this is the promotion/switch/sync
// interleaving proof; the functional assertions at the end check nothing
// was lost in the storm.
func TestGenerationRaceWithSwitchStormAndFleetSync(t *testing.T) {
	k, err := kernel.New(kernel.Config{Clock: kernel.ClockKVM})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.New(core.Setup{Machine: k.M, Symbols: k.Syms, TextSize: k.Img.TextSize()})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := kernel.New(kernel.Config{Clock: kernel.ClockKVM})
	if err != nil {
		t.Fatal(err)
	}
	rt2, err := core.New(core.Setup{Machine: k2.M, Symbols: k2.Syms, TextSize: k2.Img.TextSize()})
	if err != nil {
		t.Fatal(err)
	}

	srv := fleet.NewServer(fleet.ServerConfig{})
	node := fleet.NewNode(fleet.NodeConfig{
		ID: "race-node",
		Dial: func() (net.Conn, error) {
			c, s := net.Pipe()
			go srv.ServeConn(s)
			return c, nil
		},
		Runtime:       rt2,
		Backoff:       fleet.BackoffConfig{Base: time.Millisecond, Max: 20 * time.Millisecond},
		FlushInterval: 2 * time.Millisecond,
	})
	node.Start()
	defer node.Close()

	pubRT := PublishToRuntime(rt)
	e, err := New(Config{
		Detector:     detect.New(detect.Config{}),
		MinHits:      2,
		MinWindows:   2,
		WindowCycles: 4_000_000,
		TextSize:     k.Img.TextSize(),
		Publish: func(app string, gen uint64, v *kview.View) error {
			if err := pubRT(app, gen, v); err != nil {
				return err
			}
			return srv.Publish(v)
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// A pool of real base-kernel functions to fabricate recoveries from.
	var funcs []*kernel.Func
	for _, f := range k.Syms.Funcs() {
		if f.Size > 0 && !mem.IsModuleGVA(f.Addr) && f.End() <= mem.KernelTextGVA+k.Img.TextSize() {
			funcs = append(funcs, f)
		}
		if len(funcs) == 16 {
			break
		}
	}
	if len(funcs) < 4 {
		t.Fatalf("only %d usable kernel functions", len(funcs))
	}

	stormFn := funcs[0]
	var wg sync.WaitGroup

	// Writer 1: the trap storm feeding the evolver — every crossing cuts a
	// generation and publishes into both runtimes mid-storm.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			f := funcs[i%len(funcs)]
			e.HandleEvent(telemetry.Event{
				Kind:    telemetry.KindRecovery,
				Cycle:   uint64(i) * 1_000_000,
				Comm:    "evapp",
				Addr:    f.Addr + 2,
				FnStart: f.Addr,
				FnEnd:   f.End(),
				Fn:      f.Name + "+0x2",
			})
		}
	}()

	// Writer 2: load/assign/unload churn on an unrelated view — the
	// administrator racing the publisher for the runtime's view table.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			v := kview.NewView("storm")
			v.Insert(kview.BaseKernel, stormFn.Addr, stormFn.End())
			idx, err := rt.LoadView(v)
			if err != nil {
				t.Errorf("storm load: %v", err)
				return
			}
			if err := rt.AssignView("storm", idx); err != nil {
				t.Errorf("storm assign: %v", err)
				return
			}
			rt.UnloadView(idx)
		}
	}()

	// Reader: concurrent queries against every evolver entry point.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			e.Stats()
			e.Generations()
			e.View("evapp")
			e.PromotedRanges("evapp")
			rt.ViewIndex("evapp")
		}
	}()

	wg.Wait()
	e.AdvanceAll()

	st := e.Stats()
	if st.Generations == 0 {
		t.Fatalf("storm cut no generations: %+v", st)
	}
	if st.PublishErrors != 0 {
		t.Fatalf("publish errors under race: %+v (last %v)", st, e.LastErr())
	}
	if rt.ViewIndex("evapp") == core.FullView {
		t.Fatal("live runtime lost the evolved view")
	}
	// The fleet node must converge on the final published catalog and
	// hot-plug the evolved view into its own runtime.
	if err := node.WaitDigest(srv.Catalog().Manifest().DigestString(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for rt2.ViewIndex("evapp") == core.FullView {
		if time.Now().After(deadline) {
			t.Fatal("fleet node never applied the evolved view")
		}
		time.Sleep(time.Millisecond)
	}
	v, gen := e.View("evapp")
	if gen == 0 || v.Size() == 0 {
		t.Fatalf("final generation empty: gen %d size %d", gen, v.Size())
	}
}
