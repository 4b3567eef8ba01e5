package core

import (
	"fmt"
	"testing"

	"facechange/internal/kview"
)

// BenchmarkViewSwitch measures the charged cost of a custom→custom view
// switch (the hot path of the paper's Section III-B2) in both switch
// implementations, at 1/4/8 vCPUs. Every iteration flips every vCPU
// between appA and appB; the reported metric is the model-charged cycles
// per switch, which is what fcbench's tables are built from.
func BenchmarkViewSwitch(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts func() Options
	}{
		{"snapshot", func() Options {
			o := FastOptions()
			o.SwitchAtResume = false
			o.SameViewElision = false
			return o
		}},
		{"legacy", func() Options {
			o := DefaultOptions()
			o.SwitchAtResume = false
			o.SameViewElision = false
			return o
		}},
	} {
		for _, ncpu := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("%s/%dvcpu", mode.name, ncpu), func(b *testing.B) {
				rig := newSwitchRig(b, ncpu, mode.opts(), "af_packet", "snd")
				targets := [2]int{rig.idx["appA"], rig.idx["appB"]}
				for _, cpu := range rig.k.M.CPUs {
					if err := rig.rt.switchTo(cpu, targets[0]); err != nil {
						b.Fatal(err)
					}
				}
				start := rig.k.M.Cycles()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					next := targets[(i+1)%2]
					for _, cpu := range rig.k.M.CPUs {
						if err := rig.rt.switchTo(cpu, next); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.StopTimer()
				switches := float64(b.N * ncpu)
				b.ReportMetric(float64(rig.k.M.Cycles()-start)/switches, "charged-cycles/switch")
			})
		}
	}
}

// BenchmarkRecoveryStorm measures UD2-driven kernel-code recovery under
// both switch modes: each iteration loads a fresh minimal view, takes 32
// recovery traps at distinct excluded functions, and unloads it. Reported
// as charged cycles per recovery (VM exit + backtrace VMI + COW remap).
func BenchmarkRecoveryStorm(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts func() Options
	}{
		{"snapshot", func() Options { o := FastOptions(); o.SwitchAtResume = false; return o }},
		{"legacy", func() Options { o := DefaultOptions(); o.SwitchAtResume = false; return o }},
	} {
		b.Run(mode.name, func(b *testing.B) {
			rig := newSwitchRig(b, 1, mode.opts())
			cpu := rig.k.M.CPUs[0]
			funcs := textFuncs(b, rig.k)
			if len(funcs) > 32 {
				funcs = funcs[:32]
			}
			anchor, ok := rig.k.Syms.ByName("sys_getpid")
			if !ok {
				b.Fatal("missing symbol sys_getpid")
			}
			start := rig.k.M.Cycles()
			recoveries := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg := kview.NewView("storm")
				cfg.Insert(kview.BaseKernel, anchor.Addr, anchor.End())
				idx, err := rig.rt.LoadView(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := rig.rt.switchTo(cpu, idx); err != nil {
					b.Fatal(err)
				}
				for _, fn := range funcs {
					if fn.Name == anchor.Name {
						continue
					}
					cpu.EIP, cpu.EBP = fn.Addr, 0
					handled, err := rig.rt.OnInvalidOpcode(rig.k.M, cpu)
					if err != nil || !handled {
						b.Fatalf("OnInvalidOpcode(%s): handled=%v err=%v", fn.Name, handled, err)
					}
					recoveries++
				}
				if err := rig.rt.UnloadView(idx); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(rig.k.M.Cycles()-start)/float64(recoveries), "charged-cycles/recovery")
		})
	}
}

// BenchmarkLoadView measures view materialization in host time and heap:
// each iteration loads a view of every fourth base-kernel function plus
// one function of each of two guest modules (UD2 fill, whole-function
// prologue scans, staging, interning), then unloads it.
func BenchmarkLoadView(b *testing.B) {
	mods := []string{"af_packet", "snd"}
	rig := newSwitchRig(b, 1, FastOptions(), mods...)
	cfg := kview.NewView("bench")
	for i, f := range textFuncs(b, rig.k) {
		if i%4 == 0 {
			cfg.Insert(kview.BaseKernel, f.Addr, f.End())
		}
	}
	for _, m := range rig.k.Modules() {
		f := moduleFunc(b, rig.k, m.Name)
		cfg.Insert(m.Name, f.Addr-m.Base, f.End()-m.Base)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx, err := rig.rt.LoadView(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := rig.rt.UnloadView(idx); err != nil {
			b.Fatal(err)
		}
	}
}
