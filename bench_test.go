// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (Section IV), plus ablation benchmarks for the design
// choices of Section III-B and microbenchmarks of the core mechanisms.
//
// Each experiment benchmark regenerates its artifact and reports the
// headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces every row/series the paper reports (shape, not absolute
// numbers — see EXPERIMENTS.md).
package facechange_test

import (
	"runtime"
	"testing"
	"time"

	"facechange"
	"facechange/internal/apps"
	"facechange/internal/eval"
	"facechange/internal/kernel"
	"facechange/internal/kview"
	"facechange/internal/malware"
)

// profileOnce caches the twelve profiled views across benchmarks.
var cachedTable1 *eval.Table1

func table1(b *testing.B) *eval.Table1 {
	b.Helper()
	if cachedTable1 == nil {
		t, err := eval.RunTable1(facechange.ProfileConfig{Syscalls: 400})
		if err != nil {
			b.Fatal(err)
		}
		cachedTable1 = t
	}
	return cachedTable1
}

// BenchmarkTable1SimilarityMatrix regenerates Table I and reports the
// extreme similarity indices (paper: 33.6% minimum, 86.5% maximum).
func BenchmarkTable1SimilarityMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := eval.RunTable1(facechange.ProfileConfig{Syscalls: 400})
		if err != nil {
			b.Fatal(err)
		}
		min, _, max, _ := t.MinMaxSimilarity()
		b.ReportMetric(100*min, "min-similarity-%")
		b.ReportMetric(100*max, "max-similarity-%")
		b.ReportMetric(float64(t.Size["firefox"])/1024, "firefox-view-KB")
		b.ReportMetric(float64(t.Size["top"])/1024, "top-view-KB")
		cachedTable1 = t
	}
}

// BenchmarkTable2SecurityEvaluation regenerates Table II and reports the
// detection counts under per-application views vs. the union view.
func BenchmarkTable2SecurityEvaluation(b *testing.B) {
	t := table1(b)
	for i := 0; i < b.N; i++ {
		results, err := eval.RunTable2(t.Views, t.UnionView(), eval.Table2Config{})
		if err != nil {
			b.Fatal(err)
		}
		fc, union := 0, 0
		for _, r := range results {
			if r.FCDetected {
				fc++
			}
			if r.UnionDetected {
				union++
			}
		}
		b.ReportMetric(float64(fc), "fc-detected/16")
		b.ReportMetric(float64(union), "union-detected/16")
	}
}

// BenchmarkFig6UnixBench regenerates Figure 6 and reports the normalized
// index with FACE-CHANGE enabled (paper: 5–7% overhead, flat in the number
// of loaded views) and the worst subtest (pipe-based context switching).
func BenchmarkFig6UnixBench(b *testing.B) {
	t := table1(b)
	for i := 0; i < b.N; i++ {
		res, err := eval.RunFig6(t.Views)
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.Index) - 1
		b.ReportMetric(res.Index[1], "index-1view")
		b.ReportMetric(res.Index[last], "index-11views")
		pipe := -1.0
		for s, name := range res.Subtests {
			if name == "Pipe-based Context Switching" {
				pipe = res.Normalized[1][s]
			}
		}
		b.ReportMetric(pipe, "pipe-ctx-ratio")
	}
}

// BenchmarkFig7ApacheIO regenerates Figure 7 and reports the throughput
// ratio at the low end and at 60 req/s (paper: unaffected below ~55 req/s,
// degrading after).
func BenchmarkFig7ApacheIO(b *testing.B) {
	t := table1(b)
	for i := 0; i < b.N; i++ {
		points, err := eval.RunFig7(t.Views["apache"])
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(points[0].Ratio, "ratio@5rps")
		b.ReportMetric(points[len(points)/2].Ratio, "ratio@30rps")
		b.ReportMetric(points[len(points)-1].Ratio, "ratio@60rps")
	}
}

// --- Ablation benchmarks (DESIGN.md section 5) ---

func BenchmarkAblationLoadGranularity(b *testing.B) {
	t := table1(b)
	app, _ := apps.ByName("top")
	for i := 0; i < b.N; i++ {
		res, err := eval.AblateLoadGranularity(t.Views["top"], app)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.On, "recoveries-wholefn")
		b.ReportMetric(res.Off, "recoveries-blocks")
		if res.OffFault {
			b.ReportMetric(1, "block-granular-corruption")
		}
	}
}

func BenchmarkAblationInstantRecovery(b *testing.B) {
	t := table1(b)
	for i := 0; i < b.N; i++ {
		res, err := eval.AblateInstantRecovery(t.Views["top"])
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.On, "misparses-with")
		b.ReportMetric(res.Off, "misparses-without")
	}
}

func BenchmarkAblationSameViewElision(b *testing.B) {
	t := table1(b)
	app, _ := apps.ByName("gzip")
	for i := 0; i < b.N; i++ {
		res, err := eval.AblateSameViewElision(t.Views["gzip"], app)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.On, "switches-elided")
		b.ReportMetric(res.Off, "switches-always")
	}
}

func BenchmarkAblationEPTGranularity(b *testing.B) {
	t := table1(b)
	app, _ := apps.ByName("top")
	for i := 0; i < b.N; i++ {
		res, err := eval.AblateEPTGranularity(t.Views["top"], app)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Off/res.On, "pte-vs-pd-cycle-ratio")
	}
}

func BenchmarkAblationSwitchPoint(b *testing.B) {
	t := table1(b)
	app, _ := apps.ByName("top")
	for i := 0; i < b.N; i++ {
		res, err := eval.AblateSwitchPoint(t.Views["top"], app)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.On, "switches-deferred")
		b.ReportMetric(res.Off, "switches-immediate")
	}
}

// --- Mechanism microbenchmarks ---

// BenchmarkProfile measures one full profiling session of a 60-syscall
// workload, heap included: guest boot, execution and view export.
func BenchmarkProfile(b *testing.B) {
	app, _ := apps.ByName("top")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := facechange.Profile(app, facechange.ProfileConfig{Syscalls: 60}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelBoot measures one guest boot: kernel.New and two module
// loads. Each boot releases its guest's RAM to the free list, so the
// figure is the kernel image work, not zeroing 40 MB of fresh RAM.
// after-gc runs two garbage collections between boots, as a profiling
// round between sessions does; the released RAM must survive them.
// BenchmarkNewVM covers RAM that comes back without a Release.
func BenchmarkKernelBoot(b *testing.B) {
	boot := func(b *testing.B) {
		k, err := kernel.New(kernel.Config{})
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range []string{"af_packet", "snd"} {
			if _, err := k.LoadModule(m); err != nil {
				b.Fatal(err)
			}
		}
		k.Host.Release()
	}
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			boot(b)
		}
	})
	b.Run("after-gc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			runtime.GC()
			runtime.GC()
			b.StartTimer()
			boot(b)
		}
	})
}

// BenchmarkNewVM measures one runtime VM boot. dropped drops each VM
// without releasing it and runs two untimed garbage collections before
// the next boot, as a perfbench round does between its runtime VMs: the
// collector finds the dropped guest's RAM unreferenced and puts it back
// on the free list, so a boot clears the pages the last guest wrote
// instead of zeroing 40 MB of fresh RAM.
func BenchmarkNewVM(b *testing.B) {
	b.Run("dropped", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			runtime.GC()
			runtime.GC()
			b.StartTimer()
			if _, err := facechange.NewVM(facechange.VMConfig{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkViewLoad measures kernel view materialization (UD2 fill +
// whole-function load).
func BenchmarkViewLoad(b *testing.B) {
	t := table1(b)
	vm, err := facechange.NewVM(facechange.VMConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx, err := vm.LoadView(t.Views["firefox"])
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := vm.Runtime.UnloadView(idx); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkProfilePool measures the concurrent profiling pipeline over the
// application catalog and reports its speedup against a serial (one-worker)
// run of the same workload. The speedup is machine-dependent: profiling
// sessions are CPU-bound, so it approaches min(workers, GOMAXPROCS) on a
// multi-core host and 1.0 on a single-core one.
func BenchmarkProfilePool(b *testing.B) {
	list := apps.Catalog()
	if len(list) > 8 {
		list = list[:8]
	}
	cfg := facechange.ProfileConfig{Syscalls: 300}
	serialStart := time.Now()
	if _, err := facechange.NewPool(facechange.PoolConfig{Workers: 1}).ProfileAll(list, cfg); err != nil {
		b.Fatal(err)
	}
	serial := time.Since(serialStart)
	pool := facechange.NewPool(facechange.PoolConfig{Workers: 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pool.ProfileAll(list, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	parallel := b.Elapsed() / time.Duration(b.N)
	b.ReportMetric(float64(serial)/float64(parallel), "speedup-vs-serial")
	b.ReportMetric(float64(len(list)), "apps")
}

// BenchmarkLoadViewCached measures view materialization with the
// content-addressed page cache warm (several views already resident) and
// reports how much of the shadow-page working set the cache deduplicates.
func BenchmarkLoadViewCached(b *testing.B) {
	t := table1(b)
	vm, err := facechange.NewVM(facechange.VMConfig{})
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"apache", "top", "gzip"} {
		if _, err := vm.LoadView(t.Views[name]); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx, err := vm.LoadView(t.Views["firefox"])
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		st := vm.Runtime.CacheStats()
		b.ReportMetric(st.DedupRatio()*100, "dedup-%")
		b.ReportMetric(float64(st.BytesSaved)/1024, "saved-KB")
		if err := vm.Runtime.UnloadView(idx); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkGuestExecution measures raw interpreter throughput: one op is a
// million simulated cycles of a getpid loop, and the metrics are the guest
// instructions those cycles cover and the wall time per instruction.
func BenchmarkGuestExecution(b *testing.B) {
	k, err := kernel.New(kernel.Config{})
	if err != nil {
		b.Fatal(err)
	}
	k.StartTask(kernel.TaskSpec{Name: "spin", Script: &kernel.LoopScript{Calls: []kernel.Syscall{
		{Nr: kernel.SysGetpid},
	}}})
	insts0 := k.M.Instructions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.M.Run(1_000_000, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	insts := float64(k.M.Instructions() - insts0)
	b.ReportMetric(insts/float64(b.N), "guest-insts/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/insts, "ns/guest-inst")
}

// BenchmarkAttackDetection measures one full attack scenario end to end.
func BenchmarkAttackDetection(b *testing.B) {
	t := table1(b)
	attack, _ := malware.ByName("Injectso")
	for i := 0; i < b.N; i++ {
		vm, err := facechange.NewVM(facechange.VMConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := vm.LoadView(t.Views["top"]); err != nil {
			b.Fatal(err)
		}
		vm.Runtime.Enable()
		task, err := attack.Launch(vm.Kernel, 1, 150)
		if err != nil {
			b.Fatal(err)
		}
		if err := vm.Run(8_000_000_000, func() bool { return task.State == kernel.TaskDead }); err != nil {
			b.Fatal(err)
		}
		if vm.Runtime.Recoveries == 0 {
			b.Fatal("attack not detected")
		}
	}
}

// BenchmarkSimilarityIndex measures Equation (1) on real view data.
func BenchmarkSimilarityIndex(b *testing.B) {
	t := table1(b)
	v1, v2 := t.Views["firefox"], t.Views["top"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = kview.Similarity(v1, v2)
	}
}
