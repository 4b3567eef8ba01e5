package migrate_test

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"facechange/internal/core"
	"facechange/internal/kernel"
	"facechange/internal/kview"
	"facechange/internal/mem"
	"facechange/internal/migrate"
)

// agentNode is one runtime with its migration agent.
type agentNode struct {
	k     *kernel.Kernel
	rt    *core.Runtime
	agent *migrate.Agent
}

func newAgentNode(tb testing.TB) *agentNode {
	tb.Helper()
	k, err := kernel.New(kernel.Config{Clock: kernel.ClockKVM, NCPU: 2})
	if err != nil {
		tb.Fatal(err)
	}
	rt, err := core.New(core.Setup{Machine: k.M, Symbols: k.Syms, TextSize: k.Img.TextSize(), Opts: core.FastOptions()})
	if err != nil {
		tb.Fatal(err)
	}
	rt.Enable()
	return &agentNode{k: k, rt: rt, agent: migrate.NewAgent(rt, nil)}
}

// textView builds a view of every step-th base-kernel function starting
// at the off-th.
func textView(tb testing.TB, k *kernel.Kernel, app string, off, step int) *kview.View {
	tb.Helper()
	cfg := kview.NewView(app)
	i := 0
	for _, f := range k.Syms.Funcs() {
		if f.Module != "" || f.Size < 16 || f.Addr < mem.KernelTextGVA || f.End() > mem.KernelTextGVA+k.Img.TextSize() {
			continue
		}
		if i%step == off {
			cfg.Insert(kview.BaseKernel, f.Addr, f.End())
		}
		i++
	}
	if cfg.Len() == 0 {
		tb.Fatal("no base-kernel functions in symbol table")
	}
	return cfg
}

// patternDeltas returns n page deltas over the first n kernel text pages,
// each filled with a page-specific byte pattern.
func patternDeltas(n int) []core.PageDelta {
	out := make([]core.PageDelta, n)
	for i := range out {
		data := make([]byte, mem.PageSize)
		for j := range data {
			data[j] = byte(i*31 + j%251 + 1)
		}
		out[i] = core.PageDelta{GPA: mem.KernelTextGPA + uint32(i)*mem.PageSize, Data: data}
	}
	return out
}

// seed loads cfg on the node with the given deltas already privatized,
// through the agent's own import path.
func (n *agentNode) seed(tb testing.TB, cfg *kview.View, deltas []core.PageDelta) {
	tb.Helper()
	im, err := migrate.BuildImage(&core.ViewState{App: cfg.App, Cfg: cfg, Deltas: deltas}, "seed", 0, nil)
	if err != nil {
		tb.Fatal(err)
	}
	img, err := im.Encode()
	if err != nil {
		tb.Fatal(err)
	}
	if _, _, applied, _, err := n.agent.Import(img, resolver(cfg)); err != nil || applied != len(deltas) {
		tb.Fatalf("seed import: %d of %d deltas applied, err %v", applied, len(deltas), err)
	}
}

func resolver(cfg *kview.View) func([sha256.Size]byte) (*kview.View, error) {
	return func([sha256.Size]byte) (*kview.View, error) { return cfg, nil }
}

// TestExportOutlivesCommit: the exported image owns its bytes. Export
// reads the frozen view's private pages in place, so after Commit frees
// them and another view's load reuses them, the image must still decode
// to the original deltas and restore them byte for byte on a target.
func TestExportOutlivesCommit(t *testing.T) {
	src, dst := newAgentNode(t), newAgentNode(t)
	cfg := textView(t, src.k, "webapp", 0, 8)
	want := patternDeltas(6)
	src.seed(t, cfg, want)

	v := src.rt.ViewByIndex(src.rt.ViewIndex("webapp"))
	shared := v.SharedPageSet()
	private := map[uint32]uint32{} // HPA → GPA
	v.Pages(func(gpa, hpa uint32) bool {
		if !shared[gpa] {
			private[hpa] = gpa
		}
		return true
	})
	if len(private) != len(want) {
		t.Fatalf("%d private pages after seeding, want %d", len(private), len(want))
	}

	if err := src.agent.Freeze("webapp"); err != nil {
		t.Fatal(err)
	}
	img, err := src.agent.Export("webapp", "node-0", 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.agent.Commit("webapp"); err != nil {
		t.Fatal(err)
	}
	if _, err := src.rt.LoadView(textView(t, src.k, "other", 1, 2)); err != nil {
		t.Fatal(err)
	}
	// A freed page keeps its bytes until its next owner overwrites them,
	// so a page no longer holding its delta was reused.
	byGPA := map[uint32][]byte{}
	for _, d := range want {
		byGPA[d.GPA] = d.Data
	}
	reused := 0
	for hpa, gpa := range private {
		page, err := src.k.M.Host.Slice(hpa, mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(page, byGPA[gpa]) {
			reused++
		}
	}
	if reused == 0 {
		t.Fatal("the other view's load reused none of the committed view's pages; the test proves nothing")
	}

	im, err := migrate.Decode(img)
	if err != nil {
		t.Fatalf("exported image no longer decodes: %v", err)
	}
	if len(im.Deltas) != len(want) {
		t.Fatalf("%d deltas decoded, want %d", len(im.Deltas), len(want))
	}
	for i, d := range im.Deltas {
		if d.GPA != want[i].GPA || !bytes.Equal(d.Data, want[i].Data) {
			t.Fatalf("decoded delta %d (%#x) differs from the exported page", i, d.GPA)
		}
	}
	if _, _, applied, skipped, err := dst.agent.Import(img, resolver(cfg)); err != nil || applied != len(want) || skipped != 0 {
		t.Fatalf("import: applied %d skipped %d err %v", applied, skipped, err)
	}
	f, err := dst.rt.FreezeApp("webapp")
	if err != nil {
		t.Fatal(err)
	}
	st, err := dst.rt.ExportViewState(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Deltas) != len(want) {
		t.Fatalf("target holds %d private pages, want %d", len(st.Deltas), len(want))
	}
	for i, d := range st.Deltas {
		if d.GPA != want[i].GPA || !bytes.Equal(d.Data, want[i].Data) {
			t.Fatalf("restored delta %d (%#x) differs from the exported page", i, d.GPA)
		}
	}
}

// BenchmarkMigrateCycle measures one live migration between two runtimes
// in host time and heap: freeze, export (encode), import (decode, then a
// view load that stages no code into the pages the deltas replace, writes
// each delta straight into a private page and interns the rest) and
// commit (an unload that frees the private pages without clearing them),
// with the view moving back and forth. The view carries 128 COW pages, a
// 525 KB image; perfbench's local-zipf migrations ship a median of 591 KB.
func BenchmarkMigrateCycle(b *testing.B) {
	nodes := [2]*agentNode{newAgentNode(b), newAgentNode(b)}
	cfg := textView(b, nodes[0].k, "webapp", 0, 4)
	nodes[0].seed(b, cfg, patternDeltas(128))
	resolve := resolver(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, dst := nodes[i%2], nodes[(i+1)%2]
		if err := src.agent.Freeze("webapp"); err != nil {
			b.Fatal(err)
		}
		img, err := src.agent.Export("webapp", "src", uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, _, applied, _, err := dst.agent.Import(img, resolve); err != nil || applied != 128 {
			b.Fatalf("import: %d deltas applied, err %v", applied, err)
		}
		if err := src.agent.Commit("webapp"); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRoundTripReExportsSame: a view moved A→B→A exports the same image
// as it did before it left (same deltas, same recovered set, byte for
// byte under the same source node and sequence), and each node's cache
// and host pages balance once its copy of the view is gone — after the
// source commit, and after unloading the view that came back.
func TestRoundTripReExportsSame(t *testing.T) {
	a, b := newAgentNode(t), newAgentNode(t)
	liveA, liveB := a.k.M.Host.LivePages(), b.k.M.Host.LivePages()
	cfg := textView(t, a.k, "webapp", 0, 4)
	rec := kview.NewView("webapp")
	fn := cfg.Ranges(kview.BaseKernel)[1]
	rec.Insert(kview.BaseKernel, fn.Start, fn.End)
	im, err := migrate.BuildImage(&core.ViewState{App: "webapp", Cfg: cfg, Recovered: rec, Deltas: patternDeltas(16)}, "seed", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := im.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := a.agent.Import(seed, resolver(cfg)); err != nil {
		t.Fatal(err)
	}
	move := func(src, dst *agentNode, srcLive int) []byte {
		t.Helper()
		if err := src.agent.Freeze("webapp"); err != nil {
			t.Fatal(err)
		}
		img, err := src.agent.Export("webapp", "node-0", 7)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, applied, skipped, err := dst.agent.Import(img, resolver(cfg)); err != nil || applied != 16 || skipped != 0 {
			t.Fatalf("import: applied %d skipped %d err %v", applied, skipped, err)
		}
		if err := src.agent.Commit("webapp"); err != nil {
			t.Fatal(err)
		}
		if st := src.rt.CacheStats(); st.DistinctPages != 0 {
			t.Fatalf("%d cached pages left on the source after commit", st.DistinctPages)
		}
		if live := src.k.M.Host.LivePages(); live != srcLive {
			t.Fatalf("%d host pages live on the source after commit, want %d", live, srcLive)
		}
		return img
	}
	first := move(a, b, liveA)
	move(b, a, liveB)
	if err := a.agent.Freeze("webapp"); err != nil {
		t.Fatal(err)
	}
	again, err := a.agent.Export("webapp", "node-0", 7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, first) {
		t.Fatal("the view exports a different image after the round trip")
	}
	if err := a.agent.Abort("webapp"); err != nil {
		t.Fatal(err)
	}
	if err := a.rt.UnloadView(a.rt.ViewIndex("webapp")); err != nil {
		t.Fatal(err)
	}
	if st := a.rt.CacheStats(); st.DistinctPages != 0 || a.k.M.Host.LivePages() != liveA {
		t.Fatalf("after unloading the returned view: %d cached pages, %d live host pages (want 0, %d)",
			st.DistinctPages, a.k.M.Host.LivePages(), liveA)
	}
}
