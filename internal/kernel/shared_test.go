package kernel_test

import (
	"bytes"
	"maps"
	"sort"
	"sync"
	"testing"

	"facechange/internal/kernel"
	"facechange/internal/malware"
	"facechange/internal/mem"
)

// TestSharedBaseMatchesFresh: a guest New boots on the process's shared
// base kernel equals, in RAM, symbols and branch conditions, a guest booted
// on a fresh BuildImage of the same module set, with and without a rootkit
// compiled in. Guests share the base text but not their modules: loading a
// module in one guest leaves another guest's copy unlinked.
func TestSharedBaseMatchesFresh(t *testing.T) {
	kbeast, ok := malware.ByName("KBeast")
	if !ok {
		t.Fatal("no KBeast attack")
	}
	rootkit := kbeast.ExtraModules()
	for _, tc := range []struct {
		name  string
		extra []kernel.ModuleSpec
	}{
		{"standard", nil},
		{"rootkit", rootkit},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := kernel.Config{NCPU: 2, ExtraModules: tc.extra}
			load := []string{"af_packet", "snd"}
			for _, m := range tc.extra {
				load = append(load, m.Name)
			}
			shared, err := kernel.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer shared.Host.Release()
			img, err := kernel.BuildImage(kernel.BaseCatalog(), append(kernel.StandardModules(), tc.extra...))
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := kernel.BootImage(cfg, img)
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Host.Release()
			for _, k := range []*kernel.Kernel{shared, fresh} {
				for _, m := range load {
					if _, err := k.LoadModule(m); err != nil {
						t.Fatal(err)
					}
				}
			}
			compareGuests(t, shared, fresh)
		})
	}

	// Two guests booted and loading modules at once: each sees only its
	// own modules linked, over one base text.
	var a, b *kernel.Kernel
	var errA, errB error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if a, errA = kernel.New(kernel.Config{}); errA == nil {
			_, errA = a.LoadModule("snd")
		}
	}()
	go func() {
		defer wg.Done()
		if b, errB = kernel.New(kernel.Config{}); errB == nil {
			_, errB = b.LoadModule("af_packet")
		}
	}()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	defer a.Host.Release()
	defer b.Host.Release()
	if &a.Img.Text[0] != &b.Img.Text[0] {
		t.Error("two guests compiled the base kernel twice")
	}
	for _, f := range a.Img.Modules["snd"].Funcs {
		if f.Addr == 0 {
			t.Errorf("guest A: %s not linked", f.Name)
		}
	}
	for _, f := range b.Img.Modules["snd"].Funcs {
		if f.Addr != 0 {
			t.Errorf("guest B: %s linked at %#x by guest A's load", f.Name, f.Addr)
		}
		if g, ok := b.Syms.ByName(f.Name); !ok || g.Addr != 0 {
			t.Errorf("guest B: symbol %s resolves to an address", f.Name)
		}
	}
	for _, f := range a.Img.Modules["snd"].Funcs {
		if g, ok := b.Syms.ByAddr(f.Addr); ok && g.Module == "snd" {
			t.Errorf("guest B: %#x resolves to guest A's %s", f.Addr, g.Name)
		}
	}
}

// compareGuests fails t unless the two guests agree in guest RAM, every
// symbol, the address index and the branch conditions.
func compareGuests(t *testing.T, got, want *kernel.Kernel) {
	t.Helper()
	ram := func(k *kernel.Kernel) []byte {
		b, err := k.Host.ReadSlice(0, int(mem.GuestRAMSize))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if g, w := ram(got), ram(want); !bytes.Equal(g, w) {
		i := 0
		for g[i] == w[i] {
			i++
		}
		t.Fatalf("guest RAM differs at %#x: %#x, want %#x", i, g[i], w[i])
	}

	byName := func(k *kernel.Kernel) []kernel.Func {
		var out []kernel.Func
		for _, f := range k.Syms.All() {
			out = append(out, *f)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
		return out
	}
	gs, ws := byName(got), byName(want)
	if len(gs) != len(ws) {
		t.Fatalf("%d symbols, want %d", len(gs), len(ws))
	}
	for i := range ws {
		if gs[i] != ws[i] {
			t.Fatalf("symbol %+v, want %+v", gs[i], ws[i])
		}
	}

	gf, wf := got.Syms.Funcs(), want.Syms.Funcs()
	if len(gf) != len(wf) {
		t.Fatalf("%d functions in the address index, want %d", len(gf), len(wf))
	}
	for i, w := range wf {
		if *gf[i] != *w {
			t.Fatalf("address index entry %d is %+v, want %+v", i, *gf[i], *w)
		}
		if f, ok := got.Syms.ByAddr(w.Addr); !ok || f.Name != w.Name {
			t.Fatalf("ByAddr(%#x) = %v, %v; want %s", w.Addr, f, ok, w.Name)
		}
	}

	if g, w := got.Img.AllConds(), want.Img.AllConds(); !maps.Equal(g, w) {
		t.Fatalf("%d branch conditions, want %d equal ones", len(g), len(w))
	}
}
