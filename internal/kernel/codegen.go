package kernel

import (
	"fmt"
	"sync"

	"facechange/internal/isa"
	"facechange/internal/mem"
)

// StepKind discriminates Step variants.
type StepKind uint8

// Step kinds.
const (
	StepCall StepKind = iota
	StepCallInd
	StepCond
	StepTailJmp
	StepIret
	StepTaskSwitch
	StepHalt
)

// Step is one element of a generated kernel function body.
type Step struct {
	Kind StepKind
	Sym  string  // StepCall / StepTailJmp target
	Slot Slot    // StepCallInd table
	Cond CondKey // StepCond key
	Body []Step  // StepCond body
}

// Convenience constructors for catalog authoring.

// C emits a direct call to the named function.
func C(sym string) Step { return Step{Kind: StepCall, Sym: sym} }

// Ind emits an indirect call through the given function-pointer table.
func Ind(slot Slot) Step { return Step{Kind: StepCallInd, Slot: slot} }

// If emits a conditional block executed when the kernel evaluates key true.
func If(key CondKey, body ...Step) Step { return Step{Kind: StepCond, Cond: key, Body: body} }

// Jmp emits a tail jump (ends the function without return).
func Jmp(sym string) Step { return Step{Kind: StepTailJmp, Sym: sym} }

// Iret emits an interrupt return (ends the function).
func Iret() Step { return Step{Kind: StepIret} }

// Switch emits the hardware task-switch point.
func Switch() Step { return Step{Kind: StepTaskSwitch} }

// Halt emits the idle instruction.
func Halt() Step { return Step{Kind: StepHalt} }

// FnSpec describes one kernel function to generate.
type FnSpec struct {
	Name string
	Sub  string
	// Size is the target byte size; the body is padded with executed wide
	// NOPs. If zero, the function is emitted at its natural (minimal) size.
	Size int
	// Steps is the function body.
	Steps []Step
}

// ModuleSpec describes a loadable kernel module: a named collection of
// functions generated as position-relative code, relocated at load time.
type ModuleSpec struct {
	Name  string
	Funcs []FnSpec
}

// FuncAlign is the power-of-two alignment of generated function entries,
// matching gcc -O2's -falign-functions that the paper relies on for UD2
// parity (Section III-B1, footnote 2).
const FuncAlign = 16

// Image is the generated kernel: base kernel bytes plus relocatable module
// images, the symbol table, and the branch-condition side table.
//
// The base kernel part (Text, the base functions and their conditions)
// belongs to a base image that may be shared read-only with other guests;
// Modules, the module functions and their conditions belong to this Image
// alone.
type Image struct {
	// Text is the base kernel code section, loaded at mem.KernelTextGVA.
	// It is the base image's slice: never write to it.
	Text []byte
	// Symbols covers base kernel functions and, after LoadModule, module
	// functions.
	Symbols *SymbolTable
	// Modules holds the prebuilt module images by name.
	Modules map[string]*ModuleImage

	base *baseImage
	// modConds maps the GVA of each linked module's conditional branches
	// to its condition key.
	modConds map[uint32]CondKey
}

// baseImage is a compiled base catalog: the text, its branch conditions
// and its functions, indexed by name and by address. It is immutable once
// buildBase returns, so any number of guests may share one; its *Func
// values must never be written.
type baseImage struct {
	text   []byte
	conds  map[uint32]CondKey
	byName map[string]*Func
	sorted []*Func // by Addr
}

// ModuleImage is a compiled, not-yet-loaded module.
type ModuleImage struct {
	Name string
	// Funcs lists the module's functions; Addr is 0 until the module is
	// linked.
	Funcs []*Func

	gens []*genFunc
	// Base is the GVA where the module was loaded (0 = unloaded).
	Base uint32
}

type genFunc struct {
	fn     *Func
	body   []byte
	fixups []isa.Fixup
	// conds maps body offsets of jz instructions to their keys.
	conds map[int]CondKey
}

// emit assembles one function body (without final address resolution).
func emit(spec FnSpec) (*genFunc, error) {
	var a isa.Asm
	var conds map[int]CondKey
	a.Prologue()
	var emitSteps func(steps []Step) error
	emitSteps = func(steps []Step) error {
		for _, s := range steps {
			switch s.Kind {
			case StepCall:
				a.Call(s.Sym)
			case StepCallInd:
				a.CallInd(uint32(s.Slot))
			case StepCond:
				var innerErr error
				condOff := a.Len()
				a.JzOver(func(b *isa.Asm) {
					innerErr = emitSteps(s.Body)
				})
				if innerErr != nil {
					return innerErr
				}
				if conds == nil {
					conds = make(map[int]CondKey)
				}
				conds[condOff] = s.Cond
			case StepTailJmp:
				// Proper tail call: unwind this function's frame so the
				// target's eventual ret (or iret) sees the caller's state.
				a.Leave()
				a.Jmp(s.Sym)
			case StepIret:
				a.Iret()
			case StepTaskSwitch:
				a.TaskSwitch()
			case StepHalt:
				a.Halt()
			default:
				return fmt.Errorf("kernel: unknown step kind %d in %s", s.Kind, spec.Name)
			}
		}
		return nil
	}
	if err := emitSteps(spec.Steps); err != nil {
		return nil, err
	}
	terminal := false
	if n := len(spec.Steps); n > 0 {
		switch spec.Steps[n-1].Kind {
		case StepTailJmp, StepIret, StepHalt:
			terminal = true
		}
	}
	if terminal {
		// No epilogue: pad after the terminal instruction. Padding is never
		// executed, so use it only to reach the spec size.
		if spec.Size > 0 {
			if a.Len() > spec.Size {
				return nil, fmt.Errorf("kernel: %s natural size %d exceeds spec size %d", spec.Name, a.Len(), spec.Size)
			}
			a.Pad(spec.Size)
		}
	} else {
		// Pad *before* the epilogue so padding NOPs are executed and count
		// toward the profiled view, then close the frame.
		if spec.Size > 0 {
			if a.Len()+2 > spec.Size {
				return nil, fmt.Errorf("kernel: %s natural size %d exceeds spec size %d", spec.Name, a.Len()+2, spec.Size)
			}
			a.Pad(spec.Size - 2)
		}
		a.Epilogue()
	}
	return &genFunc{
		fn:     &Func{Name: spec.Name, Sub: spec.Sub, Size: uint32(a.Len())},
		body:   a.Bytes(),
		fixups: a.Fixups(),
		conds:  conds,
	}, nil
}

func alignUp(v, align uint32) uint32 { return (v + align - 1) &^ (align - 1) }

var (
	sharedOnce sync.Once
	shared     *baseImage
	sharedErr  error
)

// sharedBase returns the process's one compiled BaseCatalog(), built on
// first use. Every guest that New boots reads it; none writes it.
func sharedBase() (*baseImage, error) {
	sharedOnce.Do(func() { shared, sharedErr = buildBase(BaseCatalog()) })
	return shared, sharedErr
}

// buildBase compiles the base kernel: it lays out the text, resolves its
// calls and records its branch conditions.
func buildBase(specs []FnSpec) (*baseImage, error) {
	b := &baseImage{
		conds:  make(map[uint32]CondKey),
		byName: make(map[string]*Func, len(specs)),
		sorted: make([]*Func, 0, len(specs)),
	}
	gens := make([]*genFunc, 0, len(specs))
	addr := mem.KernelTextGVA
	for _, spec := range specs {
		g, err := emit(spec)
		if err != nil {
			return nil, err
		}
		g.fn.Addr = addr
		addr = alignUp(addr+g.fn.Size, FuncAlign)
		if _, dup := b.byName[g.fn.Name]; dup {
			return nil, fmt.Errorf("kernel: duplicate function %q", g.fn.Name)
		}
		b.byName[g.fn.Name] = g.fn
		// Entries ascend in catalog order, so this is the address index.
		b.sorted = append(b.sorted, g.fn)
		gens = append(gens, g)
	}
	textSize := addr - mem.KernelTextGVA
	if textSize > mem.KernelTextMax {
		return nil, fmt.Errorf("kernel: text %d bytes exceeds maximum %d", textSize, mem.KernelTextMax)
	}

	// Lay out base kernel text and resolve base-kernel fixups. Base kernel
	// code must not call into modules directly (modules are reached via
	// indirect slots, as in Linux), so only base symbols resolve.
	b.text = make([]byte, textSize)
	lookup := func(sym string) (uint32, bool) {
		f, ok := b.byName[sym]
		if !ok {
			return 0, false
		}
		return f.Addr, true
	}
	for _, g := range gens {
		off := g.fn.Addr - mem.KernelTextGVA
		copy(b.text[off:], g.body)
		seg := b.text[off : off+g.fn.Size]
		if err := isa.ResolveFixups(seg, g.fn.Addr, g.fixups, lookup); err != nil {
			return nil, fmt.Errorf("%s: %w", g.fn.Name, err)
		}
		for bodyOff, key := range g.conds {
			b.conds[g.fn.Addr+uint32(bodyOff)] = key
		}
		// Fill the alignment gap after the function with NOPs (compilers
		// pad with NOP-like bytes; the gap content must not contain a fake
		// prologue).
		end := off + g.fn.Size
		for i := end; i < alignUp(end, FuncAlign) && i < textSize; i++ {
			b.text[i] = isa.ByteNop
		}
	}
	return b, nil
}

// withModules compiles module specs against the base into a guest's own
// Image. Module functions get addresses when LinkModule places them.
func (b *baseImage) withModules(modules []ModuleSpec) (*Image, error) {
	img := &Image{
		Text:     b.text,
		Modules:  make(map[string]*ModuleImage, len(modules)),
		base:     b,
		modConds: make(map[uint32]CondKey),
	}
	st := &SymbolTable{base: b, modules: make(map[string]*Func)}
	for _, ms := range modules {
		mi := &ModuleImage{Name: ms.Name}
		for _, spec := range ms.Funcs {
			g, err := emit(spec)
			if err != nil {
				return nil, fmt.Errorf("module %s: %w", ms.Name, err)
			}
			g.fn.Module = ms.Name
			if _, dup := st.ByName(g.fn.Name); dup {
				return nil, fmt.Errorf("kernel: duplicate function %q in module %s", g.fn.Name, ms.Name)
			}
			st.modules[g.fn.Name] = g.fn
			mi.gens = append(mi.gens, g)
			mi.Funcs = append(mi.Funcs, g.fn)
		}
		img.Modules[ms.Name] = mi
	}
	st.sorted = append(make([]*Func, 0, len(b.sorted)+len(st.modules)), b.sorted...)
	img.Symbols = st
	return img, nil
}

// TextSize returns the base kernel code size in bytes.
func (img *Image) TextSize() uint32 { return uint32(len(img.Text)) }

// Cond returns the condition key of the conditional branch at addr (debug
// info consumed by the CPU's branch evaluator hook).
func (img *Image) Cond(addr uint32) (CondKey, bool) {
	if mem.IsModuleGVA(addr) {
		key, ok := img.modConds[addr]
		return key, ok
	}
	key, ok := img.base.conds[addr]
	return key, ok
}

// LinkModule relocates a module image to base (a GVA in the module area)
// and returns its final code bytes. Call targets referring to base-kernel
// symbols or to functions of the same module are resolved; the symbol table
// is updated with the loaded addresses.
func (img *Image) LinkModule(name string, base uint32) ([]byte, error) {
	mi, ok := img.Modules[name]
	if !ok {
		return nil, fmt.Errorf("kernel: no module %q", name)
	}
	if mi.Base != 0 {
		return nil, fmt.Errorf("kernel: module %q already linked at %#x", name, mi.Base)
	}
	// Assign addresses.
	addr := base
	for _, g := range mi.gens {
		g.fn.Addr = addr
		addr = alignUp(addr+g.fn.Size, FuncAlign)
	}
	size := addr - base
	code := make([]byte, size)
	lookup := func(sym string) (uint32, bool) {
		f, ok := img.Symbols.ByName(sym)
		if !ok || f.Addr == 0 {
			return 0, false
		}
		return f.Addr, true
	}
	for _, g := range mi.gens {
		off := g.fn.Addr - base
		copy(code[off:], g.body)
		seg := code[off : off+g.fn.Size]
		if err := isa.ResolveFixups(seg, g.fn.Addr, g.fixups, lookup); err != nil {
			return nil, fmt.Errorf("module %s: %s: %w", name, g.fn.Name, err)
		}
		for bodyOff, key := range g.conds {
			img.modConds[g.fn.Addr+uint32(bodyOff)] = key
		}
		end := off + g.fn.Size
		for i := end; i < alignUp(end, FuncAlign) && i < size; i++ {
			code[i] = isa.ByteNop
		}
	}
	mi.Base = base
	img.Symbols.Rebuild()
	return code, nil
}
