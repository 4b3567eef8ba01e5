package kernel

// BootImage boots a guest on img: the boot path of New, without the
// process's shared base.
var BootImage = boot

// AllConds returns every branch condition img registers: the base text's
// and those of its linked modules.
func (img *Image) AllConds() map[uint32]CondKey {
	all := make(map[uint32]CondKey, len(img.base.conds)+len(img.modConds))
	for addr, key := range img.base.conds {
		all[addr] = key
	}
	for addr, key := range img.modConds {
		all[addr] = key
	}
	return all
}

// BuildImage generates a kernel from base and module specs without the
// process's shared base: the fresh compile that guests on the shared base
// must equal.
func BuildImage(base []FnSpec, modules []ModuleSpec) (*Image, error) {
	b, err := buildBase(base)
	if err != nil {
		return nil, err
	}
	return b.withModules(modules)
}

// All returns every function, loaded or not, in unspecified order.
func (st *SymbolTable) All() []*Func {
	out := make([]*Func, 0, len(st.base.sorted)+len(st.modules))
	out = append(out, st.base.sorted...)
	for _, f := range st.modules {
		out = append(out, f)
	}
	return out
}
