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
