package core

import "facechange/internal/mem"

// recArena is one vCPU's recovery scratch: buffers the UD2 trap path
// reuses across traps so a steady-state recovery allocates only what it
// must retain (the logged event's backtrace copy). All access happens
// under the runtime's mutex on behalf of one vCPU, so the arena needs no
// locking of its own. Buffers grow amortized and never shrink — a
// recovery storm reaches a fixed point after the first few traps.
type recArena struct {
	// frames/instant back the backtrace walk. The returned frames slice
	// aliases the arena; OnInvalidOpcode copies it exactly-sized before
	// anything retains it.
	frames  []Frame
	instant []uint32
	// snapBuf backs copyPhys's shadow snapshot for the failure-path
	// restore.
	snapBuf []byte
	// regionBuf backs funcSpan's prologue scan only while a fault injector
	// is attached: corruption must land on a copy of the region (the whole
	// kernel text in the worst case). Without one the scan reads guest
	// memory in place and regionBuf stays empty.
	regionBuf []byte
	// stack (behind faultStack while an injector is attached) is the
	// backtrace's stack accessor, rebuilt in place at every trap; site
	// receives each return site's first two bytes. Both are read through
	// the mem.Access interface, so stack-local ones would escape.
	stack      mem.Accessor
	faultStack mem.FaultAccessor
	site       [2]byte
}

// arenaBytes returns a length-n byte buffer backed by *buf, growing the
// backing array only when capacity is exceeded.
func arenaBytes(buf *[]byte, n int) []byte {
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	*buf = (*buf)[:n]
	return *buf
}
