package sim

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"strings"
)

// Violation is a failed invariant check: the simulated state diverged from
// what the runtime's bookkeeping promises.
type Violation struct {
	// Step is the 1-based event index at which the check failed.
	Step int
	// Event is the event whose application preceded the failure.
	Event string
	// Desc is the failed check's report.
	Desc string
	// Trace holds the trailing events before the failure, oldest first.
	Trace []string
}

func (v *Violation) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "invariant violation at step %d (%s): %s", v.Step, v.Event, v.Desc)
	if len(v.Trace) > 0 {
		b.WriteString("\ntrailing events:")
		for _, t := range v.Trace {
			b.WriteString("\n  ")
			b.WriteString(t)
		}
	}
	return b.String()
}

// digest folds the event stream and the runtime's observable reactions
// into one FNV-1a hash. Two runs of the same seed and configuration must
// produce the same digest — the determinism contract a failing seed's
// replay depends on.
type digest struct {
	h   hash.Hash64
	buf []byte // one event's record, reused
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

// event folds one applied event and the state fingerprint it produced,
// little-endian.
func (d *digest) event(ev Event, errByte byte, actives []int, recoveries, switches uint64, liveViews int) {
	b := append(d.buf[:0], byte(ev.Kind), ev.CPU)
	b = binary.LittleEndian.AppendUint32(b, uint32(ev.A))
	b = binary.LittleEndian.AppendUint32(b, uint32(ev.B))
	b = append(b, errByte)
	for _, a := range actives {
		b = binary.LittleEndian.AppendUint32(b, uint32(a))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(recoveries))
	b = binary.LittleEndian.AppendUint32(b, uint32(switches))
	d.buf = append(b, byte(liveViews))
	d.h.Write(d.buf)
}

func (d *digest) sum() uint64 { return d.h.Sum64() }
