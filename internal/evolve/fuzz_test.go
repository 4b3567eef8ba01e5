package evolve

import (
	"testing"

	"facechange/internal/detect"
	"facechange/internal/kview"
	"facechange/internal/mem"
	"facechange/internal/telemetry"
)

// FuzzPromotion replays an arbitrary interleaving of benign and
// attack-verdict recovery events against the aggregator and asserts the
// promotion safety invariant: once a span has produced a suspect-class
// event, no later cut may promote it. Each input byte pair encodes one
// event — the first byte picks the span (low 3 bits) and whether the
// event is an attack (bit 3), the second advances the cycle counter (255
// restarts the session, exercising the epoch logic).
func FuzzPromotion(f *testing.F) {
	f.Add([]byte{0x00, 10, 0x00, 120, 0x00, 120})           // benign span 0 across windows
	f.Add([]byte{0x00, 10, 0x08, 5, 0x00, 120, 0x00, 120})  // attack first, benign laundering after
	f.Add([]byte{0x00, 10, 0x00, 120, 0x08, 5, 0x00, 200})  // attack lands after crossing, before cut
	f.Add([]byte{0x01, 255, 0x01, 255, 0x09, 1, 0x01, 120}) // session restarts interleaved
	f.Add([]byte{0x02, 60, 0x0a, 60, 0x02, 60, 0x03, 60, 0x0b, 60, 0x03, 60})

	f.Fuzz(func(t *testing.T, data []byte) {
		const (
			nSpans   = 8
			spanSize = 0x80
			app      = "top"
		)
		eng := detect.New(detect.Config{
			Baselines: map[string]map[string]bool{app: {"good": true}},
		})
		type pub struct {
			idx int // event index at which the cut shipped
			rl  kview.RangeList
		}
		var (
			pubs     []pub
			eventIdx int
		)
		e, err := New(Config{
			Detector: eng,
			MinHits:  2, MinWindows: 2,
			WindowCycles: 64,
			TextSize:     0x10000,
			Publish: func(_ string, _ uint64, v *kview.View) error {
				pubs = append(pubs, pub{idx: eventIdx, rl: v.Ranges(kview.BaseKernel)})
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}

		spanStart := func(i int) uint32 {
			return mem.KernelTextGVA + uint32(i)*0x100
		}
		firstAttack := map[int]int{} // span index → event index of first attack
		var cycle uint64
		n := 0
		for i := 0; i+1 < len(data); i += 2 {
			si := int(data[i] & 0x07)
			attack := data[i]&0x08 != 0
			if data[i+1] == 255 {
				cycle = 0 // fresh session: cycle counter restarts
			} else {
				cycle += uint64(data[i+1])
			}
			start := spanStart(si)
			ev := telemetry.Event{
				Kind:    telemetry.KindRecovery,
				Cycle:   cycle,
				Comm:    app,
				Addr:    start + 2,
				FnStart: start,
				FnEnd:   start + spanSize,
			}
			if attack {
				ev.Fn = "evil+0x2" // out-of-baseline → suspect verdict
				if _, seen := firstAttack[si]; !seen {
					firstAttack[si] = n
				}
			} else {
				ev.Fn = "good+0x2"
			}
			eventIdx = n
			e.HandleEvent(ev)
			n++
		}
		eventIdx = n
		e.AdvanceAll()

		// Each published view is cumulative, so a span's entry point into
		// the promoted set is the first cut whose view contains it. The
		// safety invariant: that first promotion must precede the span's
		// first attack event — promotion never draws on evidence the
		// evolver received at or after a suspect verdict for the span.
		firstPromoted := map[int]int{}
		for _, p := range pubs {
			for si := 0; si < nSpans; si++ {
				if _, seen := firstPromoted[si]; !seen && p.rl.Contains(spanStart(si)) {
					firstPromoted[si] = p.idx
				}
			}
		}
		for si, atk := range firstAttack {
			if fp, was := firstPromoted[si]; was && fp >= atk {
				t.Fatalf("span %d (%#x) first promoted at event %d, at/after its first attack event %d",
					si, spanStart(si), fp, atk)
			}
		}
		// The cumulative promoted set must agree with the publish history:
		// a span that never shipped pre-attack cannot be in it.
		promoted := e.PromotedRanges(app)
		for si, atk := range firstAttack {
			fp, was := firstPromoted[si]
			if (!was || fp >= atk) && promoted.Contains(spanStart(si)) {
				t.Fatalf("span %d reached the promoted set with no pre-attack promotion", si)
			}
		}
	})
}
