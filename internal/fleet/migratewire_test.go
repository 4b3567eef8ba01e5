package fleet

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// TestMigrateWireGoldenPins pins the exact bytes of the three migration
// frame payloads. A live migration crosses builds by design — the source
// and target nodes may run different binaries mid-rolling-upgrade — so
// any drift in these encodings strands view state on the wire. Change
// these constants only with a protocol version bump.
func TestMigrateWireGoldenPins(t *testing.T) {
	golden := func(name string, got []byte, wantHex string) {
		t.Helper()
		want, err := hex.DecodeString(wantHex)
		if err != nil {
			t.Fatalf("%s: bad golden: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s wire drift:\ngot:  %x\nwant: %x", name, got, want)
		}
	}

	golden("migrate-offer", encodeMigrateOffer(0x0102030405060708, "apache", "node-1"),
		"0102030405060708000661706163686500066e6f64652d31")
	req, app, dst, err := decodeMigrateOffer(encodeMigrateOffer(0x0102030405060708, "apache", "node-1"))
	if err != nil || req != 0x0102030405060708 || app != "apache" || dst != "node-1" {
		t.Fatalf("offer mangled: %d %q %q %v", req, app, dst, err)
	}

	golden("migrate-state", encodeMigrateState(5, Hash{0xAA}, []byte{0xDE, 0xAD}),
		"000000000000000501aa0000000000000000000000000000000000000000000000000000000000000000000002dead")
	sreq, dig, img, refusal, err := decodeMigrateState(encodeMigrateState(5, Hash{0xAA}, []byte{0xDE, 0xAD}))
	if err != nil || sreq != 5 || dig != (Hash{0xAA}) || !bytes.Equal(img, []byte{0xDE, 0xAD}) || refusal != "" {
		t.Fatalf("state mangled: %d %x %x %q %v", sreq, dig, img, refusal, err)
	}

	golden("migrate-refuse", encodeMigrateRefuse(5, "busy"),
		"000000000000000500000462757379")
	_, _, _, refusal, err = decodeMigrateState(encodeMigrateRefuse(5, "busy"))
	if err != nil || refusal != "busy" {
		t.Fatalf("refusal mangled: %q %v", refusal, err)
	}
	// An empty refusal string decodes to the default message, never to the
	// ok path.
	if _, _, _, refusal, err = decodeMigrateState(encodeMigrateRefuse(5, "")); err != nil || refusal == "" {
		t.Fatalf("empty refusal not defaulted: %q %v", refusal, err)
	}

	golden("migrate-ack", encodeMigrateAck(9, "gzip", true, 3, 1, ""),
		"00000000000000090004677a69700100000003000000010000")
	areq, aapp, ok, applied, skipped, detail, err := decodeMigrateAck(encodeMigrateAck(9, "gzip", true, 3, 1, ""))
	if err != nil || areq != 9 || aapp != "gzip" || !ok || applied != 3 || skipped != 1 || detail != "" {
		t.Fatalf("ack mangled: %d %q %v %d %d %q %v", areq, aapp, ok, applied, skipped, detail, err)
	}

	// Malformed frames must be rejected, not misparsed.
	if _, _, _, err := decodeMigrateOffer(encodeMigrateOffer(1, "a", "b")[:9]); err == nil {
		t.Error("truncated migrate-offer accepted")
	}
	if _, _, _, err := decodeMigrateOffer(append(encodeMigrateOffer(1, "a", "b"), 0)); err == nil {
		t.Error("migrate-offer with trailing bytes accepted")
	}
	if _, _, _, _, err := decodeMigrateState(encodeMigrateState(1, Hash{}, []byte("xyz"))[:20]); err == nil {
		t.Error("truncated migrate-state accepted")
	}
	bad := encodeMigrateState(1, Hash{}, nil)
	bad[8] = 2 // neither refusal (0) nor state (1)
	if _, _, _, _, err := decodeMigrateState(bad); err == nil {
		t.Error("migrate-state with bad flag accepted")
	}
	badAck := encodeMigrateAck(1, "a", false, 0, 0, "")
	badAck[8+2+1] = 7 // flag byte after req + str "a"
	if _, _, _, _, _, _, err := decodeMigrateAck(badAck); err == nil {
		t.Error("migrate-ack with bad flag accepted")
	}
	if _, _, _, _, _, _, err := decodeMigrateAck(append(encodeMigrateAck(1, "a", true, 0, 0, "x"), 0)); err == nil {
		t.Error("migrate-ack with trailing bytes accepted")
	}
}

// FuzzMigrateWire fuzzes all three migration payload codecs: arbitrary
// bytes must never panic a decoder, and any accepted payload must
// re-encode to identical canonical bytes — the state digest is computed
// over the re-encoded image, so a non-canonical accept would break the
// transfer integrity check.
func FuzzMigrateWire(f *testing.F) {
	f.Add(encodeMigrateOffer(42, "apache", "node-3"))
	f.Add(encodeMigrateState(7, Hash{0x11, 0x22}, []byte("image-bytes")))
	f.Add(encodeMigrateRefuse(7, "no such view"))
	f.Add(encodeMigrateAck(9, "gzip", false, 0, 0, "import failed"))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 2, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if req, app, dst, err := decodeMigrateOffer(data); err == nil {
			if out := encodeMigrateOffer(req, app, dst); !bytes.Equal(out, data) {
				t.Fatalf("migrate-offer not canonical:\nin:  %x\nout: %x", data, out)
			}
		}
		if req, dig, img, refusal, err := decodeMigrateState(data); err == nil {
			if refusal != "" {
				out := encodeMigrateRefuse(req, refusal)
				// The decoder normalizes an empty refusal string to a
				// default message; that one input has two spellings.
				if !bytes.Equal(out, data) && !bytes.Equal(encodeMigrateRefuse(req, ""), data) {
					t.Fatalf("migrate-refuse not canonical:\nin:  %x\nout: %x", data, out)
				}
			} else if out := encodeMigrateState(req, dig, img); !bytes.Equal(out, data) {
				t.Fatalf("migrate-state not canonical:\nin:  %x\nout: %x", data, out)
			}
		}
		if req, app, ok, applied, skipped, detail, err := decodeMigrateAck(data); err == nil {
			if out := encodeMigrateAck(req, app, ok, applied, skipped, detail); !bytes.Equal(out, data) {
				t.Fatalf("migrate-ack not canonical:\nin:  %x\nout: %x", data, out)
			}
		}
	})
}
