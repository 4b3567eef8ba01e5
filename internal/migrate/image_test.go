package migrate_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strings"
	"testing"

	"facechange/internal/core"
	"facechange/internal/detect"
	"facechange/internal/evolve"
	"facechange/internal/fleet"
	"facechange/internal/kview"
	"facechange/internal/mem"
	"facechange/internal/migrate"
)

// The fleet client drives migration through this contract; a drift in
// either signature set breaks the build here, not at a customer site.
var _ fleet.MigrationAgent = (*migrate.Agent)(nil)

// fullImage builds a deterministic image exercising every section: vCPU
// masks, a recovered-span set, two COW deltas, and a deny-list.
func fullImage() *migrate.Image {
	rec := kview.NewView("apache")
	rec.Insert(kview.BaseKernel, 0x1000, 0x1440)
	rec.Insert("snd", 0x80, 0x200)
	page := func(fill byte) []byte {
		b := make([]byte, mem.PageSize)
		for i := range b {
			b[i] = fill + byte(i%7)
		}
		return b
	}
	return &migrate.Image{
		App:        "apache",
		SrcNode:    "node-0",
		ViewDigest: sha256.Sum256([]byte("view-content")),
		Gen:        3,
		FinalSeq:   7712,
		Active:     []bool{true, false, false},
		Deferred:   []bool{false, true, false},
		Recovered:  rec,
		Deltas: []core.PageDelta{
			{GPA: 0x1000, Data: page(0x11)},
			{GPA: 0x4000, Data: page(0x42)},
		},
		Denied: []evolve.DeniedSpan{
			{Span: evolve.Span{Start: 0x2000, End: 0x2100}, Class: detect.ClassUnknownOrigin},
			{Span: evolve.Span{Start: 0x3000, End: 0x3040}, Class: detect.ClassUnknownOrigin + 1},
		},
	}
}

// TestImageCanonicalRoundTrip: encode∘decode is the identity, field by
// field and byte by byte.
func TestImageCanonicalRoundTrip(t *testing.T) {
	im := fullImage()
	b, err := im.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := migrate.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatal("re-encoding differs: the codec is not canonical")
	}
	if back.App != im.App || back.SrcNode != im.SrcNode || back.ViewDigest != im.ViewDigest ||
		back.Gen != im.Gen || back.FinalSeq != im.FinalSeq {
		t.Fatalf("header mangled: %+v", back)
	}
	if len(back.Active) != 3 || !back.Active[0] || !back.Deferred[1] || back.Deferred[2] {
		t.Fatalf("vCPU masks mangled: %v %v", back.Active, back.Deferred)
	}
	wantRec, _ := im.Recovered.MarshalBinary()
	gotRec, _ := back.Recovered.MarshalBinary()
	if !bytes.Equal(wantRec, gotRec) {
		t.Fatal("recovered set mangled")
	}
	if len(back.Deltas) != 2 || back.Deltas[1].GPA != 0x4000 || !bytes.Equal(back.Deltas[0].Data, im.Deltas[0].Data) {
		t.Fatal("deltas mangled")
	}
	if cap(b) != len(b) {
		t.Errorf("Encode allocated %d bytes for a %d-byte image", cap(b), len(b))
	}
	// Decoded deltas alias the image; growing one must not write into it.
	_ = append(back.Deltas[0].Data, 0xEE)
	if b2, _ := back.Encode(); !bytes.Equal(b, b2) {
		t.Error("appending to a decoded delta changed the image it aliases")
	}
	if len(back.Denied) != 2 || back.Denied[1].Class != detect.ClassUnknownOrigin+1 {
		t.Fatalf("deny list mangled: %+v", back.Denied)
	}

	d1, err := im.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d2, _ := back.Digest(); d1 != d2 {
		t.Fatal("digest not stable across a round trip")
	}
	if d1 != sha256.Sum256(b) {
		t.Fatal("Digest() is not sha256 over the canonical encoding")
	}
}

// TestImageDigestPin pins the digest of the fixed fullImage fixture. The
// image digest is what the wire layer verifies before restoring on a
// target of a possibly different build — if this changes, source and
// target disagree on what state was shipped. Bump only with the image
// version.
func TestImageDigestPin(t *testing.T) {
	d, err := fullImage().Digest()
	if err != nil {
		t.Fatal(err)
	}
	const want = "fb49a900240ab15a9d7c35e9c385588d870e60660c67161a319ec034e710de27"
	if got := hex.EncodeToString(d[:]); got != want {
		t.Fatalf("image digest drift:\ngot:  %s\nwant: %s", got, want)
	}
}

// TestImageRejectsInvalid: every canonicality invariant refuses both at
// encode time (bad structs never hit the wire) and at decode time
// (tampered bytes never restore).
func TestImageRejectsInvalid(t *testing.T) {
	encodeFails := func(name string, mut func(*migrate.Image)) {
		t.Helper()
		im := fullImage()
		mut(im)
		if _, err := im.Encode(); err == nil {
			t.Errorf("%s: encode accepted", name)
		}
	}
	encodeFails("empty app", func(im *migrate.Image) { im.App = "" })
	encodeFails("mask length mismatch", func(im *migrate.Image) { im.Deferred = im.Deferred[:2] })
	encodeFails("short delta page", func(im *migrate.Image) { im.Deltas[0].Data = im.Deltas[0].Data[:100] })
	encodeFails("unaligned delta", func(im *migrate.Image) { im.Deltas[0].GPA = 0x1004 })
	encodeFails("unsorted deltas", func(im *migrate.Image) {
		im.Deltas[0], im.Deltas[1] = im.Deltas[1], im.Deltas[0]
	})
	encodeFails("duplicate delta", func(im *migrate.Image) { im.Deltas[1].GPA = im.Deltas[0].GPA })
	encodeFails("inverted deny span", func(im *migrate.Image) { im.Denied[0].Span = evolve.Span{Start: 9, End: 9} })
	encodeFails("unsorted deny list", func(im *migrate.Image) {
		im.Denied[0], im.Denied[1] = im.Denied[1], im.Denied[0]
	})

	valid, err := fullImage().Encode()
	if err != nil {
		t.Fatal(err)
	}
	decodeFails := func(name string, mut func([]byte) []byte) {
		t.Helper()
		b := mut(append([]byte(nil), valid...))
		if _, err := migrate.Decode(b); err == nil {
			t.Errorf("%s: decode accepted", name)
		}
	}
	decodeFails("bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b })
	decodeFails("bad version", func(b []byte) []byte { b[4] = 99; return b })
	decodeFails("truncated", func(b []byte) []byte { return b[:len(b)-3] })
	decodeFails("trailing bytes", func(b []byte) []byte { return append(b, 0) })
	// The vCPU flag bytes follow magic+ver+strs+digest+gen+seq+count; set a
	// spare bit in the first one.
	flagOff := 5 + (2 + len("apache")) + (2 + len("node-0")) + sha256.Size + 8 + 8 + 2
	decodeFails("spare vCPU flag bit", func(b []byte) []byte { b[flagOff] |= 4; return b })
}

// TestImageRejectsOverclaimedDeltas: an image whose delta count claims
// more deltas than its remaining bytes could hold is refused as truncated
// before the deltas are sized, whether it claims one delta too many or
// MaxDeltas.
func TestImageRejectsOverclaimedDeltas(t *testing.T) {
	valid, err := fullImage().Encode()
	if err != nil {
		t.Fatal(err)
	}
	// The delta count follows the vCPU flag bytes and the length-prefixed
	// recovered set.
	recOff := 5 + (2 + len("apache")) + (2 + len("node-0")) + sha256.Size + 8 + 8 + 2 + 3
	ndOff := recOff + 4 + int(binary.BigEndian.Uint32(valid[recOff:]))
	if nd := binary.BigEndian.Uint32(valid[ndOff:]); nd != 2 {
		t.Fatalf("delta count at offset %d reads %d, want the fixture's 2", ndOff, nd)
	}
	for _, nd := range []uint32{3, migrate.MaxDeltas} {
		b := append([]byte(nil), valid...)
		binary.BigEndian.PutUint32(b[ndOff:], nd)
		_, err := migrate.Decode(b)
		if err == nil || !strings.Contains(err.Error(), "truncated image") {
			t.Errorf("%d deltas claimed, 2 present: decode error %v, want truncated image", nd, err)
		}
	}
}

// FuzzImageCodec: arbitrary bytes never panic Decode, and anything it
// accepts re-encodes to the identical canonical bytes — the property the
// digest pin rests on.
func FuzzImageCodec(f *testing.F) {
	if b, err := fullImage().Encode(); err == nil {
		f.Add(b)
	}
	min := &migrate.Image{App: "a"}
	if b, err := min.Encode(); err == nil {
		f.Add(b)
	}
	f.Add([]byte("FCMI\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		im, err := migrate.Decode(data)
		if err != nil {
			return
		}
		out, err := im.Encode()
		if err != nil {
			t.Fatalf("decoded image does not re-encode: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted non-canonical image:\nin:  %x\nout: %x", data, out)
		}
	})
}
