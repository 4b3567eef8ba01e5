// The canonical, digest-pinned migration image. One view state has
// exactly one encoding: strings are length-prefixed, page deltas sort by
// strictly ascending GPA, deny-list entries by strictly ascending
// (start, end), per-vCPU flags pack one byte each with no spare bits set,
// and decode rejects any deviation — so Digest (sha256 over the encoded
// bytes) is a stable pin the receiving side verifies before restoring,
// and encode∘decode is the identity on every valid image.
package migrate

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"facechange/internal/core"
	"facechange/internal/detect"
	"facechange/internal/evolve"
	"facechange/internal/kview"
	"facechange/internal/mem"
)

// Image format bounds. MaxDeltas keeps a worst-case image inside the
// fleet's 16 MiB frame limit with room for framing.
const (
	imageMagic   = "FCMI"
	imageVersion = 1

	maxImageStr = 4096
	maxCPUs     = 4096
	maxRecBytes = 1 << 20
	// MaxDeltas bounds the COW pages one image may carry.
	MaxDeltas = 2048
	maxDenied = 65536
)

// Image is a view state checkpoint in wire form — see the package comment
// for what each piece is and why it travels.
type Image struct {
	App     string
	SrcNode string
	// ViewDigest pins the catalog content the target must reassemble
	// locally; the image itself never carries catalog chunks.
	ViewDigest [sha256.Size]byte
	// Gen is the application's evolution generation at export.
	Gen uint64
	// FinalSeq is the source node's cumulative telemetry sequence after
	// its rings drained — the stitch point for SeqTracker accounting.
	FinalSeq uint64
	// Active / Deferred are the per-source-vCPU switch summary.
	Active   []bool
	Deferred []bool
	// Recovered is the recovered-span set (nil if nothing recovered).
	Recovered *kview.View
	// Deltas are the COW pages, strictly ascending by GPA.
	Deltas []core.PageDelta
	// Denied is the evolution deny-list, class-preserving.
	Denied []evolve.DeniedSpan
}

// Encode renders the image canonically. It validates the same invariants
// Decode enforces, so only images that will round-trip ever hit the wire.
func (im *Image) Encode() ([]byte, error) {
	if len(im.App) == 0 || len(im.App) > maxImageStr {
		return nil, fmt.Errorf("migrate: app name length %d", len(im.App))
	}
	if len(im.SrcNode) > maxImageStr {
		return nil, fmt.Errorf("migrate: source node length %d", len(im.SrcNode))
	}
	if len(im.Active) != len(im.Deferred) {
		return nil, fmt.Errorf("migrate: vCPU masks disagree: %d active vs %d deferred", len(im.Active), len(im.Deferred))
	}
	if len(im.Active) > maxCPUs {
		return nil, fmt.Errorf("migrate: %d vCPUs", len(im.Active))
	}
	if len(im.Deltas) > MaxDeltas {
		return nil, fmt.Errorf("migrate: %d deltas exceeds %d", len(im.Deltas), MaxDeltas)
	}
	if len(im.Denied) > maxDenied {
		return nil, fmt.Errorf("migrate: %d deny entries", len(im.Denied))
	}

	var rec []byte
	if im.Recovered != nil {
		var err error
		if rec, err = im.Recovered.MarshalBinary(); err != nil {
			return nil, fmt.Errorf("migrate: recovered set: %w", err)
		}
		if len(rec) > maxRecBytes {
			return nil, fmt.Errorf("migrate: recovered set is %d bytes", len(rec))
		}
	}

	size := len(imageMagic) + 1 + 2 + len(im.App) + 2 + len(im.SrcNode) + sha256.Size + 8 + 8 +
		2 + len(im.Active) +
		4 + len(rec) +
		4 + len(im.Deltas)*(4+mem.PageSize) +
		4 + len(im.Denied)*(4+4+1)
	b := make([]byte, 0, size)
	b = append(b, imageMagic...)
	b = append(b, imageVersion)
	b = appendStr(b, im.App)
	b = appendStr(b, im.SrcNode)
	b = append(b, im.ViewDigest[:]...)
	b = binary.BigEndian.AppendUint64(b, im.Gen)
	b = binary.BigEndian.AppendUint64(b, im.FinalSeq)

	b = binary.BigEndian.AppendUint16(b, uint16(len(im.Active)))
	for i := range im.Active {
		var f byte
		if im.Active[i] {
			f |= 1
		}
		if im.Deferred[i] {
			f |= 2
		}
		b = append(b, f)
	}

	b = binary.BigEndian.AppendUint32(b, uint32(len(rec)))
	b = append(b, rec...)

	b = binary.BigEndian.AppendUint32(b, uint32(len(im.Deltas)))
	var prevGPA uint32
	for i, d := range im.Deltas {
		if len(d.Data) != mem.PageSize {
			return nil, fmt.Errorf("migrate: delta %#x is %d bytes", d.GPA, len(d.Data))
		}
		if d.GPA%mem.PageSize != 0 {
			return nil, fmt.Errorf("migrate: delta GPA %#x not page aligned", d.GPA)
		}
		if i > 0 && d.GPA <= prevGPA {
			return nil, fmt.Errorf("migrate: deltas not strictly ascending at %#x", d.GPA)
		}
		prevGPA = d.GPA
		b = binary.BigEndian.AppendUint32(b, d.GPA)
		b = append(b, d.Data...)
	}

	b = binary.BigEndian.AppendUint32(b, uint32(len(im.Denied)))
	var prev evolve.Span
	for i, d := range im.Denied {
		if d.Start >= d.End {
			return nil, fmt.Errorf("migrate: deny span %v inverted", d.Span)
		}
		if i > 0 && !spanLess(prev, d.Span) {
			return nil, fmt.Errorf("migrate: deny list not strictly ascending at %v", d.Span)
		}
		prev = d.Span
		b = binary.BigEndian.AppendUint32(b, d.Start)
		b = binary.BigEndian.AppendUint32(b, d.End)
		b = append(b, byte(d.Class))
	}
	return b, nil
}

func spanLess(a, b evolve.Span) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	return a.End < b.End
}

// Decode parses a canonical image, rejecting any non-canonical or
// truncated form (so encode(decode(b)) == b whenever decode accepts b).
// The decoded deltas alias data — each Data is a window of the input —
// so data must stay unmodified for as long as the image is in use.
func Decode(data []byte) (*Image, error) {
	r := &imageReader{b: data}
	magic, err := r.bytes(len(imageMagic))
	if err != nil || string(magic) != imageMagic {
		return nil, fmt.Errorf("migrate: bad image magic")
	}
	ver, err := r.u8()
	if err != nil {
		return nil, err
	}
	if ver != imageVersion {
		return nil, fmt.Errorf("migrate: image version %d, want %d", ver, imageVersion)
	}
	im := &Image{}
	if im.App, err = r.str(); err != nil {
		return nil, err
	}
	if len(im.App) == 0 {
		return nil, fmt.Errorf("migrate: empty app name")
	}
	if im.SrcNode, err = r.str(); err != nil {
		return nil, err
	}
	vd, err := r.bytes(sha256.Size)
	if err != nil {
		return nil, err
	}
	copy(im.ViewDigest[:], vd)
	if im.Gen, err = r.u64(); err != nil {
		return nil, err
	}
	if im.FinalSeq, err = r.u64(); err != nil {
		return nil, err
	}

	ncpu, err := r.u16()
	if err != nil {
		return nil, err
	}
	im.Active = make([]bool, ncpu)
	im.Deferred = make([]bool, ncpu)
	for i := 0; i < int(ncpu); i++ {
		f, err := r.u8()
		if err != nil {
			return nil, err
		}
		if f&^3 != 0 {
			return nil, fmt.Errorf("migrate: vCPU %d flags %#x", i, f)
		}
		im.Active[i] = f&1 != 0
		im.Deferred[i] = f&2 != 0
	}

	recLen, err := r.u32()
	if err != nil {
		return nil, err
	}
	if recLen > maxRecBytes {
		return nil, fmt.Errorf("migrate: recovered set is %d bytes", recLen)
	}
	if recLen > 0 {
		rec, err := r.bytes(int(recLen))
		if err != nil {
			return nil, err
		}
		v, err := kview.UnmarshalBinary(rec)
		if err != nil {
			return nil, fmt.Errorf("migrate: recovered set: %w", err)
		}
		// Canonicality: the embedded bytes must be exactly the canonical
		// re-encoding (kview marshaling is itself canonical).
		if canon, err := v.MarshalBinary(); err != nil || !bytes.Equal(canon, rec) {
			return nil, fmt.Errorf("migrate: recovered set not canonical")
		}
		im.Recovered = v
	}

	nd, err := r.u32()
	if err != nil {
		return nil, err
	}
	if nd > MaxDeltas {
		return nil, fmt.Errorf("migrate: %d deltas exceeds %d", nd, MaxDeltas)
	}
	// Size the deltas once, but only for as many as the bytes left can
	// hold: a claimed count is no reason to allocate.
	if len(r.b) < int(nd)*(4+mem.PageSize) {
		return nil, errTruncated
	}
	if nd > 0 {
		im.Deltas = make([]core.PageDelta, nd)
	}
	var prevGPA uint32
	for i := uint32(0); i < nd; i++ {
		gpa, err := r.u32()
		if err != nil {
			return nil, err
		}
		if gpa%mem.PageSize != 0 {
			return nil, fmt.Errorf("migrate: delta GPA %#x not page aligned", gpa)
		}
		if i > 0 && gpa <= prevGPA {
			return nil, fmt.Errorf("migrate: deltas not strictly ascending at %#x", gpa)
		}
		prevGPA = gpa
		page, err := r.bytes(mem.PageSize)
		if err != nil {
			return nil, err
		}
		im.Deltas[i] = core.PageDelta{GPA: gpa, Data: page}
	}

	nden, err := r.u32()
	if err != nil {
		return nil, err
	}
	if nden > maxDenied {
		return nil, fmt.Errorf("migrate: %d deny entries", nden)
	}
	var prev evolve.Span
	for i := uint32(0); i < nden; i++ {
		start, err := r.u32()
		if err != nil {
			return nil, err
		}
		end, err := r.u32()
		if err != nil {
			return nil, err
		}
		cls, err := r.u8()
		if err != nil {
			return nil, err
		}
		s := evolve.Span{Start: start, End: end}
		if start >= end {
			return nil, fmt.Errorf("migrate: deny span %v inverted", s)
		}
		if i > 0 && !spanLess(prev, s) {
			return nil, fmt.Errorf("migrate: deny list not strictly ascending at %v", s)
		}
		prev = s
		im.Denied = append(im.Denied, evolve.DeniedSpan{Span: s, Class: detect.Class(cls)})
	}

	if len(r.b) != 0 {
		return nil, fmt.Errorf("migrate: %d trailing bytes", len(r.b))
	}
	return im, nil
}

func appendStr(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

type imageReader struct{ b []byte }

var errTruncated = errors.New("migrate: truncated image")

func (r *imageReader) bytes(n int) ([]byte, error) {
	if len(r.b) < n {
		return nil, errTruncated
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out, nil
}

func (r *imageReader) u8() (byte, error) {
	b, err := r.bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *imageReader) u16() (uint16, error) {
	b, err := r.bytes(2)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint16(b), nil
}

func (r *imageReader) u32() (uint32, error) {
	b, err := r.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

func (r *imageReader) u64() (uint64, error) {
	b, err := r.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

func (r *imageReader) str() (string, error) {
	n, err := r.u16()
	if err != nil {
		return "", err
	}
	if int(n) > maxImageStr {
		return "", fmt.Errorf("migrate: string length %d", n)
	}
	b, err := r.bytes(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}
