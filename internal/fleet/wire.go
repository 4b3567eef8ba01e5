package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
)

// Wire framing: every message is one length-prefixed frame,
//
//	u32 length | u8 type | payload        (length = 1 + len(payload))
//
// big-endian throughout, matching the kview binary configuration format
// the catalog payloads embed. Frames are bounded by maxFrame so a corrupt
// or hostile peer cannot make the other side allocate unboundedly.

// maxFrame bounds one frame's length field (16 MiB — a full catalog
// manifest for thousands of views fits with two orders of magnitude to
// spare).
const maxFrame = 16 << 20

// Message types. Client→server: hello, getCatalog, want, telemetry
// (sequence-numbered batches). Server→client: helloAck, catalog
// (response and hot-push), chunks, update (generation notice), errorMsg
// (terminal).
//
// Sharding adds: shardMap (server→client topology gossip, pushed after
// the handshake and on change), telemetryAck (server→client cumulative
// acknowledgement of relayed telemetry, making the node's peek/commit
// span the whole shard→aggregator path), and relay (shard→aggregator
// forwarding of a node batch, origin identity and sequence preserved;
// the aggregator answers each with a telemetryAck once admitted).
//
// Live migration adds three frames: migrateOffer (server→source node:
// checkpoint an app), migrateState (source→server: the canonical image,
// digest-pinned; and server→target: deliver it), migrateAck
// (target→server: import verdict; server→source: the commit-or-abort
// directive).
const (
	msgHello        = 0x01
	msgHelloAck     = 0x02
	msgGetCatalog   = 0x03
	msgCatalog      = 0x04
	msgWant         = 0x05
	msgChunks       = 0x06
	msgTelemetry    = 0x07
	msgUpdate       = 0x08
	msgShardMap     = 0x09
	msgTelemetryAck = 0x0a
	msgRelay        = 0x0b
	msgMigrateOffer = 0x0c
	msgMigrateState = 0x0d
	msgMigrateAck   = 0x0e
	msgError        = 0x3f
)

func msgName(t byte) string {
	switch t {
	case msgHello:
		return "hello"
	case msgHelloAck:
		return "hello-ack"
	case msgGetCatalog:
		return "get-catalog"
	case msgCatalog:
		return "catalog"
	case msgWant:
		return "want"
	case msgChunks:
		return "chunks"
	case msgTelemetry:
		return "telemetry"
	case msgUpdate:
		return "update"
	case msgShardMap:
		return "shard-map"
	case msgTelemetryAck:
		return "telemetry-ack"
	case msgRelay:
		return "relay"
	case msgMigrateOffer:
		return "migrate-offer"
	case msgMigrateState:
		return "migrate-state"
	case msgMigrateAck:
		return "migrate-ack"
	case msgError:
		return "error"
	}
	return fmt.Sprintf("msg(%#x)", t)
}

// frame is one decoded message.
type frame struct {
	typ     byte
	payload []byte
}

// writeFrame writes one frame. Callers serialize writes per connection
// (both ends multiplex pushes and responses over one conn).
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	if 1+len(payload) > maxFrame {
		return errProto("frame %s too large: %d bytes", msgName(typ), len(payload))
	}
	hdr := make([]byte, 5)
	binary.BigEndian.PutUint32(hdr, uint32(1+len(payload)))
	hdr[4] = typ
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// readFrame reads one frame.
func readFrame(r io.Reader) (frame, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n == 0 || n > maxFrame {
		return frame{}, errProto("bad frame length %d", n)
	}
	payload := make([]byte, n-1)
	if _, err := io.ReadFull(r, payload); err != nil {
		return frame{}, err
	}
	return frame{typ: hdr[4], payload: payload}, nil
}

// --- payload primitives (shared cursor style with kview's wire codec) ---

const maxWireStr = 4096

func appendStr(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func appendU16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

type wireReader struct{ b []byte }

func (r *wireReader) u16() (uint16, error) {
	if len(r.b) < 2 {
		return 0, errProto("truncated payload")
	}
	v := binary.BigEndian.Uint16(r.b)
	r.b = r.b[2:]
	return v, nil
}

func (r *wireReader) u32() (uint32, error) {
	if len(r.b) < 4 {
		return 0, errProto("truncated payload")
	}
	v := binary.BigEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v, nil
}

func (r *wireReader) u64() (uint64, error) {
	if len(r.b) < 8 {
		return 0, errProto("truncated payload")
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v, nil
}

func (r *wireReader) str() (string, error) {
	n, err := r.u16()
	if err != nil {
		return "", err
	}
	if int(n) > maxWireStr || len(r.b) < int(n) {
		return "", errProto("bad string length %d", n)
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s, nil
}

func (r *wireReader) hash() (Hash, error) {
	var h Hash
	if len(r.b) < len(h) {
		return h, errProto("truncated hash")
	}
	copy(h[:], r.b)
	r.b = r.b[len(h):]
	return h, nil
}

func (r *wireReader) bytes(n int) ([]byte, error) {
	if n < 0 || len(r.b) < n {
		return nil, errProto("truncated payload (%d bytes wanted, %d left)", n, len(r.b))
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out, nil
}

func (r *wireReader) end() error {
	if len(r.b) != 0 {
		return errProto("%d trailing payload bytes", len(r.b))
	}
	return nil
}

// Hash is a sha256 content address (chunks, view encodings, manifests).
type Hash = [sha256.Size]byte

// --- message payloads ---

// helloPayload: u8 proto | str nodeID.
func encodeHello(nodeID string) []byte {
	b := []byte{ProtoVersion}
	return appendStr(b, nodeID)
}

func decodeHello(p []byte) (proto byte, nodeID string, err error) {
	if len(p) < 1 {
		return 0, "", errProto("empty hello")
	}
	r := &wireReader{b: p[1:]}
	id, err := r.str()
	if err != nil {
		return 0, "", err
	}
	if err := r.end(); err != nil {
		return 0, "", err
	}
	return p[0], id, nil
}

// helloAckPayload: u8 proto | str serverID | manifest. The first byte is
// the session version, always ProtoVersion. The server identity lets a
// re-homing node notice it reached a different shard and skip the
// stale-generation guard for the first sync (generation counters are
// per-server; the catalog content digest, not the generation, is the
// cross-shard convergence check).
func encodeHelloAck(serverID string, m Manifest) []byte {
	b := appendStr([]byte{ProtoVersion}, serverID)
	return append(b, encodeManifest(m)...)
}

func decodeHelloAck(p []byte) (proto byte, serverID string, m Manifest, err error) {
	if len(p) < 1 {
		return 0, "", Manifest{}, errProto("empty hello-ack")
	}
	r := &wireReader{b: p[1:]}
	if serverID, err = r.str(); err != nil {
		return 0, "", Manifest{}, err
	}
	m, err = decodeManifest(r.b)
	return p[0], serverID, m, err
}

// wantPayload: u32 n | n × hash.
func encodeWant(hashes []Hash) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(len(hashes)))
	for _, h := range hashes {
		b = append(b, h[:]...)
	}
	return b
}

func decodeWant(p []byte) ([]Hash, error) {
	r := &wireReader{b: p}
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if uint64(n)*sha256.Size > uint64(len(r.b)) {
		return nil, errProto("want claims %d hashes, %d bytes left", n, len(r.b))
	}
	out := make([]Hash, 0, n)
	for i := uint32(0); i < n; i++ {
		h, err := r.hash()
		if err != nil {
			return nil, err
		}
		out = append(out, h)
	}
	return out, r.end()
}

// Chunk is one content-addressed piece of a view encoding on the wire.
type Chunk struct {
	Hash Hash
	Data []byte
}

// chunksPayload: u32 n | n × (hash | u32 len | bytes).
func encodeChunks(chunks []Chunk) []byte {
	var b []byte
	b = binary.BigEndian.AppendUint32(b, uint32(len(chunks)))
	for _, c := range chunks {
		b = append(b, c.Hash[:]...)
		b = binary.BigEndian.AppendUint32(b, uint32(len(c.Data)))
		b = append(b, c.Data...)
	}
	return b
}

func decodeChunks(p []byte) ([]Chunk, error) {
	r := &wireReader{b: p}
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	out := make([]Chunk, 0, min(int(n), 1024))
	for i := uint32(0); i < n; i++ {
		h, err := r.hash()
		if err != nil {
			return nil, err
		}
		ln, err := r.u32()
		if err != nil {
			return nil, err
		}
		data, err := r.bytes(int(ln))
		if err != nil {
			return nil, err
		}
		out = append(out, Chunk{Hash: h, Data: data})
	}
	return out, r.end()
}

// updatePayload: u64 gen. A notice, not the catalog itself: the node pulls
// the manifest when it is ready, so a burst of publishes collapses into
// one re-sync.
func encodeUpdate(gen uint64) []byte {
	return binary.BigEndian.AppendUint64(nil, gen)
}

func decodeUpdate(p []byte) (uint64, error) {
	r := &wireReader{b: p}
	gen, err := r.u64()
	if err != nil {
		return 0, err
	}
	return gen, r.end()
}

// telemetryPayload: u64 first | JSON batch. first is the node's
// cumulative relay sequence of the batch's first event.
func encodeTelemetry(first uint64, batch []byte) []byte {
	b := make([]byte, 0, 8+len(batch))
	b = appendU64(b, first)
	return append(b, batch...)
}

func decodeTelemetry(p []byte) (first uint64, batch []byte, err error) {
	r := &wireReader{b: p}
	if first, err = r.u64(); err != nil {
		return 0, nil, err
	}
	return first, r.b, nil
}

// telemetryAckPayload: u64 upTo — the node's cumulative relay sequence
// acknowledged as durable at the aggregation point. The node commits its
// relay buffer up to this mark. On a shard's relay session upTo counts
// the relay frames the aggregator has admitted.
func encodeTelemetryAck(upTo uint64) []byte {
	return appendU64(nil, upTo)
}

func decodeTelemetryAck(p []byte) (uint64, error) {
	r := &wireReader{b: p}
	upTo, err := r.u64()
	if err != nil {
		return 0, err
	}
	return upTo, r.end()
}

// relayPayload: str node | u64 first | JSON batch — one node batch
// forwarded shard→aggregator with its origin identity and sequence
// intact, so the aggregator can dedupe re-sends after a shard death.
func encodeRelay(node string, first uint64, batch []byte) []byte {
	b := make([]byte, 0, 2+len(node)+8+len(batch))
	b = appendStr(b, node)
	b = appendU64(b, first)
	return append(b, batch...)
}

func decodeRelay(p []byte) (node string, first uint64, batch []byte, err error) {
	r := &wireReader{b: p}
	if node, err = r.str(); err != nil {
		return "", 0, nil, err
	}
	if first, err = r.u64(); err != nil {
		return "", 0, nil, err
	}
	return node, first, r.b, nil
}

// migrateOfferPayload: u64 req | str app | str dstNode — the server asks
// the source node to checkpoint app for migration to dstNode. req
// correlates the reply frames of one migration exchange.
func encodeMigrateOffer(req uint64, app, dst string) []byte {
	b := appendU64(nil, req)
	b = appendStr(b, app)
	return appendStr(b, dst)
}

func decodeMigrateOffer(p []byte) (req uint64, app, dst string, err error) {
	r := &wireReader{b: p}
	if req, err = r.u64(); err != nil {
		return 0, "", "", err
	}
	if app, err = r.str(); err != nil {
		return 0, "", "", err
	}
	if dst, err = r.str(); err != nil {
		return 0, "", "", err
	}
	return req, app, dst, r.end()
}

// migrateStatePayload: u64 req | u8 ok | hash imageDigest | u32 len |
// image (ok=1), or u64 req | u8 0 | str err (ok=0 refusal). The digest
// is sha256 over the image bytes; the server verifies it before
// forwarding — the wire-level pin on top of the image's own canonical
// encoding.
func encodeMigrateState(req uint64, digest Hash, img []byte) []byte {
	b := make([]byte, 0, 8+1+len(digest)+4+len(img))
	b = appendU64(b, req)
	b = append(b, 1)
	b = append(b, digest[:]...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(img)))
	return append(b, img...)
}

func encodeMigrateRefuse(req uint64, errMsg string) []byte {
	b := appendU64(nil, req)
	b = append(b, 0)
	if len(errMsg) > maxWireStr {
		errMsg = errMsg[:maxWireStr]
	}
	return appendStr(b, errMsg)
}

func decodeMigrateState(p []byte) (req uint64, digest Hash, img []byte, refusal string, err error) {
	r := &wireReader{b: p}
	if req, err = r.u64(); err != nil {
		return 0, Hash{}, nil, "", err
	}
	var ok byte
	if len(r.b) < 1 {
		return 0, Hash{}, nil, "", errProto("truncated migrate-state")
	}
	ok, r.b = r.b[0], r.b[1:]
	switch ok {
	case 0:
		if refusal, err = r.str(); err != nil {
			return 0, Hash{}, nil, "", err
		}
		if refusal == "" {
			refusal = "migration refused"
		}
		return req, Hash{}, nil, refusal, r.end()
	case 1:
		if digest, err = r.hash(); err != nil {
			return 0, Hash{}, nil, "", err
		}
		n, err := r.u32()
		if err != nil {
			return 0, Hash{}, nil, "", err
		}
		if img, err = r.bytes(int(n)); err != nil {
			return 0, Hash{}, nil, "", err
		}
		return req, digest, img, "", r.end()
	}
	return 0, Hash{}, nil, "", errProto("bad migrate-state flag %#x", ok)
}

// migrateAckPayload: u64 req | str app | u8 ok | u32 applied |
// u32 skipped | str detail. Target→server it reports the import verdict
// (applied/skipped count COW deltas); server→source ok is the commit
// directive and ok=0 the abort directive, detail carrying the reason.
func encodeMigrateAck(req uint64, app string, ok bool, applied, skipped uint32, detail string) []byte {
	b := appendU64(nil, req)
	b = appendStr(b, app)
	if ok {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.BigEndian.AppendUint32(b, applied)
	b = binary.BigEndian.AppendUint32(b, skipped)
	if len(detail) > maxWireStr {
		detail = detail[:maxWireStr]
	}
	return appendStr(b, detail)
}

func decodeMigrateAck(p []byte) (req uint64, app string, ok bool, applied, skipped uint32, detail string, err error) {
	r := &wireReader{b: p}
	if req, err = r.u64(); err != nil {
		return
	}
	if app, err = r.str(); err != nil {
		return
	}
	var f byte
	if len(r.b) < 1 {
		err = errProto("truncated migrate-ack")
		return
	}
	f, r.b = r.b[0], r.b[1:]
	if f > 1 {
		err = errProto("bad migrate-ack flag %#x", f)
		return
	}
	ok = f == 1
	if applied, err = r.u32(); err != nil {
		return
	}
	if skipped, err = r.u32(); err != nil {
		return
	}
	if detail, err = r.str(); err != nil {
		return
	}
	err = r.end()
	return
}
