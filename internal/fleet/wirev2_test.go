package fleet

import (
	"bytes"
	"encoding/hex"
	"net"
	"testing"

	"facechange/internal/telemetry"
)

// TestWireV2GoldenPins pins the exact bytes of every protocol-v2 frame
// payload. These encodings are spoken between servers of different
// builds (shard relays, rolling upgrades), so any drift — field order, a
// widened integer, a reordered shard list — is a wire break, not a
// refactor. Change these constants only with a protocol version bump.
func TestWireV2GoldenPins(t *testing.T) {
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

	// Shard map: epoch 7, aggregator s-a, two shards handed to the encoder
	// in the WRONG order — the canonical encoding sorts by ID.
	sm := ShardMap{Epoch: 7, Aggregator: "s-a", Shards: []ShardInfo{
		{ID: "s-b", Addr: "10.0.0.2:4410", VNodes: 16},
		{ID: "s-a", Addr: "10.0.0.1:4410", VNodes: 0},
	}}
	golden("shardmap", encodeShardMap(sm),
		"00000000000000070003732d6100020003732d61000d31302e302e302e313a3434313000000003732d62000d31302e302e302e323a343431300010")
	back, err := decodeShardMap(encodeShardMap(sm))
	if err != nil {
		t.Fatal(err)
	}
	if back.Epoch != 7 || back.Aggregator != "s-a" || len(back.Shards) != 2 ||
		back.Shards[0].ID != "s-a" || back.Shards[1].VNodes != 16 {
		t.Fatalf("shard map mangled: %+v", back)
	}

	golden("relay", encodeRelay("node-1", 0x1122334455667788, []byte(`[]`)),
		"00066e6f64652d3111223344556677885b5d")
	node, first, batch, err := decodeRelay(encodeRelay("node-1", 0x1122334455667788, []byte(`[]`)))
	if err != nil || node != "node-1" || first != 0x1122334455667788 || string(batch) != "[]" {
		t.Fatalf("relay mangled: %q %d %q %v", node, first, batch, err)
	}

	golden("telemetry-v2", encodeTelemetry(9, []byte(`[]`)), "00000000000000095b5d")
	golden("telemetry-ack", encodeTelemetryAck(13), "000000000000000d")

	m := Manifest{Gen: 3, Views: []ViewManifest{{Name: "a", Digest: Hash{0xAA}, Size: 4, Chunks: []Hash{{0xBB}}}}}
	golden("hello-ack-v2", encodeHelloAck("srv", m),
		"020003737276000000000000000300000001000161aa00000000000000000000000000000000000000000000000000000000000000000000000000000400000001bb00000000000000000000000000000000000000000000000000000000000000")

	// Malformed frames must be rejected, not misparsed.
	if _, err := decodeShardMap(encodeShardMap(sm)[:10]); err == nil {
		t.Error("truncated shard map accepted")
	}
	unsorted := ShardMap{Shards: []ShardInfo{{ID: "s-a"}, {ID: "s-b"}}}
	raw := encodeShardMap(unsorted)
	// Swap the two (identically-sized) shard records in place.
	rec := len(raw[10:]) / 2
	swapped := append([]byte(nil), raw[:10]...)
	swapped = append(swapped, raw[10+rec:]...)
	swapped = append(swapped, raw[10:10+rec]...)
	if _, err := decodeShardMap(swapped); err == nil {
		t.Error("unsorted shard map accepted")
	}
	if _, err := decodeTelemetryAck([]byte{1, 2}); err == nil {
		t.Error("short telemetry ack accepted")
	}
	if _, err := decodeTelemetryAck(append(encodeTelemetryAck(1), 0)); err == nil {
		t.Error("telemetry ack with trailing bytes accepted")
	}
}

// FuzzShardMapWire fuzzes the gossip codec: arbitrary bytes must never
// panic the decoder, and any accepted payload must re-encode to the
// identical canonical bytes (one topology, one encoding — shard maps are
// compared and forwarded verbatim between servers).
func FuzzShardMapWire(f *testing.F) {
	f.Add(encodeShardMap(ShardMap{}))
	f.Add(encodeShardMap(ShardMap{Epoch: 9, Aggregator: "agg", Shards: []ShardInfo{
		{ID: "a", Addr: "x:1", VNodes: 3}, {ID: "b"}, {ID: "c", VNodes: 64},
	}}))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeShardMap(data)
		if err != nil {
			return
		}
		out := encodeShardMap(m)
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted non-canonical shard map:\nin:  %x\nout: %x", data, out)
		}
	})
}

// FuzzRelayWire fuzzes the three v2 telemetry payloads — relay,
// sequenced batch, and ack — through the same decode/re-encode canonical
// round-trip.
func FuzzRelayWire(f *testing.F) {
	f.Add(encodeRelay("node-1", 42, []byte(`[{"k":1}]`)))
	f.Add(encodeTelemetry(0, nil))
	f.Add(encodeTelemetryAck(1 << 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		if node, first, batch, err := decodeRelay(data); err == nil {
			if out := encodeRelay(node, first, batch); !bytes.Equal(out, data) {
				t.Fatalf("relay not canonical:\nin:  %x\nout: %x", data, out)
			}
		}
		if first, batch, err := decodeTelemetry(data); err == nil {
			if out := encodeTelemetry(first, batch); !bytes.Equal(out, data) {
				t.Fatalf("telemetry-v2 not canonical:\nin:  %x\nout: %x", data, out)
			}
		}
		if upTo, err := decodeTelemetryAck(data); err == nil {
			if out := encodeTelemetryAck(upTo); !bytes.Equal(out, data) {
				t.Fatalf("telemetry-ack not canonical:\nin:  %x\nout: %x", data, out)
			}
		}
	})
}

// TestRelaySendReturnsAfterAdmission pins the relay hop's commit point:
// Send returns only once the aggregator has admitted the batch into its
// hub, and a re-sent (duplicate) batch is still acknowledged, so the
// relaying shard never waits out a timeout on a batch the aggregator
// already holds.
func TestRelaySendReturnsAfterAdmission(t *testing.T) {
	hub := telemetry.NewHub(telemetry.HubConfig{})
	srv := NewServer(ServerConfig{ID: "agg", Hub: hub})
	rc, err := DialRelay("relay:leaf", func() (net.Conn, error) {
		c, s := net.Pipe()
		go srv.ServeConn(s)
		return c, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	evs := []telemetry.Event{{Kind: telemetry.KindSwitch}, {Kind: telemetry.KindSwitch}, {Kind: telemetry.KindRecovery}}
	for round := 0; round < 2; round++ {
		if err := rc.Send("node-1", 0, evs); err != nil {
			t.Fatalf("send %d: %v", round, err)
		}
		if got := hub.Emitted(); got != 3 {
			t.Fatalf("send %d returned with %d events in the hub, want 3", round, got)
		}
	}
	if got := srv.seqs.Dups(); got != 3 {
		t.Fatalf("re-sent batch deduplicated %d events, want 3", got)
	}
}
