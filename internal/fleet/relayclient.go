package fleet

import (
	"net"
	"sync/atomic"
	"time"

	"facechange/internal/telemetry"
)

// RelayClient is the sending half of hub-to-hub telemetry relay: a shard
// member dials the aggregator shard with it and forwards node batches as
// relay frames, origin identity and sequence preserved.
//
// Send returns once the aggregator has admitted the batch: the aggregator
// answers every relay frame with a telemetry-ack after its intake, so the
// shard commits a batch — and acknowledges it to the origin node — only
// when the batch is in the aggregator's hub. A batch whose ack never
// arrives is re-sent on a fresh session, and the aggregator dedupes the
// overlap by sequence. Send is not safe for concurrent use: one relay
// loop owns the client.
type RelayClient struct {
	conn net.Conn
	sent uint64 // relay frames written on this session

	acked  atomic.Uint64 // cumulative acks received
	ackNew chan struct{} // nudged on every ack
	dead   chan struct{} // closed when the session's read side ends
}

// relayTimeout bounds the relay handshake and each batch's ack.
const relayTimeout = 5 * time.Second

// DialRelay establishes a relay session: dial, handshake, and start a
// goroutine that reads the aggregator's acks and discards its other
// pushes (catalog notices, shard maps) so they never block it. id names
// the relaying shard in the aggregator's session log.
func DialRelay(id string, dial func() (net.Conn, error)) (*RelayClient, error) {
	conn, err := dial()
	if err != nil {
		return nil, err
	}
	if _, _, err := clientHandshake(conn, id, relayTimeout); err != nil {
		conn.Close()
		return nil, err
	}
	c := &RelayClient{conn: conn, ackNew: make(chan struct{}, 1), dead: make(chan struct{})}
	go c.read()
	return c, nil
}

// read records acks until the connection dies.
func (c *RelayClient) read() {
	defer close(c.dead)
	for {
		f, err := readFrame(c.conn)
		if err != nil {
			return
		}
		if f.typ != msgTelemetryAck {
			continue
		}
		upTo, err := decodeTelemetryAck(f.payload)
		if err != nil {
			return
		}
		c.acked.Store(upTo)
		select {
		case c.ackNew <- struct{}{}:
		default:
		}
	}
}

// Send forwards one node batch and waits until the aggregator admits it.
func (c *RelayClient) Send(node string, first uint64, evs []telemetry.Event) error {
	payload, err := telemetry.EncodeBatch(evs)
	if err != nil {
		return err
	}
	if err := writeFrame(c.conn, msgRelay, encodeRelay(node, first, payload)); err != nil {
		return err
	}
	c.sent++
	timer := time.NewTimer(relayTimeout)
	defer timer.Stop()
	for c.acked.Load() < c.sent {
		select {
		case <-c.ackNew:
		case <-c.dead:
			if c.acked.Load() >= c.sent {
				return nil
			}
			return errProto("relay session closed before the aggregator acknowledged a batch")
		case <-timer.C:
			return errProto("timed out awaiting relay acknowledgement")
		}
	}
	return nil
}

// Close ends the session.
func (c *RelayClient) Close() error { return c.conn.Close() }
