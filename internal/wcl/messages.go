package wcl

import (
	"fmt"

	"whisper/internal/identity"
	"whisper/internal/transport"
	"whisper/internal/wire"
)

// WCL message tags (inside nylon MsgApp payloads). Tag 6 stays
// unassigned: older peers read it as a per-cell acknowledgement.
const (
	msgForward       uint8 = 1
	msgAck           uint8 = 2
	msgCircSetup     uint8 = 3
	msgCircAck       uint8 = 4
	msgCircData      uint8 = 5
	msgCircClose     uint8 = 7
	msgCircStreamAck uint8 = 8
)

// forwardMsg carries an onion and its content one WCL hop. The clear
// fields expose only what the receiving hop inherently knows: who the
// previous hop is (From) and how to send back to it (ViaPath, the nylon
// relays the hop transmission used) — needed so acknowledgements can
// retrace the path. No hop ever sees both endpoints: From is always the
// immediate neighbour, and the next hop is inside the onion.
type forwardMsg struct {
	PathID  uint64
	From    identity.NodeID
	ViaPath []identity.NodeID
	Onion   []byte
	Content []byte
}

func (m *forwardMsg) encode() []byte {
	w := wire.NewWriter(32 + len(m.Onion) + len(m.Content))
	w.U8(msgForward)
	w.U64(m.PathID)
	w.U64(uint64(m.From))
	w.U8(uint8(len(m.ViaPath)))
	for _, id := range m.ViaPath {
		w.U64(uint64(id))
	}
	w.Bytes32(m.Onion)
	w.Bytes32(m.Content)
	return w.Bytes()
}

func decodeForward(r *wire.Reader) (*forwardMsg, error) {
	m := &forwardMsg{}
	m.PathID = r.U64()
	m.From = identity.NodeID(r.U64())
	n := int(r.U8())
	if n > 16 {
		n = 16
	}
	for i := 0; i < n; i++ {
		m.ViaPath = append(m.ViaPath, identity.NodeID(r.U64()))
	}
	m.Onion = r.Bytes32()
	m.Content = r.Bytes32()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("wcl: decoding forward: %w", err)
	}
	return m, nil
}

func encodeAck(pathID uint64) []byte {
	w := wire.NewWriter(9)
	w.U8(msgAck)
	w.U64(pathID)
	return w.Bytes()
}

// circSetupMsg carries a circuit setup onion one hop. It exposes the
// same clear fields as forwardMsg — previous hop and the relays of the
// hop transmission, needed for backward routing — plus the circuit
// identifier relays key their table entries on. The identifier is
// constant along the path, exactly like a one-shot pathID, so it adds
// no correlator the one-shot wire format does not already carry.
type circSetupMsg struct {
	CircID  uint64
	From    identity.NodeID
	ViaPath []identity.NodeID
	Onion   []byte
}

func (m *circSetupMsg) encode() []byte {
	w := wire.NewWriter(32 + len(m.Onion))
	w.U8(msgCircSetup)
	w.U64(m.CircID)
	w.U64(uint64(m.From))
	w.U8(uint8(len(m.ViaPath)))
	for _, id := range m.ViaPath {
		w.U64(uint64(id))
	}
	w.Bytes32(m.Onion)
	return w.Bytes()
}

func decodeCircSetup(r *wire.Reader) (*circSetupMsg, error) {
	m := &circSetupMsg{}
	m.CircID = r.U64()
	m.From = identity.NodeID(r.U64())
	n := int(r.U8())
	if n > 16 {
		n = 16
	}
	for i := 0; i < n; i++ {
		m.ViaPath = append(m.ViaPath, identity.NodeID(r.U64()))
	}
	m.Onion = r.Bytes32()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("wcl: decoding circuit setup: %w", err)
	}
	return m, nil
}

// circDataMsg carries one sealed cell. Deliberately minimal: no
// sender, no routing, no sequence number — a relay needs only its
// table entry, and reliability lives inside the sealed stream frame, so
// the steady-state wire format exposes less than a one-shot forward
// does.
type circDataMsg struct {
	CircID uint64
	Cell   []byte
}

func (m *circDataMsg) encode() []byte {
	w := wire.NewWriter(11 + len(m.Cell))
	w.U8(msgCircData)
	w.U64(m.CircID)
	w.Bytes32(m.Cell)
	return w.Bytes()
}

func decodeCircData(r *wire.Reader) (*circDataMsg, error) {
	m := &circDataMsg{}
	m.CircID = r.U64()
	m.Cell = r.Bytes32()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("wcl: decoding circuit data: %w", err)
	}
	return m, nil
}

func encodeCircAck(circID uint64) []byte {
	w := wire.NewWriter(9)
	w.U8(msgCircAck)
	w.U64(circID)
	return w.Bytes()
}

func encodeCircClose(circID uint64) []byte {
	w := wire.NewWriter(9)
	w.U8(msgCircClose)
	w.U64(circID)
	return w.Bytes()
}

// Cell plaintext framing (the innermost layer a circuit exit opens):
// one type byte followed by the raw payload. cellStream payloads carry
// the stream-fragment sub-frame below; cellPing cells are empty
// keepalives. Type 1 stays unassigned: older peers deliver it as a
// whole message.
const (
	cellPing   uint8 = 2
	cellStream uint8 = 3
)

func encodeCellPayload(typ uint8, payload []byte) []byte {
	out := make([]byte, 1+len(payload))
	out[0] = typ
	copy(out[1:], payload)
	return out
}

func decodeCellPayload(b []byte) (typ uint8, payload []byte, ok bool) {
	if len(b) == 0 {
		return 0, nil, false
	}
	return b[0], b[1:], true
}

// maxStreamFrags bounds the fragments of one stream message. Together
// with the fragment size it caps what a single SendStream can carry
// (64 Ki fragments at the 1 KiB default = 64 MiB) and what a receiver
// will ever allocate reassembly bookkeeping for.
const maxStreamFrags = 1 << 16

// DefaultStreamFragSize is the default Config.StreamFragSize: the
// payload bytes carried by one stream fragment cell. Exported so
// experiments can chunk comparison transports identically.
const DefaultStreamFragSize = 1024

// streamFrag is the plaintext sub-frame inside a cellStream cell: which
// message the fragment belongs to (the per-circuit stream ID), its
// position, and the total fragment count (carried by every fragment so
// the receiver can set up reassembly from any arrival order).
type streamFrag struct {
	StreamID  uint64
	Frag      uint32
	FragCount uint32
	Data      []byte
}

func (f *streamFrag) encode() []byte {
	w := wire.NewWriter(16 + len(f.Data))
	w.U64(f.StreamID)
	w.U32(f.Frag)
	w.U32(f.FragCount)
	w.Raw(f.Data)
	return w.Bytes()
}

func decodeStreamFrag(b []byte) (streamFrag, error) {
	r := wire.NewReader(b)
	var f streamFrag
	f.StreamID = r.U64()
	f.Frag = r.U32()
	f.FragCount = r.U32()
	f.Data = r.Rest()
	if err := r.Err(); err != nil {
		return f, fmt.Errorf("wcl: decoding stream fragment: %w", err)
	}
	if f.FragCount == 0 || f.FragCount > maxStreamFrags {
		return f, fmt.Errorf("wcl: stream fragment count %d out of range", f.FragCount)
	}
	if f.Frag >= f.FragCount {
		return f, fmt.Errorf("wcl: stream fragment index %d >= count %d", f.Frag, f.FragCount)
	}
	return f, nil
}

// streamAckMsg travels backwards along the circuit and acknowledges
// stream fragments cumulatively plus selectively: every fragment below
// Cum has arrived, and bit k of Bits reports fragment Cum+1+k. It is the
// only acknowledgement a circuit message gets. It exposes (circID,
// streamID, positions) to relays on the backward path. Stream IDs count
// per circuit path from 1 (see activate), so they link nothing beyond
// the circuit ID the relay already holds.
type streamAckMsg struct {
	CircID   uint64
	StreamID uint64
	Cum      uint32
	Bits     uint64
}

func (m *streamAckMsg) encode() []byte {
	w := wire.NewWriter(29)
	w.U8(msgCircStreamAck)
	w.U64(m.CircID)
	w.U64(m.StreamID)
	w.U32(m.Cum)
	w.U64(m.Bits)
	return w.Bytes()
}

func decodeStreamAck(r *wire.Reader) (streamAckMsg, error) {
	var m streamAckMsg
	m.CircID = r.U64()
	m.StreamID = r.U64()
	m.Cum = r.U32()
	m.Bits = r.U64()
	if err := r.Err(); err != nil {
		return m, fmt.Errorf("wcl: decoding stream ack: %w", err)
	}
	return m, nil
}

// Hop addressing blobs embedded inside onion layers. A mix learns its
// successor either as a raw endpoint (the next-to-last hop B, a P-node
// reachable without any setup) or as a node ID (the destination D,
// reachable through the warm route B keeps from their recent gossip).
const (
	addrByEndpoint uint8 = 1
	addrByID       uint8 = 2
)

func encodeAddrEndpoint(ep transport.Endpoint, id identity.NodeID) []byte {
	w := wire.NewWriter(15)
	w.U8(addrByEndpoint)
	w.U32(uint32(ep.IP))
	w.U16(ep.Port)
	w.U64(uint64(id))
	return w.Bytes()
}

func encodeAddrID(id identity.NodeID) []byte {
	w := wire.NewWriter(9)
	w.U8(addrByID)
	w.U64(uint64(id))
	return w.Bytes()
}

type hopAddr struct {
	kind uint8
	ep   transport.Endpoint
	id   identity.NodeID
}

func decodeHopAddr(blob []byte) (hopAddr, error) {
	r := wire.NewReader(blob)
	var a hopAddr
	a.kind = r.U8()
	switch a.kind {
	case addrByEndpoint:
		a.ep = transport.Endpoint{IP: transport.IP(r.U32()), Port: r.U16()}
		a.id = identity.NodeID(r.U64())
	case addrByID:
		a.id = identity.NodeID(r.U64())
	default:
		return a, fmt.Errorf("wcl: unknown hop address kind %d", a.kind)
	}
	if err := r.Err(); err != nil {
		return a, fmt.Errorf("wcl: decoding hop address: %w", err)
	}
	return a, nil
}
