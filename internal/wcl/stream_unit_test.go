package wcl

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"whisper/internal/netem"
	"whisper/internal/nylon"
	"whisper/internal/wire"
)

// TestClosePathDrainsPendingInSeqOrder: when a path tears down with
// many messages in flight, their one-shot fallbacks launch in the order
// the application sent them — also after acknowledgements removed
// messages from the middle of the path's active set — and each counts
// as a cell or stream fallback by its fragment count.
func TestClosePathDrainsPendingInSeqOrder(t *testing.T) {
	w := newBareWCL(t)
	// A destination with no key makes every fallback fail synchronously
	// through failEarly, so the done-callback order IS the drain order.
	c := &Circuit{w: w, dest: Dest{ID: 42}}
	p := &circPath{c: c}
	c.cur = p

	var order []uint64
	for id := uint64(1); id <= 12; id++ {
		id := id
		frags := 1
		if id == 5 {
			frags = 3
		}
		p.active = append(p.active, &streamSend{
			c: c, path: p, id: id, payload: []byte{byte(id)}, frags: frags,
			done: func(Result) { order = append(order, id) },
		})
	}
	// Acknowledged messages leave the middle of the set.
	for _, s := range []*streamSend{p.active[2], p.active[6], p.active[7]} {
		w.finishStream(s)
	}
	order = nil
	w.closePath(p, false)

	want := []uint64{1, 2, 4, 5, 6, 9, 10, 11, 12}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("drain order %v, want %v", order, want)
	}
	st := w.Stats()
	if st.CellFallbacks != uint64(len(want)-1) || st.StreamFallbacks != 1 {
		t.Fatalf("fallbacks cell=%d stream=%d, want %d and 1", st.CellFallbacks, st.StreamFallbacks, len(want)-1)
	}
}

// TestLateRetransmitAfterEvictionNotRedelivered: once a delivered
// one-fragment message's reassembly state is gone — and more than
// streamRecvMax newer messages have passed the exit — a late
// retransmit of it is acknowledged in full and not delivered again.
func TestLateRetransmitAfterEvictionNotRedelivered(t *testing.T) {
	w, nw := newBareWCLOnNet(t)
	got := map[string]int{}
	w.OnReceive = func(p []byte) { got[string(p)]++ }
	var acks []streamAckMsg
	nw.SetTap(func(dg netem.Datagram) {
		r := wire.NewReader(dg.Payload)
		if r.U8() != nylon.MsgApp || r.U8() != msgCircStreamAck {
			return
		}
		if m, err := decodeStreamAck(r); err == nil {
			acks = append(acks, m)
		}
	})
	e := &relayCircuit{id: 7, exit: true, prevDirect: netem.Endpoint{IP: 9, Port: 9}}
	frag := func(id uint64) streamFrag {
		return streamFrag{StreamID: id, FragCount: 1, Data: []byte(fmt.Sprintf("msg-%d", id))}
	}

	w.handleStreamFrag(e, frag(1))
	for id := uint64(2); id <= streamRecvMax+50; id++ {
		w.handleStreamFrag(e, frag(id))
	}
	acks = nil
	w.handleStreamFrag(e, frag(1)) // the late retransmit

	if n := got["msg-1"]; n != 1 {
		t.Fatalf("msg-1 delivered %d times, want exactly once", n)
	}
	if len(acks) != 1 || acks[0].StreamID != 1 || acks[0].Cum != 1 || acks[0].Bits != 0 {
		t.Fatalf("late retransmit acks = %+v, want one full ack of stream 1", acks)
	}
	if st := w.Stats(); st.StreamsDelivered != streamRecvMax+50 || st.DupStreamFrags != 1 {
		t.Fatalf("delivered=%d dup=%d, want %d and 1", st.StreamsDelivered, st.DupStreamFrags, streamRecvMax+50)
	}
}

// TestStreamWindowDefaults pins the send window's default and its cap:
// the selective-ack word reports 64 fragments past the cumulative
// point, so a wider window could never be acknowledged selectively.
func TestStreamWindowDefaults(t *testing.T) {
	cases := []struct {
		name   string
		cfg    Config
		window int
	}{
		{"defaults", Config{}, 32},
		{"window capped at 64", Config{StreamWindow: 1000}, 64},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.cfg.withDefaults().StreamWindow; got != tc.window {
				t.Fatalf("StreamWindow = %d, want %d", got, tc.window)
			}
		})
	}
}

// TestStreamCodecRoundTrip: encode → decode is the identity for stream
// fragments and stream acks.
func TestStreamCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for i := 0; i < 500; i++ {
		f := streamFrag{
			StreamID:  rng.Uint64(),
			Frag:      uint32(rng.Intn(1000)),
			FragCount: uint32(1000 + rng.Intn(1000)),
			Data:      make([]byte, rng.Intn(300)),
		}
		rng.Read(f.Data)
		dec, err := decodeStreamFrag(f.encode())
		if err != nil {
			t.Fatal(err)
		}
		if dec.StreamID != f.StreamID || dec.Frag != f.Frag ||
			dec.FragCount != f.FragCount || !bytes.Equal(dec.Data, f.Data) {
			t.Fatalf("fragment round trip mismatch: %+v != %+v", dec, f)
		}
	}
	for i := 0; i < 500; i++ {
		m := streamAckMsg{CircID: rng.Uint64(), StreamID: rng.Uint64(), Cum: rng.Uint32(), Bits: rng.Uint64()}
		r := wire.NewReader(m.encode())
		if got := r.U8(); got != msgCircStreamAck {
			t.Fatalf("tag = %d", got)
		}
		dec, err := decodeStreamAck(r)
		if err != nil {
			t.Fatal(err)
		}
		if dec != m {
			t.Fatalf("ack round trip mismatch: %+v != %+v", dec, m)
		}
	}
	// Out-of-range fragments are refused, not collected.
	bad := streamFrag{StreamID: 1, Frag: 0, FragCount: 0}
	if _, err := decodeStreamFrag(bad.encode()); err == nil {
		t.Fatal("zero fragment count decoded")
	}
	bad = streamFrag{StreamID: 1, Frag: 5, FragCount: 5}
	if _, err := decodeStreamFrag(bad.encode()); err == nil {
		t.Fatal("fragment index == count decoded")
	}
	bad = streamFrag{StreamID: 1, Frag: 0, FragCount: maxStreamFrags + 1}
	if _, err := decodeStreamFrag(bad.encode()); err == nil {
		t.Fatal("oversized fragment count decoded")
	}
}

// FuzzDecodeStreamFrag: arbitrary bytes never panic the fragment
// decoder, and everything it accepts re-encodes to a decodable frame.
func FuzzDecodeStreamFrag(f *testing.F) {
	f.Add([]byte{})
	f.Add((&streamFrag{StreamID: 7, Frag: 1, FragCount: 3, Data: []byte("abc")}).encode())
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		frag, err := decodeStreamFrag(b)
		if err != nil {
			return
		}
		dec, err := decodeStreamFrag(frag.encode())
		if err != nil {
			t.Fatalf("accepted fragment failed to re-decode: %v", err)
		}
		if dec.StreamID != frag.StreamID || dec.Frag != frag.Frag ||
			dec.FragCount != frag.FragCount || !bytes.Equal(dec.Data, frag.Data) {
			t.Fatalf("re-decode mismatch: %+v != %+v", dec, frag)
		}
	})
}

// FuzzDecodeStreamAck: arbitrary bytes never panic the ack decoder,
// and accepted acks round-trip.
func FuzzDecodeStreamAck(f *testing.F) {
	f.Add([]byte{})
	f.Add((&streamAckMsg{CircID: 7, StreamID: 9, Cum: 2, Bits: 5}).encode()[1:])
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeStreamAck(wire.NewReader(b))
		if err != nil {
			return
		}
		dec, err := decodeStreamAck(wire.NewReader(m.encode()[1:]))
		if err != nil || dec != m {
			t.Fatalf("re-decode mismatch: %+v != %+v (%v)", dec, m, err)
		}
	})
}
