package wcl

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"whisper/internal/crypt"
	"whisper/internal/identity"
	"whisper/internal/netem"
	"whisper/internal/wire"
)

// TestCircuitHandleAppNeverPanics floods the dispatcher with tagged
// garbage aimed at the circuit codecs: truncated setups, bogus cells,
// stray acks and closes.
func TestCircuitHandleAppNeverPanics(t *testing.T) {
	w := newBareWCL(t)
	src := netem.Endpoint{IP: 9, Port: 9}
	rng := rand.New(rand.NewSource(46))
	for _, tag := range []uint8{msgCircSetup, msgCircAck, msgCircData, msgCircClose, msgCircStreamAck} {
		for i := 0; i < 500; i++ {
			body := make([]byte, rng.Intn(300))
			rng.Read(body)
			w.handleApp(src, append([]byte{tag}, body...))
		}
	}
	// Whole-payload fuzz across every tag at once.
	f := func(payload []byte) bool {
		w.handleApp(src, payload)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(47))}); err != nil {
		t.Fatal(err)
	}
}

// TestCircSetupCodecRoundTrip: encode → decode is the identity for the
// circuit setup message, including empty and capped via paths.
func TestCircSetupCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for i := 0; i < 500; i++ {
		m := &circSetupMsg{
			CircID: rng.Uint64(),
			From:   identity.NodeID(rng.Uint64()),
			Onion:  make([]byte, rng.Intn(200)),
		}
		rng.Read(m.Onion)
		for j := rng.Intn(5); j > 0; j-- {
			m.ViaPath = append(m.ViaPath, identity.NodeID(rng.Uint64()))
		}
		r := wire.NewReader(m.encode())
		if got := r.U8(); got != msgCircSetup {
			t.Fatalf("tag = %d", got)
		}
		dec, err := decodeCircSetup(r)
		if err != nil {
			t.Fatal(err)
		}
		if dec.CircID != m.CircID || dec.From != m.From ||
			!reflect.DeepEqual(dec.ViaPath, m.ViaPath) ||
			string(dec.Onion) != string(m.Onion) {
			t.Fatalf("round trip mismatch: %+v != %+v", dec, m)
		}
	}
}

// TestCircDataCodecRoundTrip: encode → decode is the identity for
// cells, and the cell payload framing round-trips its type byte.
func TestCircDataCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for i := 0; i < 500; i++ {
		m := &circDataMsg{CircID: rng.Uint64(), Cell: make([]byte, rng.Intn(300))}
		rng.Read(m.Cell)
		r := wire.NewReader(m.encode())
		if got := r.U8(); got != msgCircData {
			t.Fatalf("tag = %d", got)
		}
		dec, err := decodeCircData(r)
		if err != nil {
			t.Fatal(err)
		}
		if dec.CircID != m.CircID || string(dec.Cell) != string(m.Cell) {
			t.Fatalf("round trip mismatch: %+v != %+v", dec, m)
		}
	}
	for _, typ := range []uint8{cellPing, cellStream} {
		payload := []byte("payload-bytes")
		gotTyp, gotPayload, ok := decodeCellPayload(encodeCellPayload(typ, payload))
		if !ok || gotTyp != typ || string(gotPayload) != string(payload) {
			t.Fatalf("cell framing round trip failed for type %d", typ)
		}
	}
	if _, _, ok := decodeCellPayload(nil); ok {
		t.Fatal("empty cell payload decoded")
	}
}

// TestCircControlCodecs: the fixed-size control messages (ack, close)
// carry exactly their identifiers.
func TestCircControlCodecs(t *testing.T) {
	r := wire.NewReader(encodeCircAck(7))
	if r.U8() != msgCircAck || r.U64() != 7 || r.Err() != nil {
		t.Fatal("circuit ack codec broken")
	}
	r = wire.NewReader(encodeCircClose(7))
	if r.U8() != msgCircClose || r.U64() != 7 || r.Err() != nil {
		t.Fatal("close codec broken")
	}
}

// TestCircuitSetupWithForeignOnion: a well-formed setup whose onion
// targets someone else's key is dropped with a peel error — no table
// entry, no acknowledgement.
func TestCircuitSetupWithForeignOnion(t *testing.T) {
	w := newBareWCL(t)
	foreign := identity.TestKeys(2)[1]
	secret, err := crypt.NewCircuitSecret()
	if err != nil {
		t.Fatal(err)
	}
	keys, err := crypt.DeriveCircuitKeys(secret, 1)
	if err != nil {
		t.Fatal(err)
	}
	onion, err := crypt.BuildCircuitOnion(nil, []crypt.CircuitHop{{Pub: foreign.Public(), Key: keys[0]}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := &circSetupMsg{CircID: 7, From: 99, Onion: onion}
	w.handleApp(netem.Endpoint{IP: 9, Port: 9}, m.encode())
	if w.Stats().PeelErrors != 1 {
		t.Fatalf("peel errors = %d, want 1", w.Stats().PeelErrors)
	}
	if w.relayCirc.size() != 0 {
		t.Fatal("foreign setup installed a table entry")
	}
}

// TestCircuitDataWithoutEntry: a data cell for an unknown circuit is
// dropped and counted, never delivered.
func TestCircuitDataWithoutEntry(t *testing.T) {
	w := newBareWCL(t)
	delivered := false
	w.OnReceive = func([]byte) { delivered = true }
	m := &circDataMsg{CircID: 12345, Cell: []byte("garbage")}
	w.handleApp(netem.Endpoint{IP: 9, Port: 9}, m.encode())
	if w.Stats().CellDrops != 1 {
		t.Fatalf("cell drops = %d, want 1", w.Stats().CellDrops)
	}
	if delivered {
		t.Fatal("unknown-circuit cell delivered")
	}
}
