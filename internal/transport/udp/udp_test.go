package udp

import (
	"sync/atomic"
	"testing"
	"time"

	"whisper/internal/transport"
)

func newT(t *testing.T) *Transport {
	t.Helper()
	tr, err := New("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	return tr
}

func TestTimerOrderingAndCancel(t *testing.T) {
	tr := newT(t)
	tr.Start()
	fired := make(chan int, 3)
	tr.Do(func() {
		tr.After(30*time.Millisecond, func() { fired <- 3 })
		tr.After(10*time.Millisecond, func() { fired <- 1 })
		tm := tr.After(20*time.Millisecond, func() { fired <- 2 })
		tm.Cancel()
		if !tm.Stopped() {
			t.Error("cancelled timer not Stopped")
		}
	})
	if got := <-fired; got != 1 {
		t.Fatalf("first firing = %d, want 1", got)
	}
	if got := <-fired; got != 3 {
		t.Fatalf("second firing = %d, want 3 (2 was cancelled)", got)
	}
	select {
	case got := <-fired:
		t.Fatalf("unexpected extra firing %d", got)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestTickerFiresAndStops(t *testing.T) {
	tr := newT(t)
	tr.Start()
	var ticks atomic.Int32
	var tk transport.Ticker
	tr.Do(func() {
		tk = tr.EveryJitter(5*time.Millisecond, 2*time.Millisecond, func() {
			ticks.Add(1)
		})
	})
	deadline := time.Now().Add(2 * time.Second)
	for ticks.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if ticks.Load() < 3 {
		t.Fatalf("ticker fired %d times, want >= 3", ticks.Load())
	}
	tr.Do(func() { tk.Stop() })
	n := ticks.Load()
	time.Sleep(30 * time.Millisecond)
	if got := ticks.Load(); got != n {
		t.Fatalf("ticker fired after Stop (%d -> %d)", n, got)
	}
}

// TestOverlayRoundTrip sends a datagram a->b via a static address-book
// entry, and the reply b->a rides the dynamically learned mapping.
func TestOverlayRoundTrip(t *testing.T) {
	a, b := newT(t), newT(t)
	epA := transport.Endpoint{IP: 1, Port: 1}
	epB := transport.Endpoint{IP: 2, Port: 1}
	if err := a.AddPeer(epB, b.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	// b has no static entry for a: the reply must use the learned one.
	reply := make(chan transport.Datagram, 1)
	a.Attach(epA.IP, transport.HandlerFunc(func(dg transport.Datagram) {
		reply <- dg
	}))
	b.Attach(epB.IP, transport.HandlerFunc(func(dg transport.Datagram) {
		b.Send(transport.Datagram{Src: epB, Dst: dg.Src, Payload: append([]byte("re:"), dg.Payload...)})
	}))
	a.Start()
	b.Start()
	a.Do(func() {
		a.Send(transport.Datagram{Src: epA, Dst: epB, Payload: []byte("ping")})
	})
	select {
	case dg := <-reply:
		if string(dg.Payload) != "re:ping" || dg.Src != epB {
			t.Fatalf("reply = %q from %v", dg.Payload, dg.Src)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no reply within deadline")
	}
	if a.Unrouted() != 0 {
		t.Fatalf("unrouted = %d", a.Unrouted())
	}
}

func TestUnroutedDropped(t *testing.T) {
	a := newT(t)
	a.Start()
	a.Do(func() {
		a.Send(transport.Datagram{
			Src:     transport.Endpoint{IP: 1, Port: 1},
			Dst:     transport.Endpoint{IP: 99, Port: 1},
			Payload: []byte("void"),
		})
	})
	if got := a.Unrouted(); got != 1 {
		t.Fatalf("unrouted = %d, want 1", got)
	}
}

// TestPortOverTransport wires a transport.Port (the metered socket the
// protocol stacks use) directly over the UDP transport.
func TestPortOverTransport(t *testing.T) {
	a, b := newT(t), newT(t)
	epA := transport.Endpoint{IP: 10, Port: 1}
	epB := transport.Endpoint{IP: 20, Port: 1}
	if err := a.AddPeer(epB, b.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	var meter transport.Meter
	port := transport.NewPort(epA, a, &meter)
	a.Attach(epA.IP, port)
	seen := make(chan struct{})
	b.Attach(epB.IP, transport.HandlerFunc(func(dg transport.Datagram) { close(seen) }))
	a.Start()
	b.Start()
	a.Do(func() { port.Send(epB, []byte("metered")) })
	select {
	case <-seen:
	case <-time.After(2 * time.Second):
		t.Fatal("datagram not delivered")
	}
	if s := meter.Snapshot(); s.UpMsgs != 1 || s.UpBytes == 0 {
		t.Fatalf("meter = %+v", s)
	}
}
