package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"whisper/internal/crypt"
	"whisper/internal/identity"
	"whisper/internal/netem"
	"whisper/internal/nylon"
	"whisper/internal/pss"
	"whisper/internal/simnet"
	"whisper/internal/transport"
)

// microBench is one layer microbenchmark and the per-layer metric whose
// movement it should explain.
type microBench struct {
	name  string
	moves string
	fn    func(b *testing.B)
}

// runMicro times public functions of single layers with the standard
// benchmark harness and prints ns/op and allocs/op for each.
func runMicro(out io.Writer) error {
	testing.Init()
	benches, err := microBenches()
	if err != nil {
		return err
	}
	for _, mb := range benches {
		r := testing.Benchmark(mb.fn)
		if r.N == 0 {
			return fmt.Errorf("micro %s: benchmark failed", mb.name)
		}
		fmt.Fprintf(out, "micro: %-26s %12.0f ns/op %6d allocs/op %8d B/op  moves %s\n",
			mb.name, float64(r.T.Nanoseconds())/float64(r.N), r.AllocsPerOp(), r.AllocedBytesPerOp(), mb.moves)
	}
	return nil
}

func microBenches() ([]microBench, error) {
	var out []microBench
	for _, suite := range []crypt.SuiteID{crypt.SuiteRSA2048, crypt.SuiteECC} {
		hops := make([]crypt.Hop, 4)
		privs := make([]crypt.PrivateKey, 4)
		for i := range hops {
			k, err := crypt.GenerateKey(suite, identity.DefaultKeyBits)
			if err != nil {
				return nil, err
			}
			privs[i] = k
			hops[i] = crypt.Hop{Pub: k.Public(), Addr: []byte{byte('a' + i)}}
		}
		final := bytes.Repeat([]byte{7}, 32)
		onion, err := crypt.BuildOnion(nil, hops, final)
		if err != nil {
			return nil, err
		}
		row := "crypt.rsa_ms_per_msg"
		if suite == crypt.SuiteECC {
			row = "crypt.ecc_ms_per_msg"
		}
		out = append(out,
			microBench{"crypt.BuildOnion/4/" + suite.String(), row, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := crypt.BuildOnion(nil, hops, final); err != nil {
						b.Fatal(err)
					}
				}
			}},
			microBench{"crypt.Peel/4/" + suite.String(), row, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, _, err := crypt.Peel(nil, privs[0], onion); err != nil {
						b.Fatal(err)
					}
				}
			}})
	}

	secret, err := crypt.NewCircuitSecret()
	if err != nil {
		return nil, err
	}
	keys, err := crypt.DeriveCircuitKeys(secret, 3)
	if err != nil {
		return nil, err
	}
	cellPayload := bytes.Repeat([]byte{1}, 1024)
	cell, err := crypt.SealCell(nil, keys, cellPayload)
	if err != nil {
		return nil, err
	}
	out = append(out,
		microBench{"crypt.SealCell/3/1KiB", "crypt.aes_ms_per_msg", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := crypt.SealCell(nil, keys, cellPayload); err != nil {
					b.Fatal(err)
				}
			}
		}},
		microBench{"crypt.OpenSym/cell-layer/1KiB", "crypt.aes_ms_per_msg", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := crypt.OpenSym(nil, keys[0], cell); err != nil {
					b.Fatal(err)
				}
			}
		}})

	out = append(out,
		microBench{"simnet.After+dispatch", "simnet.events_per_s", func(b *testing.B) {
			s := simnet.New(1)
			fn := func() {}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.After(time.Duration(i%1000)*time.Microsecond, fn)
				if s.Pending() > 8192 {
					s.Run()
				}
			}
			s.Run()
		}},
		microBench{"netem.Network.Send", "netem.datagrams_per_node_s", func(b *testing.B) {
			s := simnet.New(1)
			n := netem.New(s, netem.DefaultPlanetLab())
			n.Attach(2, netem.HandlerFunc(func(netem.Datagram) {}))
			payload := make([]byte, 256)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n.Send(netem.Datagram{Src: netem.Endpoint{IP: 1, Port: 1}, Dst: netem.Endpoint{IP: 2, Port: 1}, Payload: payload})
				if s.Pending() > 8192 {
					s.Run()
				}
			}
			s.Run()
		}},
		microBench{"pss.View.SampleInto/10/5", "nylon.shuffle_completion_ratio", func(b *testing.B) {
			v := pss.NewView[nylon.Descriptor](10)
			for i := 0; i < 10; i++ {
				v.Insert(nylon.Descriptor{ID: identity.NodeID(i + 1), Public: i%3 == 0,
					Contact: transport.Endpoint{IP: transport.IP(i + 1), Port: 1}}, uint16(i))
			}
			rng := rand.New(rand.NewSource(1))
			var dst []pss.Entry[nylon.Descriptor]
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst = v.SampleInto(dst[:0], rng, 5)
			}
		}})
	return out, nil
}
