package exp

import (
	"fmt"
	"io"

	"whisper/internal/netem"
	"whisper/internal/sim"
)

// The wire digest is the one fingerprint every experiment reports: an
// FNV-1a 64 hash over every datagram the emulated network accepts
// (before loss), keyed by virtual send time, source and destination
// endpoints, payload length and the first (message tag) byte. Payload
// bytes beyond the tag are not hashed: onions, cells and sealed
// envelopes come from crypto/rand keys and nonces and differ on every
// run, while their sizes and timing do not. Any change to protocol
// logic, scheduling or random-draw order that moves one datagram moves
// the digest; the goldens in testdata pin it per experiment.

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fnvMix folds the low n bytes of v into the FNV-1a hash h,
// little-endian.
func fnvMix(h, v uint64, n int) uint64 {
	for ; n > 0; n-- {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// foldDigests folds shard or run digests, in order, into one.
func foldDigests(ds ...uint64) uint64 {
	h := fnvOffset
	for _, d := range ds {
		h = fnvMix(h, d, 8)
	}
	return h
}

// wireDigest is the running hash of each shard network of one world.
// Each shard's tap runs on that shard's goroutine and touches only its
// own slot, so sharded windows need no lock.
type wireDigest []uint64

// tapWire installs the digest tap on every network of w.
func tapWire(w *sim.World) wireDigest {
	nets := []*netem.Network{w.Net}
	if f := w.Fabric(); f != nil {
		nets = make([]*netem.Network, w.Opts.Shards)
		for i := range nets {
			nets[i] = f.Net(i)
		}
	}
	d := make(wireDigest, len(nets))
	for i, nw := range nets {
		d[i] = fnvOffset
		clock := nw.Sim()
		nw.SetTap(func(dg netem.Datagram) {
			h := fnvMix(d[i], uint64(clock.Now()), 8)
			h = fnvMix(h, uint64(dg.Src.IP)<<16|uint64(dg.Src.Port), 6)
			h = fnvMix(h, uint64(dg.Dst.IP)<<16|uint64(dg.Dst.Port), 6)
			h = fnvMix(h, uint64(len(dg.Payload)), 4)
			if len(dg.Payload) > 0 {
				h = fnvMix(h, uint64(dg.Payload[0]), 1)
			}
			d[i] = h
		})
	}
	return d
}

// sum folds the shard hashes in shard order.
func (d wireDigest) sum() uint64 { return foldDigests(d...) }

// Digest is embedded in every experiment result: the wire digests of
// its runs folded in run order.
type Digest struct {
	Fingerprint uint64
}

func (d Digest) digest() uint64 { return d.Fingerprint }

// printFingerprint writes the line every report ends with.
func (d Digest) printFingerprint(out io.Writer) {
	fmt.Fprintf(out, "fingerprint: %016x\n", d.Fingerprint)
}
