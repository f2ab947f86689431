// Package netem emulates a wide-area datagram network on top of the
// simnet virtual clock: addressed endpoints, configurable latency and
// loss models (cluster and PlanetLab-like), and per-node bandwidth
// metering.
//
// The unit moved around is a Datagram. Entities attach a Handler to an
// IP; a NAT device (package nat) attaches at its external IP and relays
// to hosts on private IPs behind it. Bandwidth is metered at the Port
// boundary — the interface a protocol stack uses — so relay traffic is
// charged to the relay node, mirroring how the paper accounts load.
//
// The address, datagram, metering and port primitives are owned by
// package transport (they are substrate-independent); this package
// re-exports them under their historical names and adds what is
// genuinely emulation-specific: the latency/loss models, the
// fault-injection layer (FaultModel), and the Network router driven by
// the virtual clock. Network implements the datagram
// plane of transport.Transport; transport/simnet completes it with the
// simnet scheduling plane.
package netem

import (
	"math/rand"
	"time"

	"whisper/internal/simnet"
	"whisper/internal/transport"
)

// IP is a compact network address; see transport.IP.
type IP = transport.IP

// PrivateBase is the first private IP.
const PrivateBase = transport.PrivateBase

// Endpoint is an (IP, port) pair, the address of a datagram socket.
type Endpoint = transport.Endpoint

// Datagram is a single unreliable message.
type Datagram = transport.Datagram

// HeaderOverhead is the per-datagram header cost (IPv4 20 + UDP 8).
const HeaderOverhead = transport.HeaderOverhead

// Handler receives datagrams addressed to an attached IP.
type Handler = transport.Handler

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc = transport.HandlerFunc

// Meter accumulates bandwidth usage at a node's network boundary.
type Meter = transport.Meter

// Uplink is the sending side of a node's attachment to the network.
type Uplink = transport.Uplink

// Port is the datagram socket a protocol stack uses.
type Port = transport.Port

// NewPort creates a port bound to local, sending through uplink.
func NewPort(local Endpoint, uplink Uplink, meter *Meter) *Port {
	return transport.NewPort(local, uplink, meter)
}

// LatencyModel determines one-way delay and loss probability between two
// public interfaces.
type LatencyModel interface {
	// Delay returns the one-way latency for a datagram of size bytes.
	Delay(rng *rand.Rand, src, dst IP, size int) time.Duration
	// LossProb returns the probability in [0,1] that the datagram is
	// dropped in transit.
	LossProb(src, dst IP) float64
}

// MinDelayModel is implemented by latency models that can state a lower
// bound on every delay they will ever return. The sharded engine uses
// the bound as its synchronization lookahead: cross-shard traffic can
// never arrive sooner than MinDelay, so windows of that width are safe.
type MinDelayModel interface {
	MinDelay() time.Duration
}

// MinDelay returns the model's delay lower bound, or zero when the
// model cannot state one (in which case sharded execution must not be
// used with it).
func MinDelay(m LatencyModel) time.Duration {
	if b, ok := m.(MinDelayModel); ok {
		return b.MinDelay()
	}
	return 0
}

// Network routes datagrams between attached handlers with model-driven
// latency and loss, optionally composed with a FaultModel (duplication,
// reordering, burst loss, partitions — see faults.go). All methods must
// be called from simulation events.
type Network struct {
	sim     *simnet.Sim
	model   LatencyModel
	hosts   map[IP]Handler
	tap     func(Datagram)
	dropped uint64
	sent    uint64

	faults *FaultModel
	burst  map[[2]IP]bool // Gilbert-Elliott per-directed-link state
	fstats FaultStats

	// Shard plane (nil/zero on unsharded networks). route maps a public
	// IP to its owning shard; cross hands a datagram bound for another
	// shard to the coordinator for barrier exchange.
	shard int
	route func(IP) (int, bool)
	cross func(dstShard int, at time.Duration, dg Datagram)
}

// New creates a network using the given latency model.
func New(sim *simnet.Sim, model LatencyModel) *Network {
	return &Network{sim: sim, model: model, hosts: make(map[IP]Handler)}
}

// Sim returns the simulator driving this network.
func (n *Network) Sim() *simnet.Sim { return n.sim }

// Attach registers h to receive datagrams addressed to ip, replacing
// any previous handler.
func (n *Network) Attach(ip IP, h Handler) {
	if h == nil {
		panic("netem: attach nil handler")
	}
	n.hosts[ip] = h
}

// Detach removes the handler for ip. In-flight datagrams to ip are
// silently dropped at delivery time.
func (n *Network) Detach(ip IP) { delete(n.hosts, ip) }

// Stats reports totals of datagrams sent and dropped (loss + dead
// destination) since creation.
func (n *Network) Stats() (sent, dropped uint64) { return n.sent, n.dropped }

// SetTap installs an observer invoked for every datagram accepted for
// transmission (before loss). Tests use it to play the paper's passive
// attacker, who can capture traffic on links.
func (n *Network) SetTap(tap func(Datagram)) { n.tap = tap }

// Send routes dg through the emulated network. The datagram is
// delivered asynchronously after the model's latency, or dropped per the
// model's loss probability; an installed FaultModel may additionally
// drop it (partition, burst loss), duplicate it, or delay one copy past
// later traffic. Payload ownership passes to the network. With no fault
// model installed the random-draw sequence and event schedule are
// identical to the pre-fault-layer network.
func (n *Network) Send(dg Datagram) {
	n.sent++
	if n.tap != nil {
		n.tap(dg)
	}
	rng := n.sim.Rand()
	if n.faults != nil && n.faultDrop(rng, dg.Src.IP, dg.Dst.IP) {
		n.dropped++
		return
	}
	if p := n.model.LossProb(dg.Src.IP, dg.Dst.IP); p > 0 && rng.Float64() < p {
		n.dropped++
		return
	}
	n.deliver(rng, dg)
	if f := n.faults; f != nil && f.DupProb > 0 && rng.Float64() < f.DupProb {
		n.fstats.Duplicated++
		dup := dg
		dup.Payload = append([]byte(nil), dg.Payload...)
		n.deliver(rng, dup)
	}
}

// deliver schedules one copy of dg after the model's latency, plus the
// fault model's reordering jitter for an unlucky subset. On a sharded
// network a datagram whose destination lives on another shard is handed
// to the coordinator instead of the local clock; the latency model's
// MinDelay bound guarantees it lands in a later window.
func (n *Network) deliver(rng *rand.Rand, dg Datagram) {
	delay := n.model.Delay(rng, dg.Src.IP, dg.Dst.IP, dg.WireSize())
	if f := n.faults; f != nil && f.ReorderProb > 0 && rng.Float64() < f.ReorderProb {
		n.fstats.Reordered++
		delay += time.Duration(rng.Int63n(int64(f.reorderJitter())))
	}
	if n.route != nil {
		if s, ok := n.route(dg.Dst.IP); ok && s != n.shard {
			n.cross(s, n.sim.Now()+delay, dg)
			return
		}
	}
	n.sim.After(delay, func() {
		n.Inject(dg)
	})
}

// SetShardPlane wires this network into a sharded run: shard is the
// network's own shard index, route maps public IPs to shards (IPs it
// does not know stay local — private addresses never cross shards), and
// cross forwards a datagram due at virtual time at on another shard.
func (n *Network) SetShardPlane(shard int, route func(IP) (int, bool), cross func(dstShard int, at time.Duration, dg Datagram)) {
	n.shard = shard
	n.route = route
	n.cross = cross
}

// Inject delivers dg to the locally attached handler right now, with no
// latency draw. The cross-shard exchange path uses it at the barrier:
// latency was already applied on the sending shard.
func (n *Network) Inject(dg Datagram) {
	h, ok := n.hosts[dg.Dst.IP]
	if !ok {
		n.dropped++
		return
	}
	h.HandleDatagram(dg)
}
