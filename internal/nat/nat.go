// Package nat emulates network address translation devices at the
// datagram level. The four device types of the paper's evaluation are
// supported (full cone, restricted cone, port-restricted cone and
// symmetric), with RFC 4787-style mapping and filtering semantics and
// virtual-time association-rule leases.
//
// Traversal outcomes (whether hole punching works for a NAT-type pair)
// are not hard-coded: they emerge from the mapping/filtering rules when
// the traversal handshake of package nylon runs over the emulation. The
// CanPunch matrix below documents the expected results per Ford et al.
// ("Peer-to-peer communication across network address translators") and
// is property-tested against the emulation.
package nat

import (
	"fmt"
	"time"

	"whisper/internal/netem"
	"whisper/internal/simnet"
)

// Type enumerates NAT behaviours. The names mirror the paper's
// experimental settings (§V-A).
type Type int

const (
	// None marks a public host with no NAT (a P-node).
	None Type = iota
	// FullCone uses endpoint-independent mapping and filtering.
	FullCone
	// RestrictedCone uses endpoint-independent mapping and
	// address-dependent filtering.
	RestrictedCone
	// PortRestrictedCone uses endpoint-independent mapping and
	// address-and-port-dependent filtering.
	PortRestrictedCone
	// Symmetric uses address-and-port-dependent mapping (a fresh
	// external port per destination) and address-and-port-dependent
	// filtering. Hole punching through it generally fails and relays
	// must be used, as the paper notes.
	Symmetric
)

// EmulatedTypes lists the four emulated NAT device types, i.e. every
// Type except None.
var EmulatedTypes = []Type{FullCone, RestrictedCone, PortRestrictedCone, Symmetric}

func (t Type) String() string {
	switch t {
	case None:
		return "public"
	case FullCone:
		return "full_cone"
	case RestrictedCone:
		return "restricted_cone"
	case PortRestrictedCone:
		return "port_restricted_cone"
	case Symmetric:
		return "sym"
	default:
		return fmt.Sprintf("nat.Type(%d)", int(t))
	}
}

// CanPunch reports whether UDP hole punching is expected to succeed
// between two hosts behind NATs of types a and b, assisted by a
// rendezvous that has observed both external endpoints. A public side
// (None) always works. Per Ford et al., punching fails only when a
// symmetric NAT faces a symmetric or port-restricted one: the symmetric
// side's fresh per-destination port cannot be predicted by a peer that
// filters on exact (address, port).
func CanPunch(a, b Type) bool {
	if a == None || b == None {
		return true
	}
	aSym, bSym := a == Symmetric, b == Symmetric
	if aSym && bSym {
		return false
	}
	if aSym && b == PortRestrictedCone || bSym && a == PortRestrictedCone {
		return false
	}
	return true
}

// NeedsRelay reports whether content between NAT types a and b must be
// forwarded by a relay node because traversal cannot be established.
func NeedsRelay(a, b Type) bool { return !CanPunch(a, b) }

// UDPLease is the association-rule lifetime for UDP-style per-packet
// rules: the 5-minute value from the Cisco specification the paper
// cites.
const UDPLease = 5 * time.Minute

// TCPLease is the lifetime of TCP-style per-connection rules (Cisco:
// 24 hours). The paper's NAT emulation follows the TCP-friendly RFC
// 5382, so warm routes persist far beyond view residence times — the
// property §III-A relies on.
const TCPLease = 24 * time.Hour

// DefaultLease is the association-rule lifetime used when none is
// configured. The stack defaults to TCP-style connections, as the
// paper's prototype does.
const DefaultLease = TCPLease

// filterEntry is one association-rule permission: traffic from ip (and
// port, when non-zero — zero marks the address-only entry) was allowed
// by an outbound packet at time at.
type filterEntry struct {
	ip   netem.IP
	port uint16 // 0 = address-only entry
	at   time.Duration
}

type mapping struct {
	intEP   netem.Endpoint
	remote  netem.Endpoint // non-zero only for symmetric mappings
	extPort uint16
	lastOut time.Duration
	// filters is the packed filter table: linear-scanned (a mapping
	// accumulates at most a couple of entries per distinct remote), with
	// expired entries swept as it grows. It replaces a per-mapping map
	// whose buckets dominated device memory at large populations.
	filters []filterEntry
}

// touchFilter records (or refreshes) the permission opened by an
// outbound packet. Entries past the lease are unobservable (allowInbound
// checks freshness), so the periodic sweep below cannot change behavior.
func (m *mapping) touchFilter(ip netem.IP, port uint16, now, lease time.Duration) {
	for i := range m.filters {
		if m.filters[i].ip == ip && m.filters[i].port == port {
			m.filters[i].at = now
			return
		}
	}
	if len(m.filters) > 0 && len(m.filters)%64 == 0 {
		keep := m.filters[:0]
		for _, f := range m.filters {
			if now-f.at <= lease {
				keep = append(keep, f)
			}
		}
		m.filters = keep
	}
	if len(m.filters) == cap(m.filters) {
		// Double while small (a symmetric mapping holds 2-3 entries,
		// ever), then fixed +8 steps (see nylon.contactTable.upsert): a
		// cone mapping accumulates a couple of entries per distinct
		// remote, and append's doubling parked most devices on arrays
		// half empty.
		step := len(m.filters)
		if step < 2 {
			step = 2
		} else if step > 8 {
			step = 8
		}
		grown := make([]filterEntry, len(m.filters), len(m.filters)+step)
		copy(grown, m.filters)
		m.filters = grown
	}
	m.filters = append(m.filters, filterEntry{ip: ip, port: port, at: now})
}

func (m *mapping) filterFresh(ip netem.IP, port uint16, now, lease time.Duration) bool {
	for i := range m.filters {
		if m.filters[i].ip == ip && m.filters[i].port == port {
			return now-m.filters[i].at <= lease
		}
	}
	return false
}

type insideHost struct {
	ip netem.IP
	h  netem.Handler
}

// Device is one emulated NAT box serving one or more internal hosts.
// It implements netem.Handler on its external (public) interface and
// netem.Uplink on its internal interface.
//
// All tables are packed slices scanned linearly: a device serves one or
// two internal hosts and one mapping per host (cone types) or per
// (host, remote) pair (symmetric), so scans stay short while the maps
// they replace cost ~100 heap bytes per entry at million-device scale.
type Device struct {
	sim   *simnet.Sim
	net   *netem.Network
	typ   Type
	ext   netem.IP
	lease time.Duration

	inside   []insideHost
	maps     []mapping
	nextPort uint16

	// Diagnostics.
	DroppedInbound uint64 // inbound datagrams rejected by filtering
	Mapped         uint64 // mappings created
}

// NewDevice creates a NAT device of the given type with external
// address ext, attaches it to the network, and uses lease for
// association rules (DefaultLease if zero).
func NewDevice(n *netem.Network, typ Type, ext netem.IP, lease time.Duration) *Device {
	if typ == None {
		panic("nat: NewDevice with Type None; public hosts attach directly")
	}
	if !ext.Public() {
		panic("nat: device external address must be public")
	}
	if lease <= 0 {
		lease = DefaultLease
	}
	d := &Device{
		sim:      n.Sim(),
		net:      n,
		typ:      typ,
		ext:      ext,
		lease:    lease,
		nextPort: 1024,
	}
	n.Attach(ext, d)
	return d
}

// Type returns the device's NAT behaviour.
func (d *Device) Type() Type { return d.typ }

// External returns the device's public address.
func (d *Device) External() netem.IP { return d.ext }

// AttachInside registers a host on the private side of the device.
func (d *Device) AttachInside(ip netem.IP, h netem.Handler) {
	if ip.Public() {
		panic("nat: internal host must use a private address")
	}
	for i := range d.inside {
		if d.inside[i].ip == ip {
			d.inside[i].h = h
			return
		}
	}
	d.inside = append(d.inside, insideHost{ip: ip, h: h})
}

// DetachInside removes a private host (e.g. on churn departure). Its
// mappings are left to expire naturally, as on a real device.
func (d *Device) DetachInside(ip netem.IP) {
	for i := range d.inside {
		if d.inside[i].ip == ip {
			d.inside = append(d.inside[:i], d.inside[i+1:]...)
			return
		}
	}
}

func (d *Device) insideHandler(ip netem.IP) (netem.Handler, bool) {
	for i := range d.inside {
		if d.inside[i].ip == ip {
			return d.inside[i].h, true
		}
	}
	return nil, false
}

// Close detaches the device from the network.
func (d *Device) Close() { d.net.Detach(d.ext) }

func (d *Device) alive(m *mapping) bool {
	return d.sim.Now()-m.lastOut <= d.lease
}

// livePortIndex returns the index of the live mapping holding external
// port p, or -1. At most one live mapping holds any port (allocPort
// only hands out ports no live mapping uses).
func (d *Device) livePortIndex(p uint16) int {
	for i := range d.maps {
		if d.maps[i].extPort == p && d.alive(&d.maps[i]) {
			return i
		}
	}
	return -1
}

func (d *Device) allocPort() uint16 {
	for {
		p := d.nextPort
		d.nextPort++
		if d.nextPort == 0 {
			d.nextPort = 1024
		}
		if d.livePortIndex(p) < 0 {
			return p
		}
	}
}

// mappingIndex finds the mapping slot for (intEP, remote) under the
// device's mapping policy: endpoint-independent for cone types (remote
// ignored), address-and-port-dependent for symmetric.
func (d *Device) mappingIndex(intEP, remote netem.Endpoint) int {
	for i := range d.maps {
		if d.maps[i].intEP != intEP {
			continue
		}
		if d.typ == Symmetric && d.maps[i].remote != remote {
			continue
		}
		return i
	}
	return -1
}

// outboundMapping finds or creates the mapping used when intEP sends to
// remote, refreshing the lease and filter entries. The returned pointer
// is into the device's mapping array — valid only until the next
// outbound packet.
func (d *Device) outboundMapping(intEP, remote netem.Endpoint) *mapping {
	now := d.sim.Now()
	idx := d.mappingIndex(intEP, remote)
	if idx < 0 || !d.alive(&d.maps[idx]) {
		m := mapping{intEP: intEP, extPort: d.allocPort()}
		if d.typ == Symmetric {
			m.remote = remote
		}
		if idx >= 0 {
			// Reuse the dead slot (and its filter-table capacity). The
			// dead mapping was already invisible: every inbound lookup
			// checks liveness before use.
			m.filters = d.maps[idx].filters[:0]
			d.maps[idx] = m
		} else {
			if len(d.maps) == cap(d.maps) {
				// Double while small, then +2 steps, as for the filter
				// table: a cone device holds one mapping forever, a
				// symmetric one grows per distinct destination.
				step := len(d.maps)
				if step < 1 {
					step = 1
				} else if step > 2 {
					step = 2
				}
				grown := make([]mapping, len(d.maps), len(d.maps)+step)
				copy(grown, d.maps)
				d.maps = grown
			}
			d.maps = append(d.maps, m)
			idx = len(d.maps) - 1
		}
		d.Mapped++
	}
	m := &d.maps[idx]
	m.lastOut = now
	// Record filter permissions opened by this outbound packet.
	m.touchFilter(remote.IP, 0, now, d.lease)
	m.touchFilter(remote.IP, remote.Port, now, d.lease)
	return m
}

// Send implements netem.Uplink for internal hosts: translate the source
// endpoint and forward to the public network.
func (d *Device) Send(dg netem.Datagram) {
	m := d.outboundMapping(dg.Src, dg.Dst)
	dg.Src = netem.Endpoint{IP: d.ext, Port: m.extPort}
	d.net.Send(dg)
}

// allowInbound applies the device's filtering policy to an inbound
// datagram from src on mapping m.
func (d *Device) allowInbound(m *mapping, src netem.Endpoint) bool {
	now := d.sim.Now()
	switch d.typ {
	case FullCone:
		return true
	case RestrictedCone:
		return m.filterFresh(src.IP, 0, now, d.lease)
	case PortRestrictedCone, Symmetric:
		return m.filterFresh(src.IP, src.Port, now, d.lease)
	default:
		return false
	}
}

// HandleDatagram implements netem.Handler on the external interface:
// look up the mapping by destination port, filter, rewrite, deliver.
func (d *Device) HandleDatagram(dg netem.Datagram) {
	i := d.livePortIndex(dg.Dst.Port)
	if i < 0 {
		d.DroppedInbound++
		return
	}
	m := &d.maps[i]
	if !d.allowInbound(m, dg.Src) {
		d.DroppedInbound++
		return
	}
	h, ok := d.insideHandler(m.intEP.IP)
	if !ok {
		d.DroppedInbound++
		return
	}
	dg.Dst = m.intEP
	h.HandleDatagram(dg)
}

// ExternalEndpoint returns the live external endpoint currently mapped
// for intEP (cone types only; symmetric NATs have no stable mapping).
// ok is false if no live mapping exists or the device is symmetric.
func (d *Device) ExternalEndpoint(intEP netem.Endpoint) (ep netem.Endpoint, ok bool) {
	if d.typ == Symmetric {
		return netem.Endpoint{}, false
	}
	i := d.mappingIndex(intEP, netem.Endpoint{})
	if i < 0 || !d.alive(&d.maps[i]) {
		return netem.Endpoint{}, false
	}
	return netem.Endpoint{IP: d.ext, Port: d.maps[i].extPort}, true
}
