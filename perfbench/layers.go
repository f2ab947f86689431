package main

import (
	"whisper/internal/crypt"
	"whisper/internal/obs"
	"whisper/internal/sim"
)

// layerNames lists every per-layer metric a traced run reports. A
// workload without operations in a layer reports that layer's metrics
// as 0 (README.md says which workload moves which).
var layerNames = []string{
	"identity.keygen_s", "identity.keys_generated",
	"sim.build_s", "sim.warmup_s", "sim.node_s_per_s",
	"simnet.events", "simnet.events_per_s", "simnet.windows", "simnet.events_per_window",
	"runtime.cpu_us_per_node_s", "runtime.gc_cpu_share", "runtime.alloc_bytes_per_node_s", "runtime.allocs_per_node_s", "runtime.gc_cycles",
	"netem.datagrams_per_node_s", "netem.drop_ratio",
	"netem.bytes.nylon", "netem.bytes.keyss", "netem.bytes.wcl-oneshot", "netem.bytes.circuit", "netem.bytes.stream", "netem.bytes.other",
	"nylon.shuffle_completion_ratio", "nylon.relay_share", "nylon.punch_success_ratio", "nylon.relays_forwarded_per_node_s",
	"pss.zero_shuffle_nodes", "pss.public_share_in_view",
	"keyss.keys_per_node",
	"crypt.rsa_ms_per_msg", "crypt.rsa_ops_per_msg", "crypt.aes_ms_per_msg", "crypt.ecc_ms_per_msg",
	"wcl.attempts_per_msg", "wcl.first_try_ratio", "wcl.peels_per_msg",
	"wcl.cells_per_msg", "wcl.stream_frags_per_msg", "wcl.stream_retransmit_ratio", "wcl.fallbacks", "wcl.circuits_established",
	"ppss.exchange_completion_ratio", "ppss.elections", "ppss.app_delivered",
	"trace.overhead_ratio",
}

// layerUnits gives the unit of each per-layer metric.
func layerUnit(name string) string {
	switch name {
	case "identity.keygen_s", "sim.build_s", "sim.warmup_s":
		return "s"
	case "simnet.events_per_s", "runtime.allocs_per_node_s", "netem.datagrams_per_node_s", "nylon.relays_forwarded_per_node_s":
		return "1/s"
	case "runtime.alloc_bytes_per_node_s":
		return "B/s"
	case "sim.node_s_per_s":
		return "node-s/s"
	case "runtime.cpu_us_per_node_s":
		return "us"
	case "netem.bytes.nylon", "netem.bytes.keyss", "netem.bytes.wcl-oneshot", "netem.bytes.circuit", "netem.bytes.stream", "netem.bytes.other":
		return "B"
	case "crypt.rsa_ms_per_msg", "crypt.aes_ms_per_msg", "crypt.ecc_ms_per_msg":
		return "ms"
	case "runtime.gc_cpu_share", "netem.drop_ratio", "nylon.shuffle_completion_ratio", "nylon.relay_share",
		"nylon.punch_success_ratio", "pss.public_share_in_view", "wcl.first_try_ratio", "wcl.stream_retransmit_ratio",
		"ppss.exchange_completion_ratio", "trace.overhead_ratio":
		return "1"
	}
	return "count"
}

// counters is a snapshot of the protocol counters of every node of a
// world, taken at the edges of the measured phase.
type counters struct {
	shufInit, shufDone, shufRelay      uint64
	punchTry, punchOK, relaysForwarded uint64
	cpu                                crypt.CPUMeter
	cells, frags, retx, fbacks         uint64
	circuits                           uint64
	exInit, exDone, elections, appRecv uint64
}

func snapshot(w *sim.World) counters {
	var c counters
	for _, n := range w.Nodes {
		s := n.Nylon.Stats()
		c.shufInit += s.ShufflesInitiated
		c.shufDone += s.ShufflesCompleted
		c.shufRelay += s.ShufflesViaRelays
		c.punchTry += s.PunchAttempts
		c.punchOK += s.PunchSuccesses
		c.relaysForwarded += s.RelaysForwarded
		if n.WCL != nil {
			ws := n.WCL.Stats()
			c.cells += ws.CellsSent
			c.frags += ws.StreamFragsSent
			c.retx += ws.StreamRetransmits
			c.fbacks += ws.CellFallbacks + ws.StreamFallbacks
			c.circuits += ws.CircuitsEstablished
		}
		if n.PPSS != nil {
			for _, in := range n.PPSS.Instances() {
				is := in.Stats()
				c.exInit += is.ExchangesInitiated
				c.exDone += is.ExchangesCompleted
				c.elections += is.ElectionsStarted
				c.appRecv += is.AppDelivered
			}
		}
	}
	c.cpu = w.CPUTotal()
	return c
}

// msgLayers holds what the per-layer metrics are normalized by.
type msgLayers struct {
	msgs     int64 // application messages issued (small and bulk)
	small    int64 // small messages issued
	streams  int64 // bulk stream messages issued
	attempts int64 // WCL paths built for small messages
	firstTry int64 // small messages acknowledged on their first path
}

// protocolLayers computes the Nylon, PSS, keyss, crypt, WCL and PPSS
// metrics of a measured phase from the counter snapshots around it.
func protocolLayers(w *sim.World, a, b counters, p *phase, m msgLayers, tr *tracer) map[string]metric {
	ns := p.nodeSeconds()
	out := map[string]metric{}
	set := func(name string, v float64) { out[name] = metric{v, layerUnit(name)} }
	d := func(x, y uint64) float64 { return float64(y - x) }

	set("nylon.shuffle_completion_ratio", ratio(d(a.shufDone, b.shufDone), d(a.shufInit, b.shufInit)))
	set("nylon.relay_share", ratio(d(a.shufRelay, b.shufRelay), d(a.shufInit, b.shufInit)))
	set("nylon.punch_success_ratio", ratio(d(a.punchOK, b.punchOK), d(a.punchTry, b.punchTry)))
	set("nylon.relays_forwarded_per_node_s", d(a.relaysForwarded, b.relaysForwarded)/ns)

	var zero, pub, entries, keys int
	for _, n := range w.Nodes {
		if n.Nylon.Stats().ShufflesCompleted == 0 {
			zero++
		}
		for _, e := range n.Nylon.View() {
			entries++
			if e.Val.Public {
				pub++
			}
		}
		keys += n.Nylon.Keys().Len()
	}
	set("pss.zero_shuffle_nodes", float64(zero))
	set("pss.public_share_in_view", ratio(float64(pub), float64(entries)))
	set("keyss.keys_per_node", float64(keys)/float64(len(w.Nodes)))

	msgs := float64(m.msgs)
	cpu := b.cpu
	set("crypt.rsa_ms_per_msg", ratio(ms(cpu.RSA-a.cpu.RSA), msgs))
	set("crypt.rsa_ops_per_msg", ratio(d(a.cpu.RSAEncs+a.cpu.RSADecs+a.cpu.Signs+a.cpu.Verifys, cpu.RSAEncs+cpu.RSADecs+cpu.Signs+cpu.Verifys), msgs))
	set("crypt.aes_ms_per_msg", ratio(ms(cpu.AES-a.cpu.AES), msgs))
	set("crypt.ecc_ms_per_msg", ratio(ms(cpu.ECC-a.cpu.ECC), msgs))

	set("wcl.attempts_per_msg", ratio(float64(m.attempts), float64(m.small)))
	set("wcl.first_try_ratio", ratio(float64(m.firstTry), float64(m.small)))
	set("wcl.peels_per_msg", ratio(float64(tr.wclCount(obs.KindPeel)), msgs))
	set("wcl.cells_per_msg", ratio(d(a.cells, b.cells), msgs))
	set("wcl.stream_frags_per_msg", ratio(d(a.frags, b.frags), float64(m.streams)))
	set("wcl.stream_retransmit_ratio", ratio(d(a.retx, b.retx), d(a.frags, b.frags)))
	set("wcl.fallbacks", d(a.fbacks, b.fbacks))
	set("wcl.circuits_established", d(a.circuits, b.circuits))

	set("ppss.exchange_completion_ratio", ratio(d(a.exDone, b.exDone), d(a.exInit, b.exInit)))
	set("ppss.elections", d(a.elections, b.elections))
	set("ppss.app_delivered", d(a.appRecv, b.appRecv))
	return out
}
