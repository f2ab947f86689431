package main

import (
	"fmt"
	"math/rand"
	"time"

	"whisper/internal/identity"
	"whisper/internal/netem"
	"whisper/internal/sim"
	"whisper/internal/transport"
)

// gossip-50k: 50,000 Nylon+PSS nodes with no WCL, 70% behind NATs, on
// the PlanetLab model and the sharded engine. Simnet, netem, NAT,
// Nylon, PSS and the garbage collector do nearly all the work; crypto
// does none. Beside the gossip itself, a probe every gossipProbeEvery
// of virtual time sends a small application datagram from a random node
// to a random member of its view over Nylon's relay routes (the
// primitive onion hops are built on), giving the workload a send→receipt
// latency.
const (
	gossipNodes  = 50_000
	gossipShards = 8
	// gossipWarmup lets NAT registration and the first shuffle rounds
	// settle before measuring.
	gossipWarmup = 30 * time.Second
	// gossipVirtualPerSecond is the virtual time measured per requested
	// second; the measured work is fixed by (seed, seconds).
	gossipVirtualPerSecond = 5 * time.Second
	gossipProbeEvery       = 10 * time.Millisecond
	gossipProbeBytes       = 64
	// gossipDrain runs on after the last probe so every probe lands or
	// is lost before counting.
	gossipDrain = 5 * time.Second
	// gossipZeroShuffleFloor is the share of nodes allowed to have
	// completed no shuffle by the end of the run.
	gossipZeroShuffleFloor = 0.01
)

type gossipRun struct {
	seed    int64
	seconds int
	w       *sim.World

	sentAt []time.Duration // by probe id; written on the control plane
	rx     [][]probeRx     // by shard; written by that shard's worker only
}

type probeRx struct {
	id  uint64
	at  time.Duration
	bad bool
}

func newGossip(seed int64, seconds int) instance { return &gossipRun{seed: seed, seconds: seconds} }

func (g *gossipRun) setup(pool *identity.Pool, tr *tracer) error {
	sp := tr.begin("sim.build")
	w, err := sim.NewWorld(sim.Options{
		Seed:     g.seed,
		N:        gossipNodes,
		NATRatio: 0.7,
		Model:    netem.DefaultPlanetLab(),
		KeyPool:  pool,
		Shards:   gossipShards,
		// No obs registry even when traced: a sharded world shares one
		// instrument scope per shard, so Node.Stats would report shard
		// totals and the per-node checks below could not be made.
	})
	tr.end(sp)
	if err != nil {
		return err
	}
	g.w = w
	tr.tapWorld(w)

	// One receive handler per shard: a shard's handler only runs on the
	// worker executing that shard, so its slice needs no lock.
	g.rx = make([][]probeRx, gossipShards)
	handlers := make([]func(transport.Endpoint, []byte), gossipShards)
	for s := range handlers {
		shard := w.Engine().Shard(s)
		handlers[s] = func(_ transport.Endpoint, p []byte) {
			id, ok := checkMsg(p, gossipProbeBytes)
			g.rx[s] = append(g.rx[s], probeRx{id: id, at: shard.Now(), bad: !ok})
		}
	}
	for _, n := range w.Nodes {
		n.Nylon.AppHandler = handlers[n.Shard]
	}

	sp = tr.begin("sim.warmup")
	w.StartAll()
	w.RunFor(gossipWarmup)
	tr.end(sp)
	return nil
}

func (g *gossipRun) measure(tr *tracer) (*phase, error) {
	w := g.w
	virtual := time.Duration(g.seconds) * gossipVirtualPerSecond
	p := &phase{nodes: len(w.Nodes), virtual: virtual + gossipDrain}
	rng := rand.New(rand.NewSource(g.seed ^ 0x676f73736970))

	a := snapshot(w)
	w.ResetMeters()
	tr.resetTaps()
	ev0, win0 := w.Executed(), w.Engine().Windows()
	sent0, drop0 := w.NetStats()
	start := w.Now()

	probes := int(virtual / gossipProbeEvery)
	g.sentAt = make([]time.Duration, probes)
	var sendErrs int64
	for i := 0; i < probes; i++ {
		id, due := uint64(i), start+time.Duration(i)*gossipProbeEvery
		w.Schedule(due, func() {
			if late := w.Now() - due; late > p.maxLate {
				p.maxLate = late
			}
			g.sentAt[id] = w.Now()
			src := w.Nodes[rng.Intn(len(w.Nodes))]
			view := src.Nylon.View()
			if len(view) == 0 {
				sendErrs++
				return
			}
			dst := view[rng.Intn(len(view))].Val
			if err := src.Nylon.SendApp(dst, msgPayload(id, gossipProbeBytes)); err != nil {
				sendErrs++
			}
		})
	}
	for w.Now() < start+virtual {
		p.run(w, time.Second, tr)
	}
	p.loaded = len(p.slices)
	for w.Now() < start+p.virtual {
		p.run(w, time.Second, tr)
	}

	b := snapshot(w)
	sent1, drop1 := w.NetStats()
	p.events, p.windows = w.Executed()-ev0, w.Engine().Windows()-win0
	p.sent, p.dropped = sent1-sent0, drop1-drop0
	for _, n := range w.Nodes {
		p.wireBytes += n.Nylon.Meter().Snapshot().UpBytes
	}

	// Probes: each lands at most once, with its bytes intact.
	got := make([]int, probes)
	var delivered int64
	for _, rxs := range g.rx {
		for _, r := range rxs {
			if r.bad || r.id >= uint64(probes) {
				p.fail("probe %d arrived corrupted", r.id)
				continue
			}
			got[r.id]++
			if got[r.id] > 1 {
				p.fail("probe %d delivered %d times", r.id, got[r.id])
				continue
			}
			delivered++
			lat := r.at - g.sentAt[r.id]
			p.lat = append(p.lat, lat)
			p.goodBytes += gossipProbeBytes
			p.goodTime += lat
		}
	}

	// An operation is a Nylon shuffle (completed ÷ initiated over the
	// phase) or a probe.
	shufInit, shufDone := int64(b.shufInit-a.shufInit), int64(b.shufDone-a.shufDone)
	p.attempted = shufInit + int64(probes)
	p.succeeded = shufDone + delivered
	p.extra = append(p.extra, fmt.Sprintf("windows=%d shuffles=%d/%d probes=%d/%d send_errors=%d",
		p.windows, shufDone, shufInit, delivered, probes, sendErrs))

	if live := w.LiveCount(); live != gossipNodes {
		p.fail("%d of %d nodes live", live, gossipNodes)
	}
	zero := 0
	for _, n := range w.Nodes {
		if n.Nylon.Stats().ShufflesCompleted == 0 {
			zero++
		}
	}
	if limit := int(gossipZeroShuffleFloor * gossipNodes); zero > limit {
		p.fail("%d nodes completed no shuffle (floor %d)", zero, limit)
	}
	if delivered == 0 {
		p.fail("no probe delivered")
	}
	if tr != nil {
		p.layers = protocolLayers(w, a, b, p, msgLayers{}, tr)
	}
	return p, nil
}
