package main

import (
	"fmt"
	"math/rand"
	"time"

	"whisper/internal/crypt"
	"whisper/internal/identity"
	"whisper/internal/netem"
	"whisper/internal/sim"
	"whisper/internal/wcl"
)

// onion-send: 300 nodes, 70% NATted, PlanetLab model, rsa2048 suite.
// Every onionEvery of virtual time one 256-byte WCL.Send one-shot
// message goes between a seeded random pair of distinct NATted nodes,
// with helpers taken from the destination's backlog. Per-message RSA
// onion build and peel, WCL retries and alternatives, relaying over NAT
// routes and keyss memory dominate; circuits and PPSS are idle.
const (
	onionNodes = 300
	// onionWarmup lets views, key sampling and the connection backlogs
	// converge (as the circuit and transfer experiments do).
	onionWarmup = 5 * time.Minute
	onionEvery  = 50 * time.Millisecond
	onionBytes  = 256
	// onionMsgsPerSecond is the number of messages measured per
	// requested second; the measured work is fixed by (seed, seconds).
	onionMsgsPerSecond = 400
	// onionDrainMax bounds the wait for the last outcomes.
	onionDrainMax = 5 * time.Minute
	onionHelpers  = 3
)

type onionRun struct {
	seed    int64
	seconds int
	w       *sim.World
	// recv counts app deliveries per message id; bad counts deliveries
	// with wrong bytes or at the wrong node.
	recv []int
	bad  int
	dst  []identity.NodeID // intended receiver by message id
}

func newOnion(seed int64, seconds int) instance { return &onionRun{seed: seed, seconds: seconds} }

func (o *onionRun) setup(pool *identity.Pool, tr *tracer) error {
	sp := tr.begin("sim.build")
	w, err := sim.NewWorld(sim.Options{
		Seed:     o.seed,
		N:        onionNodes,
		NATRatio: 0.7,
		Model:    netem.DefaultPlanetLab(),
		Suite:    crypt.SuiteRSA2048,
		KeyPool:  pool,
		WCL:      &wcl.Config{MinPublic: 3},
		Obs:      tr.scope(),
	})
	tr.end(sp)
	if err != nil {
		return err
	}
	o.w = w
	tr.tapWorld(w)
	tr.traceWCL(w)
	for _, n := range w.Nodes {
		n.WCL.OnReceive = o.receiver(n.ID())
	}
	sp = tr.begin("sim.warmup")
	w.StartAll()
	w.RunUntil(onionWarmup)
	tr.end(sp)
	return nil
}

func (o *onionRun) receiver(self identity.NodeID) func([]byte) {
	return func(p []byte) {
		id, ok := checkMsg(p, onionBytes)
		if !ok || id >= uint64(len(o.recv)) || o.dst[id] != self {
			o.bad++
			return
		}
		o.recv[id]++
	}
}

// dest assembles WCL destination info for target the way the PPSS
// would: its key plus helper P-nodes from its connection backlog.
func dest(w *sim.World, target *sim.Node) wcl.Dest {
	d := wcl.Dest{ID: target.ID(), Key: target.Nylon.Identity().Public()}
	for _, e := range target.WCL.Backlog().Publics() {
		h := w.Get(e.Desc.ID)
		if h == nil {
			continue
		}
		d.Helpers = append(d.Helpers, wcl.Helper{ID: h.ID(), Endpoint: h.Nylon.Addr(), Key: h.Nylon.Identity().Public()})
		if len(d.Helpers) >= onionHelpers {
			break
		}
	}
	return d
}

func (o *onionRun) measure(tr *tracer) (*phase, error) {
	w := o.w
	msgs := o.seconds * onionMsgsPerSecond
	rng := rand.New(rand.NewSource(o.seed ^ 0x6f6e696f6e))
	natted := w.LiveNatted()
	if len(natted) < 2 {
		return nil, fmt.Errorf("onion-send: only %d NATted nodes", len(natted))
	}
	o.recv = make([]int, msgs)
	o.dst = make([]identity.NodeID, msgs)
	results := make([]*wcl.Result, msgs)

	a := snapshot(w)
	w.ResetMeters()
	tr.resetTaps()
	tr.resetWCL()
	ev0 := w.Executed()
	sent0, drop0 := w.NetStats()
	start := w.Now()
	p := &phase{nodes: len(w.Nodes)}

	done := 0
	for i := 0; i < msgs; i++ {
		id, due := uint64(i), start+time.Duration(i)*onionEvery
		si := rng.Intn(len(natted))
		di := rng.Intn(len(natted) - 1)
		if di >= si {
			di++
		}
		src, dst := natted[si], natted[di]
		o.dst[id] = dst.ID()
		w.Schedule(due, func() {
			if late := w.Now() - due; late > p.maxLate {
				p.maxLate = late
			}
			sp := tr.begin("wcl.send")
			src.WCL.Send(dest(w, dst), msgPayload(id, onionBytes), func(r wcl.Result) {
				results[id] = &r
				done++
			})
			tr.end(sp)
		})
	}
	for w.Now() < start+time.Duration(msgs)*onionEvery {
		p.run(w, time.Second, tr)
	}
	p.loaded = len(p.slices)
	deadline := start + time.Duration(msgs)*onionEvery + onionDrainMax
	for done < msgs && w.Now() < deadline {
		p.run(w, time.Second, tr)
	}
	p.virtual = w.Now() - start

	b := snapshot(w)
	sent1, drop1 := w.NetStats()
	p.events = w.Executed() - ev0
	p.sent, p.dropped = sent1-sent0, drop1-drop0
	for _, n := range w.Nodes {
		p.wireBytes += n.Nylon.Meter().Snapshot().UpBytes
	}

	var ml msgLayers
	ml.msgs, ml.small = int64(msgs), int64(msgs)
	p.attempted = int64(msgs)
	for id, r := range results {
		switch {
		case r == nil:
			p.fail("message %d never resolved", id)
		case o.recv[id] > 1:
			p.fail("message %d delivered %d times", id, o.recv[id])
		case r.Outcome != wcl.Failed && o.recv[id] != 1:
			p.fail("message %d acknowledged but delivered %d times", id, o.recv[id])
		}
		if r == nil {
			continue
		}
		ml.attempts += int64(r.Attempts)
		if r.Outcome == wcl.Failed {
			continue
		}
		if r.Outcome == wcl.Success {
			ml.firstTry++
		}
		p.succeeded++
		p.lat = append(p.lat, r.Elapsed)
		p.goodBytes += onionBytes
		p.goodTime += r.Elapsed
	}
	if o.bad > 0 {
		p.fail("%d deliveries with wrong bytes or at the wrong node", o.bad)
	}
	p.extra = append(p.extra, fmt.Sprintf("paths=%d first_try=%d", ml.attempts, ml.firstTry))
	if tr != nil {
		p.layers = protocolLayers(w, a, b, p, ml, tr)
	}
	return p, nil
}
