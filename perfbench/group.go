package main

import (
	"fmt"
	"math/rand"
	"time"

	"whisper/internal/crypt"
	"whisper/internal/identity"
	"whisper/internal/netem"
	"whisper/internal/ppss"
	"whisper/internal/sim"
	"whisper/internal/wcl"
)

// group-stream: 300 nodes in 4 PPSS private groups on the ecc suite,
// PlanetLab model. Every groupSmallEvery of virtual time a random
// member sends a 256-byte Instance.SendCircuit message to a peer from
// its private view; every groupStreamEvery one sends a 32 KiB
// WCL.SendStream message to a peer. Small and bulk messages use the
// circuit layer in different ways (single cells vs windowed fragments).
// RSA is idle; AES, ECC, PPSS shuffles over circuits and stream
// reliability do the work. Group creation and leader elections call
// NewGroupKey, which is why the workload runs on ecc: no RSA key is
// generated anywhere in it.
const (
	groupNodes = 300
	groupCount = 4
	// groupWarmup lets views and backlogs converge before the groups
	// form; groupJoinEvery spaces the join requests and groupSettle
	// lets private views fill after the last join.
	groupWarmup      = 4 * time.Minute
	groupJoinEvery   = 100 * time.Millisecond
	groupSettle      = 2 * time.Minute
	groupSmallBytes  = 256
	groupStreamBytes = 32 << 10
	groupSmallEvery  = 250 * time.Millisecond
	groupStreamEvery = 4 * time.Second
	// groupVirtualPerSecond is the virtual time of sending measured per
	// requested second; the measured work is fixed by (seed, seconds).
	groupVirtualPerSecond = 30 * time.Second
	groupDrainMax         = 5 * time.Minute
	// streamMagic marks bulk payloads; PPSS message tags are small
	// integers, so the receiver can tell them apart.
	streamMagic = 0xB5
)

type groupRun struct {
	seed    int64
	seconds int
	w       *sim.World
	groups  []ppss.GroupID
	members [][]*sim.Node

	// Per message id: intended receiver, deliveries seen, bad deliveries.
	dst  []identity.NodeID
	recv []int
	bad  int
}

func newGroup(seed int64, seconds int) instance { return &groupRun{seed: seed, seconds: seconds} }

func (g *groupRun) setup(pool *identity.Pool, tr *tracer) error {
	sp := tr.begin("sim.build")
	w, err := sim.NewWorld(sim.Options{
		Seed:     g.seed,
		N:        groupNodes,
		NATRatio: 0.7,
		Model:    netem.DefaultPlanetLab(),
		Suite:    crypt.SuiteECC,
		KeyPool:  pool,
		WCL:      &wcl.Config{MinPublic: 3},
		PPSS:     &ppss.Config{KeyBlobSize: 256, MinHelpers: 3, Suite: crypt.SuiteECC},
		Obs:      tr.scope(),
	})
	tr.end(sp)
	if err != nil {
		return err
	}
	g.w = w
	tr.tapWorld(w)
	tr.traceWCL(w)

	sp = tr.begin("sim.warmup")
	defer tr.end(sp)
	w.StartAll()
	w.RunUntil(groupWarmup)

	publics := w.LivePublics()
	if len(publics) < groupCount {
		return fmt.Errorf("group-stream: only %d public nodes", len(publics))
	}
	leaders := make([]*ppss.Instance, groupCount)
	names := make([]string, groupCount)
	g.members = make([][]*sim.Node, groupCount)
	for i := range leaders {
		names[i] = fmt.Sprintf("group-%d", i)
		inst, err := publics[i].PPSS.CreateGroup(names[i])
		if err != nil {
			return fmt.Errorf("group-stream: create %s: %w", names[i], err)
		}
		leaders[i] = inst
		g.groups = append(g.groups, inst.Group())
		g.members[i] = append(g.members[i], publics[i])
	}

	// Every other node asks to join one random group, retrying as a
	// user re-requesting an invitation would.
	rng := rand.New(rand.NewSource(g.seed ^ 0x6a6f696e))
	var join func(n *sim.Node, gi, attempt int)
	join = func(n *sim.Node, gi, attempt int) {
		accr, entry, err := leaders[gi].Invite(n.ID())
		if err != nil {
			return
		}
		n.PPSS.Join(names[gi], accr, entry, func(_ *ppss.Instance, err error) {
			if err != nil {
				if attempt < 3 {
					join(n, gi, attempt+1)
				}
				return
			}
			g.members[gi] = append(g.members[gi], n)
		})
	}
	start := w.Now()
	k := 0
	for _, n := range w.Nodes {
		if len(n.PPSS.Instances()) > 0 {
			continue // a leader
		}
		n, gi := n, rng.Intn(groupCount)
		w.Schedule(start+time.Duration(k)*groupJoinEvery, func() { join(n, gi, 1) })
		k++
	}
	w.RunFor(time.Duration(k)*groupJoinEvery + groupSettle)

	for _, n := range w.Nodes {
		self := n.ID()
		for _, in := range n.PPSS.Instances() {
			in.OnMessage = func(_ ppss.Entry, p []byte) { g.deliver(self, p, groupSmallBytes, 0) }
		}
		forward := n.WCL.OnReceive
		n.WCL.OnReceive = func(p []byte) {
			if len(p) > 0 && p[0] == streamMagic {
				g.deliver(self, p, groupStreamBytes, 1)
				return
			}
			forward(p)
		}
	}
	return nil
}

// groupPayload builds message id's payload: small messages are
// msgPayload; bulk ones carry streamMagic first.
func groupPayload(id uint64, size int) []byte {
	if size == groupSmallBytes {
		return msgPayload(id, size)
	}
	return append([]byte{streamMagic}, msgPayload(id, size-1)...)
}

func (g *groupRun) deliver(self identity.NodeID, p []byte, size, skip int) {
	id, ok := checkMsg(p[skip:], size-skip)
	if !ok || id >= uint64(len(g.recv)) || g.dst[id] != self {
		g.bad++
		return
	}
	g.recv[id]++
}

func (g *groupRun) measure(tr *tracer) (*phase, error) {
	w := g.w
	sending := time.Duration(g.seconds) * groupVirtualPerSecond
	smalls := int(sending / groupSmallEvery)
	streams := int(sending / groupStreamEvery)
	msgs := smalls + streams
	rng := rand.New(rand.NewSource(g.seed ^ 0x67726f7570))
	g.dst = make([]identity.NodeID, msgs)
	g.recv = make([]int, msgs)
	results := make([]*wcl.Result, msgs)
	isStream := make([]bool, msgs)

	a := snapshot(w)
	w.ResetMeters()
	tr.resetTaps()
	tr.resetWCL()
	ev0 := w.Executed()
	sent0, drop0 := w.NetStats()
	start := w.Now()
	p := &phase{nodes: len(w.Nodes)}

	done, unsent := 0, 0
	send := func(id uint64, due time.Duration, stream bool) {
		isStream[id] = stream
		w.Schedule(due, func() {
			if late := w.Now() - due; late > p.maxLate {
				p.maxLate = late
			}
			gi := rng.Intn(groupCount)
			src := g.members[gi][rng.Intn(len(g.members[gi]))]
			in := src.PPSS.Instance(g.groups[gi])
			var view []ppss.Entry
			if in != nil {
				for _, e := range in.View() {
					view = append(view, e.Val)
				}
			}
			if len(view) == 0 {
				unsent++
				done++
				return
			}
			peer := view[rng.Intn(len(view))]
			g.dst[id] = peer.ID
			cb := func(r wcl.Result) {
				results[id] = &r
				done++
			}
			sp := tr.begin("wcl.send")
			if stream {
				src.WCL.SendStream(peer.Dest(), groupPayload(id, groupStreamBytes), cb)
			} else {
				in.SendCircuit(peer, groupPayload(id, groupSmallBytes), cb)
			}
			tr.end(sp)
		})
	}
	id := uint64(0)
	for i := 0; i < smalls; i++ {
		send(id, start+time.Duration(i)*groupSmallEvery, false)
		id++
	}
	for i := 0; i < streams; i++ {
		send(id, start+time.Duration(i)*groupStreamEvery+groupStreamEvery/2, true)
		id++
	}
	for w.Now() < start+sending {
		p.run(w, time.Second, tr)
	}
	p.loaded = len(p.slices)
	deadline := start + sending + groupDrainMax
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

	ml := msgLayers{msgs: int64(msgs), small: int64(smalls), streams: int64(streams)}
	p.attempted = int64(msgs)
	var streamOK int
	for id, r := range results {
		switch {
		case r == nil && g.dst[id] != identity.Nil:
			p.fail("message %d never resolved", id)
		case g.recv[id] > 1:
			p.fail("message %d delivered %d times", id, g.recv[id])
		case r != nil && r.Outcome != wcl.Failed && g.recv[id] != 1:
			p.fail("message %d acknowledged but delivered %d times", id, g.recv[id])
		}
		if r == nil || r.Outcome == wcl.Failed {
			continue
		}
		p.succeeded++
		if isStream[id] {
			streamOK++
			p.goodBytes += groupStreamBytes
			p.goodTime += r.Elapsed
			continue
		}
		ml.attempts += int64(r.Attempts)
		if r.Outcome == wcl.Success {
			ml.firstTry++
		}
		p.lat = append(p.lat, r.Elapsed)
	}
	if g.bad > 0 {
		p.fail("%d deliveries with wrong bytes or at the wrong node", g.bad)
	}
	if streamOK == 0 {
		p.fail("no stream message completed")
	}
	sizes := make([]int, groupCount)
	for i, m := range g.members {
		sizes[i] = len(m)
	}
	p.extra = append(p.extra, fmt.Sprintf("groups=%v streams=%d/%d unsent=%d fallbacks=%d", sizes, streamOK, streams, unsent, b.fbacks-a.fbacks))
	if tr != nil {
		p.layers = protocolLayers(w, a, b, p, ml, tr)
	}
	return p, nil
}
