package wcl

import (
	"time"

	"whisper/internal/obs"
	"whisper/internal/transport"
)

// The stream layer: how every circuit message travels. SendStream
// splits the message into StreamFragSize fragments, each riding one
// sealed cell (cellStream), governed by a per-message sliding send
// window with cumulative + selective acknowledgements (streamAckMsg).
// The exit reassembles and delivers the complete message exactly once.
// A message that fits one fragment is simply a one-fragment stream.
//
// Reliability is the source keeping each message until the exit's
// stream acknowledgement covers it. A retransmission timer re-sends the
// unacknowledged fragments on the same path in ascending order;
// StreamRetries consecutive rounds without any acked progress declare
// the path broken, and the path's active messages fall back whole to
// one-shot sends (at-least-once across such a catastrophic failure: an
// exit that delivered a message whose acknowledgements were all lost
// will see it again over the one-shot path). Karn's rule applies:
// retransmitted fragments never produce an RTT sample.
//
// Exactly-once at the exit: reassembly state is keyed by (circID,
// streamID), and a delivered message's key stays in a bounded LRU after
// its reassembly state is freed, so a late retransmit is acknowledged
// in full and never delivered twice.
//
// Rotation-drain rule: a message is pinned to the circPath its first
// fragment used and always finishes there. Rotation (and path
// retirement generally) waits for pathDrained — no active message on
// the path. New multi-fragment messages start only on a path that is
// not due for rotation.
//
// Scheduling and backpressure: one-fragment messages start as soon as
// the circuit has an established path, alongside whatever else is in
// flight; while it establishes they queue up to circuitQueueMax, and
// overflow goes one-shot. One multi-fragment message is active per
// path; up to StreamQueueMax further ones queue behind it, and overflow
// is shed immediately with ErrStreamBacklog in Result.Err — bounded
// memory, explicit refusal, never silent unbounded buffering.

// streamRecvMax bounds the exit-side reassembly table (entries beyond
// it evict oldest-first, deterministically).
const streamRecvMax = 256

// deliveredMsgsMax bounds the exit's delivered-message set. A
// retransmit can arrive up to StreamRetries × PathTimeout after the
// first copy; the set must outlive that many newer deliveries.
const deliveredMsgsMax = 4096

// streamDupAckThreshold is how many consecutive acknowledgements must
// report the same hole before it is fast-retransmitted (TCP's
// dup-ack rule: a single report is usually just ack reordering).
const streamDupAckThreshold = 3

// streamSend is the source-side state of one in-flight stream message.
type streamSend struct {
	c    *Circuit
	path *circPath // pinned at activation; the message finishes here

	id      uint64 // per-path stream ID, assigned at activation
	payload []byte
	frags   int

	sent   []bool // fragment ever launched
	acked  []bool
	retx   []bool          // retransmitted at least once (Karn: no RTT sample)
	sentAt []time.Duration // last launch time, for RTT samples

	cum      int // contiguous acked prefix length
	ackedN   int // total acked
	next     int // next never-sent fragment
	inflight int // launched, unacked (window + gauge occupancy)

	rounds   int           // consecutive timer rounds without progress
	progress bool          // acked progress since the last timer round
	fastRetx int           // hole index already fast-retransmitted (-1: none)
	holeAt   int           // hole index currently under observation
	holeSeen int           // consecutive acks that reported holeAt
	srtt     time.Duration // smoothed RTT from unretransmitted samples

	timer    transport.Timer
	start    time.Duration
	finished bool
	done     func(Result)
}

func (s *streamSend) fragData(i int, fragSize int) []byte {
	lo := i * fragSize
	hi := lo + fragSize
	if hi > len(s.payload) {
		hi = len(s.payload)
	}
	return s.payload[lo:hi]
}

// SendStream sends payload over the circuit as a reliably
// acknowledged message, fragmented as needed and delivered in one
// piece at the destination; see the scheduling rules above. Oversized
// payloads are refused with Result.Err = ErrStreamTooLarge, and
// multi-fragment messages past the queue bound with ErrStreamBacklog.
// done (optional) observes the final Result exactly once in every case.
func (c *Circuit) SendStream(payload []byte, done func(Result)) {
	w := c.w
	now := w.rt.Now()
	if c.closed {
		w.sendOneShot(c.dest, payload, now, done)
		return
	}
	nf := (len(payload) + w.cfg.StreamFragSize - 1) / w.cfg.StreamFragSize
	if nf == 0 {
		nf = 1 // an empty message still travels as one fragment
	}
	if nf > maxStreamFrags {
		w.shedStream(c, done, ErrStreamTooLarge)
		return
	}
	if nf > 1 && len(c.streamQ) >= w.cfg.StreamQueueMax {
		w.shedStream(c, done, ErrStreamBacklog)
		return
	}
	c.lastUsed = now
	if c.cur == nil && c.opening == nil {
		w.openPath(c)
	}
	if c.cur == nil && (c.opening == nil || nf == 1 && len(c.queue) >= circuitQueueMax) {
		// Setup failed synchronously (no usable mixes at all), or too
		// many messages already wait for it.
		w.sendOneShot(c.dest, payload, now, done)
		return
	}
	s := &streamSend{
		c:        c,
		payload:  payload,
		frags:    nf,
		sent:     make([]bool, nf),
		acked:    make([]bool, nf),
		retx:     make([]bool, nf),
		sentAt:   make([]time.Duration, nf),
		fastRetx: -1,
		start:    now,
		done:     done,
	}
	w.met.streamsSent.Inc()
	switch p := c.cur; {
	case nf > 1:
		c.streamQ = append(c.streamQ, s)
		w.startStreams(c)
	case p != nil:
		if c.opening == nil && w.needsRotation(p, now) {
			w.met.circuitsRotated.Inc()
			w.openPath(c)
		}
		w.activate(p, s)
	default:
		c.queue = append(c.queue, s)
	}
}

// SendStream is the destination-keyed convenience: it opens (or
// reuses) the circuit to dest and streams payload over it.
// Destinations without a known key fall back to the one-shot engine.
func (w *WCL) SendStream(dest Dest, payload []byte, done func(Result)) {
	if dest.Key == nil {
		w.sendOneShot(dest, payload, w.rt.Now(), done)
		return
	}
	w.OpenCircuit(dest).SendStream(payload, done)
}

// shedStream refuses a SendStream locally (backpressure or size): no
// network traffic, the error travels in Result.Err.
func (w *WCL) shedStream(c *Circuit, done func(Result), err error) {
	w.met.streamsShed.Inc()
	r := Result{Outcome: Failed, Err: err}
	if w.OnResult != nil {
		w.OnResult(c.dest.ID, r)
	}
	if done != nil {
		done(r)
	}
}

// startStreams activates the next queued multi-fragment message on the
// circuit's established path — the message boundary where rotation is
// allowed to fire: a path due for rotation gets its replacement opened
// and the message waits for it (the rotation-drain rule).
func (w *WCL) startStreams(c *Circuit) {
	p := c.cur
	if p == nil || p.closed || len(c.streamQ) == 0 || p.bulkActive() {
		return
	}
	if w.needsRotation(p, w.rt.Now()) {
		if c.opening == nil {
			w.met.circuitsRotated.Inc()
			w.openPath(c)
		}
		return
	}
	s := c.streamQ[0]
	c.streamQ = c.streamQ[1:]
	w.activate(p, s)
}

// activate pins s to p, gives it the path's next stream ID, puts its
// first window on the wire and arms its retransmission timer. Stream
// IDs count per path and restart on every new path, so the IDs a relay
// sees on the cleartext acks link nothing beyond the circuit ID it
// already holds.
func (w *WCL) activate(p *circPath, s *streamSend) {
	p.active = append(p.active, s)
	p.streamSeq++
	s.id = p.streamSeq
	s.path = p
	w.pumpStream(s)
	if !s.finished {
		w.armStreamTimer(s)
	}
}

// bulkActive reports whether a multi-fragment message is active on p.
func (p *circPath) bulkActive() bool {
	for _, s := range p.active {
		if s.frags > 1 {
			return true
		}
	}
	return false
}

// unpin removes s from p's active messages, keeping their order.
func (p *circPath) unpin(s *streamSend) {
	for i, a := range p.active {
		if a == s {
			p.active = append(p.active[:i], p.active[i+1:]...)
			return
		}
	}
}

// pumpStream launches fragments until the window is full or the
// message is fully on the wire.
func (w *WCL) pumpStream(s *streamSend) {
	for s.inflight < w.cfg.StreamWindow && s.next < s.frags {
		i := s.next
		s.next++
		if !w.sendStreamFrag(s, i) {
			return
		}
	}
}

// sendStreamFrag seals and launches fragment i on the stream's pinned
// path. Returns false when the path broke (the stream has already
// fallen back).
func (w *WCL) sendStreamFrag(s *streamSend, i int) bool {
	p := s.path
	f := streamFrag{StreamID: s.id, Frag: uint32(i), FragCount: uint32(s.frags), Data: s.fragData(i, w.cfg.StreamFragSize)}
	if !w.sendCell(p, cellStream, f.encode()) {
		w.breakPath(p)
		return false
	}
	p.cells++
	w.met.streamFragsSent.Inc()
	if !s.sent[i] {
		s.sent[i] = true
		s.inflight++
		w.met.streamWindow.Add(1)
	}
	s.sentAt[i] = w.rt.Now()
	return true
}

// armStreamTimer schedules the stream's retransmission round.
func (w *WCL) armStreamTimer(s *streamSend) {
	s.timer = w.rt.After(w.cfg.PathTimeout, func() {
		s.timer = nil
		if !s.finished {
			w.streamTimerFire(s)
		}
	})
}

// streamTimerFire runs one retransmission round: re-send every
// launched-but-unacked fragment in ascending order, and give the path
// up after StreamRetries consecutive rounds with no acked progress.
func (w *WCL) streamTimerFire(s *streamSend) {
	if s.progress {
		s.rounds = 0
	} else {
		s.rounds++
	}
	s.progress = false
	if s.rounds >= w.cfg.StreamRetries {
		w.breakPath(s.path)
		return
	}
	for i := s.cum; i < s.next; i++ {
		if s.acked[i] {
			continue
		}
		s.retx[i] = true
		w.met.streamRetransmits.Inc()
		if !w.sendStreamFrag(s, i) {
			return
		}
	}
	if !s.finished {
		w.armStreamTimer(s)
	}
}

// handleCircStreamAck applies a stream acknowledgement at the source,
// or relays it backward along the stored reverse routing.
func (w *WCL) handleCircStreamAck(m streamAckMsg) {
	if p := w.circByID[m.CircID]; p != nil {
		for _, s := range p.active {
			if s.id == m.StreamID {
				w.streamAcked(s, m)
				break
			}
		}
		return
	}
	if e := w.relayCirc.get(m.CircID, w.rt.Now()); e != nil {
		w.sendCircBack(e, m.encode())
	}
}

// streamAcked folds one cumulative+selective acknowledgement into the
// send state: newly covered fragments leave the window (sampling RTT
// unless retransmitted — Karn's rule), a reported hole with later
// fragments acked triggers one fast retransmit, and a fully covered
// message finishes.
func (w *WCL) streamAcked(s *streamSend, m streamAckMsg) {
	now := w.rt.Now()
	ackFrag := func(i int) {
		if i >= s.frags || s.acked[i] {
			return
		}
		s.acked[i] = true
		s.ackedN++
		s.progress = true
		if s.sent[i] && s.inflight > 0 {
			s.inflight--
			w.met.streamWindow.Add(-1)
		}
		if !s.retx[i] {
			sample := now - s.sentAt[i]
			w.met.streamRTT.ObserveDuration(sample)
			if s.srtt == 0 {
				s.srtt = sample
			} else {
				s.srtt = (7*s.srtt + sample) / 8
			}
		}
	}
	cum := int(m.Cum)
	if cum > s.frags {
		cum = s.frags
	}
	for i := 0; i < cum; i++ {
		ackFrag(i)
	}
	for k := 0; k < 64; k++ {
		if m.Bits&(1<<uint(k)) != 0 {
			ackFrag(cum + 1 + k)
		}
	}
	for s.cum < s.frags && s.acked[s.cum] {
		s.cum++
	}
	if s.cum >= s.frags {
		w.finishStream(s)
		return
	}
	// Fast retransmit: the receiver keeps reporting a hole at s.cum
	// while later fragments arrive. The network reorders datagrams
	// freely, so a hole alone is not evidence of loss — require both
	// streamDupAckThreshold consecutive reports AND the hole's launch
	// to be older than 1.5x the smoothed RTT (RACK-style) before
	// re-sending it ahead of the timer round.
	if hole := s.cum; hole < s.next && s.ackedN > hole && s.fastRetx != hole {
		if hole != s.holeAt {
			s.holeAt, s.holeSeen = hole, 0
		}
		s.holeSeen++
		if s.holeSeen >= streamDupAckThreshold && s.srtt > 0 && now-s.sentAt[hole] > s.srtt*3/2 {
			s.fastRetx = hole
			s.retx[hole] = true
			w.met.streamRetransmits.Inc()
			if !w.sendStreamFrag(s, hole) {
				return
			}
		}
	}
	w.pumpStream(s)
}

// finishStream completes a fully acknowledged message: the Result
// fires, the path unpins it (a closing path retires once drained), and
// the next queued multi-fragment message starts.
func (w *WCL) finishStream(s *streamSend) {
	if s.finished {
		return
	}
	p := s.path
	w.endStream(s)
	r := Result{Outcome: Success, Attempts: 1, Elapsed: w.rt.Now() - s.start}
	w.met.circuitMS.ObserveDuration(r.Elapsed)
	if w.OnResult != nil {
		w.OnResult(s.c.dest.ID, r)
	}
	if s.done != nil {
		s.done(r)
	}
	if p.closing && !p.closed && w.pathDrained(p) {
		w.closePath(p, true)
	}
	if !s.c.closed {
		w.startStreams(s.c)
	}
}

// streamFallback re-sends the whole message through the one-shot
// engine — the terminal path for a message whose circuit cannot carry
// it (path broken, setup or rotation failed, circuit closed). done
// fires from the one-shot machinery, with Elapsed measured from the
// original send.
func (w *WCL) streamFallback(s *streamSend) {
	if s.finished {
		return
	}
	w.endStream(s)
	if s.frags == 1 {
		w.met.cellFallbacks.Inc()
	} else {
		w.met.streamFallbacks.Inc()
	}
	w.sendOneShot(s.c.dest, s.payload, s.start, s.done)
}

// endStream retires s from the send side: timer cancelled, unpinned
// from its path, window gauge released.
func (w *WCL) endStream(s *streamSend) {
	s.finished = true
	if s.timer != nil {
		s.timer.Cancel()
		s.timer = nil
	}
	if s.path != nil {
		s.path.unpin(s)
	}
	w.met.streamWindow.Add(-int64(s.inflight))
	s.inflight = 0
}

// pathDrained reports whether p carries no active message: the
// condition rotation and retirement wait for, so a message never
// splits across circuits (the rotation-drain rule).
func (w *WCL) pathDrained(p *circPath) bool {
	return len(p.active) == 0
}

// ─── Exit-side reassembly ───

// streamKey identifies one stream message's reassembly state.
type streamKey struct{ circ, stream uint64 }

// streamRecvState reassembles one stream message at the exit. It is
// freed on delivery; the message's key then moves to the delivered
// set.
type streamRecvState struct {
	frags    [][]byte
	have     []bool
	cum      int // contiguous received prefix length
	haveN    int
	total    int
	lastSeen time.Duration
}

// handleStreamFrag processes one stream-fragment cell at the exit:
// collect, acknowledge the current cumulative+selective state, and
// deliver the reassembled message exactly once when complete. A
// fragment of an already delivered message is answered with a full
// acknowledgement and never delivered again.
func (w *WCL) handleStreamFrag(e *relayCircuit, f streamFrag) {
	now := w.rt.Now()
	k := streamKey{e.id, f.StreamID}
	st := w.streamRecv[k]
	if st == nil {
		if w.deliveredMsgs.Contains(k) {
			w.met.dupStreamFrags.Inc()
			ack := streamAckMsg{CircID: e.id, StreamID: f.StreamID, Cum: f.FragCount}
			w.sendCircBack(e, ack.encode())
			return
		}
		w.pruneStreamRecv(now)
		st = &streamRecvState{
			frags: make([][]byte, f.FragCount),
			have:  make([]bool, f.FragCount),
			total: int(f.FragCount),
		}
		w.streamRecv[k] = st
	}
	st.lastSeen = now
	i := int(f.Frag)
	if int(f.FragCount) != st.total || i >= st.total {
		// Inconsistent with the state this stream established — a
		// corrupt or forged fragment. Drop without acknowledging.
		w.met.peelErrors.Inc()
		return
	}
	if st.have[i] {
		w.met.dupStreamFrags.Inc()
		w.sendStreamAck(e, f.StreamID, st)
		return
	}
	st.have[i] = true
	st.frags[i] = append([]byte(nil), f.Data...) // f.Data aliases the cell buffer
	st.haveN++
	w.met.streamFragsRecv.Inc()
	for st.cum < st.total && st.have[st.cum] {
		st.cum++
	}
	if st.haveN == st.total {
		delete(w.streamRecv, k)
		w.deliveredMsgs.Add(k)
		size := 0
		for _, fr := range st.frags {
			size += len(fr)
		}
		buf := make([]byte, 0, size)
		for _, fr := range st.frags {
			buf = append(buf, fr...)
		}
		w.met.streamsDelivered.Inc()
		w.met.streamBytes.Observe(float64(size))
		w.Trace.Emit(obs.KindCellDeliver, now, 0, size, e.id)
		if w.OnReceive != nil {
			w.OnReceive(buf)
		}
	}
	w.sendStreamAck(e, f.StreamID, st)
}

// sendStreamAck emits the stream's current cumulative + selective
// acknowledgement backward along the circuit.
func (w *WCL) sendStreamAck(e *relayCircuit, streamID uint64, st *streamRecvState) {
	cum := st.cum
	var bits uint64
	for k := 0; k < 64; k++ {
		i := cum + 1 + k
		if i >= st.total {
			break
		}
		if st.have[i] {
			bits |= 1 << uint(k)
		}
	}
	m := streamAckMsg{CircID: e.id, StreamID: streamID, Cum: uint32(cum), Bits: bits}
	w.sendCircBack(e, m.encode())
}

// pruneStreamRecv expires stale reassembly state and, past the bound,
// evicts oldest-first with a deterministic tie-break — reassembly
// never outlives the relay circuit entry (CircuitTTL) and never grows
// past streamRecvMax entries.
func (w *WCL) pruneStreamRecv(now time.Duration) {
	for k, st := range w.streamRecv {
		if now-st.lastSeen > w.cfg.CircuitTTL {
			delete(w.streamRecv, k)
		}
	}
	for len(w.streamRecv) >= streamRecvMax {
		var victim streamKey
		first := true
		var oldest time.Duration
		for k, st := range w.streamRecv {
			if first || st.lastSeen < oldest ||
				(st.lastSeen == oldest && (k.circ < victim.circ || (k.circ == victim.circ && k.stream < victim.stream))) {
				first = false
				oldest = st.lastSeen
				victim = k
			}
		}
		delete(w.streamRecv, victim)
	}
}

// dropStreamRecv forgets all reassembly state of one circuit (its
// relay entry was torn down).
func (w *WCL) dropStreamRecv(circID uint64) {
	for k := range w.streamRecv {
		if k.circ == circID {
			delete(w.streamRecv, k)
		}
	}
}
