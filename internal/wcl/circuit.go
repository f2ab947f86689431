package wcl

import (
	"container/list"
	"fmt"
	"time"

	"whisper/internal/crypt"
	"whisper/internal/identity"
	"whisper/internal/nylon"
	"whisper/internal/obs"
	"whisper/internal/transport"
)

// The circuit layer. A Circuit amortizes the onion cost of §III-A over
// a series of messages to one destination: establishment runs once
// over the one-shot machinery (path selection, RSA per hop) and
// distributes HKDF-derived per-hop symmetric keys via the setup onion;
// after that every message travels as stream fragment cells (stream.go)
// — one AEAD layer per hop, zero RSA anywhere on the path. Every
// circuit message, one fragment or many, has the same reliability: the
// source keeps it until the exit's stream acknowledgement covers it.
//
// Source-side state machine, per underlying path:
//
//	opening ──ack──▶ established ──rotation/idle/Close──▶ closed
//	   │                  │
//	   └─attempts──▶ failed (queued messages fall back to one-shot)
//	                      └─StreamRetries silent rounds──▶ broken
//	                         (active messages fall back to one-shot)
//
// A Circuit outlives its paths: rotation (max age or max cells) opens
// a replacement path while the old one keeps carrying traffic, then
// retires it once its active messages finish. Keepalive pings — sealed
// cells nobody acknowledges — keep the relay tables of quiet circuits
// warm; a circuit idle for longer than CircuitIdle is torn down
// entirely.
//
// Relay-side state is a bounded LRU table keyed by circuit ID: the
// hop's cell key plus forward/backward routing captured at setup.
// Entries expire CircuitTTL after last use and the oldest entry is
// evicted beyond CircuitTableMax — a lost entry only degrades the
// source to one-shot fallback.

// CircuitState labels the observable state of a Circuit.
type CircuitState uint8

const (
	// CircuitOpening: setup in flight, no established path yet.
	CircuitOpening CircuitState = iota
	// CircuitEstablished: a path is live; sends travel as stream cells.
	CircuitEstablished
	// CircuitRotating: a replacement path is being established while
	// the current one still carries traffic.
	CircuitRotating
	// CircuitClosed: torn down; the next Send to this destination
	// starts over.
	CircuitClosed
)

func (s CircuitState) String() string {
	switch s {
	case CircuitOpening:
		return "opening"
	case CircuitEstablished:
		return "established"
	case CircuitRotating:
		return "rotating"
	case CircuitClosed:
		return "closed"
	default:
		return fmt.Sprintf("CircuitState(%d)", uint8(s))
	}
}

// circuitQueueMax bounds one-fragment messages buffered while a
// circuit establishes; overflow falls back to one-shot sends.
const circuitQueueMax = 128

// circPath is one established (or establishing) onion path of a
// circuit: its wire identifier, the per-hop cell keys, and the
// messages in flight on it.
type circPath struct {
	c *Circuit

	id    uint64
	keys  [][]byte
	first nylon.Descriptor // first mix A

	established   bool
	closing       bool // retired by rotation, draining active messages
	closed        bool
	createdAt     time.Duration
	establishedAt time.Duration

	cells     int           // fragment cells sent (rotation budget)
	active    []*streamSend // messages pinned to this path, in activation order
	streamSeq uint64        // last stream ID issued on this path

	// setup state (shares the one-shot attempt budget semantics)
	attempts int
	triedA   map[identity.NodeID]bool
	triedB   map[identity.NodeID]bool
	timer    transport.Timer
}

// Circuit is a reusable confidential session to one destination. It is
// obtained from OpenCircuit (or transparently through SendStream) and
// must only be used from the node's
// dispatch context, like every other WCL entry point.
type Circuit struct {
	w    *WCL
	dest Dest

	cur     *circPath // established path carrying traffic
	old     *circPath // retired path draining its active messages
	opening *circPath // replacement or initial path being set up

	queue    []*streamSend // one-fragment messages awaiting establishment
	streamQ  []*streamSend // multi-fragment messages behind the active one
	lastUsed time.Duration // last application send
	lastSent time.Duration // last cell of any kind (keepalive decision)
	keep     transport.Timer
	closed   bool
}

// OpenCircuit returns the circuit to dest, creating it (idle, not yet
// establishing) if none exists. An existing circuit's destination info
// is refreshed, so callers can pass ever-fresher helper sets.
func (w *WCL) OpenCircuit(dest Dest) *Circuit {
	if c, ok := w.circuits[dest.ID]; ok && !c.closed {
		if dest.Key != nil {
			c.dest = dest
		}
		return c
	}
	c := &Circuit{w: w, dest: dest, lastUsed: w.rt.Now()}
	w.circuits[dest.ID] = c
	return c
}

// HasCircuit reports whether an established circuit to id exists —
// what the PPSS checks to transparently prefer a circuit.
func (w *WCL) HasCircuit(id identity.NodeID) bool {
	c, ok := w.circuits[id]
	return ok && !c.closed && c.cur != nil
}

// State reports the circuit's current lifecycle state.
func (c *Circuit) State() CircuitState {
	switch {
	case c.closed:
		return CircuitClosed
	case c.cur != nil && c.opening != nil:
		return CircuitRotating
	case c.cur != nil:
		return CircuitEstablished
	default:
		return CircuitOpening
	}
}

// Dest returns the destination this circuit serves.
func (c *Circuit) Dest() Dest { return c.dest }

// Close tears the circuit down: active and queued messages fall back
// to one-shot sends, relays are told to drop their entries, and the
// handle is forgotten so a later send starts fresh.
func (c *Circuit) Close() {
	w := c.w
	if c.closed {
		return
	}
	if c.opening != nil {
		w.closePath(c.opening, false)
	}
	if c.old != nil {
		w.closePath(c.old, true)
	}
	if c.cur != nil {
		w.closePath(c.cur, true)
	}
	c.fallBackQueued()
	w.dropCircuit(c)
}

// fallBackQueued sends every message still waiting for a path through
// the one-shot engine: the one-fragment queue first, then the
// multi-fragment one, each in send order.
func (c *Circuit) fallBackQueued() {
	q, sq := c.queue, c.streamQ
	c.queue, c.streamQ = nil, nil
	for _, s := range q {
		c.w.streamFallback(s)
	}
	for _, s := range sq {
		c.w.streamFallback(s)
	}
}

func (w *WCL) needsRotation(p *circPath, now time.Duration) bool {
	return p.cells >= w.cfg.CircuitMaxCells || now-p.establishedAt >= w.cfg.CircuitMaxAge
}

// openPath starts establishing a (new or replacement) path for c.
func (w *WCL) openPath(c *Circuit) {
	p := &circPath{
		c:         c,
		createdAt: w.rt.Now(),
		triedA:    make(map[identity.NodeID]bool),
		triedB:    make(map[identity.NodeID]bool),
	}
	c.opening = p
	w.met.circuitsOpened.Inc()
	w.attemptSetup(p)
}

// attemptSetup launches one setup onion for p. Every attempt draws a
// fresh circuit ID and session secret: the keys are bound to the
// onion, so a late acknowledgement of an earlier attempt must not be
// confused with the current one (stale attempts' relay entries simply
// expire).
func (w *WCL) attemptSetup(p *circPath) {
	c := p.c
	a, middles, b, ok := w.pickMixes(c.dest, p.triedA, p.triedB)
	if !ok {
		w.failSetup(p)
		return
	}
	p.attempts++
	p.triedA[a.ID] = true
	p.triedB[b.ID] = true

	secret, err := crypt.NewCircuitSecret()
	if err != nil {
		w.failSetup(p)
		return
	}
	keys, err := crypt.DeriveCircuitKeys(secret, w.cfg.Mixes+1)
	if err != nil {
		w.failSetup(p)
		return
	}

	aKey := w.node.Keys().Get(a.ID)
	dAddr := encodeAddrID(c.dest.ID)
	if !c.dest.Endpoint.IsZero() {
		dAddr = encodeAddrEndpoint(c.dest.Endpoint, c.dest.ID)
	}
	hops := make([]crypt.CircuitHop, 0, w.cfg.Mixes+1)
	hops = append(hops, crypt.CircuitHop{Pub: aKey, Key: keys[0]})
	for i, m := range middles {
		hops = append(hops, crypt.CircuitHop{Pub: m.Key, Addr: encodeAddrEndpoint(m.Endpoint, m.ID), Key: keys[i+1]})
	}
	hops = append(hops, crypt.CircuitHop{Pub: b.Key, Addr: encodeAddrEndpoint(b.Endpoint, b.ID), Key: keys[len(middles)+1]})
	hops = append(hops, crypt.CircuitHop{Pub: c.dest.Key, Addr: dAddr, Key: keys[len(keys)-1]})

	delete(w.circByID, p.id)
	p.id = w.newCircID()
	p.keys = keys
	p.first = a
	w.circByID[p.id] = p

	start := time.Now()
	onion, err := crypt.BuildCircuitOnion(w.cpu, hops, nil)
	buildTime := time.Since(start)
	w.met.buildMS.ObserveDuration(buildTime)
	w.Trace.Emit(obs.KindSend, w.rt.Now(), buildTime, len(onion), p.id)
	if err != nil {
		w.retrySetup(p)
		return
	}
	via, routable := w.node.RouteTo(a)
	if !routable {
		w.retrySetup(p)
		return
	}
	msg := circSetupMsg{CircID: p.id, From: w.node.ID(), ViaPath: via, Onion: onion}
	w.node.SendAppVia(a, via, msg.encode())
	p.timer = w.rt.After(w.cfg.PathTimeout, func() {
		if w.circByID[p.id] == p && !p.established {
			w.retrySetup(p)
		}
	})
}

// newCircID draws a fresh circuit identifier (zero reserved, in-flight
// identifiers skipped).
func (w *WCL) newCircID() uint64 {
	for {
		id := w.rt.Rand().Uint64()
		if id == 0 {
			continue
		}
		if _, used := w.circByID[id]; used {
			continue
		}
		return id
	}
}

// retrySetup tries the next setup alternative or gives up.
func (w *WCL) retrySetup(p *circPath) {
	if p.timer != nil {
		p.timer.Cancel()
		p.timer = nil
	}
	if p.attempts >= w.cfg.MaxAttempts {
		w.failSetup(p)
		return
	}
	w.Trace.Emit(obs.KindRetry, w.rt.Now(), 0, 0, p.id)
	w.attemptSetup(p)
}

// failSetup abandons establishment: queued messages fall back to the
// one-shot engine, and the circuit handle is dropped unless another
// path still serves it (a failed rotation keeps the old path working).
func (w *WCL) failSetup(p *circPath) {
	w.met.circuitsFailed.Inc()
	c := p.c
	w.closePath(p, false)
	c.fallBackQueued()
	if c.cur == nil && c.old == nil && c.opening == nil {
		w.dropCircuit(c)
	}
}

// establish completes the handshake for p after the exit's
// acknowledgement made it back.
func (w *WCL) establish(p *circPath) {
	if p.established || p.closed {
		return
	}
	c := p.c
	if c.closed {
		return
	}
	p.established = true
	p.establishedAt = w.rt.Now()
	if p.timer != nil {
		p.timer.Cancel()
		p.timer = nil
	}
	w.met.circuitsEstablished.Inc()
	w.met.establishMS.ObserveDuration(p.establishedAt - p.createdAt)
	w.met.circuitsOpen.Add(1)
	if c.opening == p {
		c.opening = nil
	}
	if old := c.cur; old != nil && old != p {
		// Rotation complete: retire the old path once every message
		// pinned to it has finished (immediately when none remains). A
		// message never splits across circuits: the exit reassembles
		// and deduplicates per (circID, streamID).
		if w.pathDrained(old) {
			w.closePath(old, true)
		} else {
			old.closing = true
			c.old = old
		}
	}
	c.cur = p
	q := c.queue
	c.queue = nil
	for _, s := range q {
		if c.cur != p {
			// The path broke while flushing; the remaining messages
			// take the one-shot road.
			w.streamFallback(s)
			continue
		}
		w.activate(p, s)
	}
	w.startStreams(c)
	if c.keep == nil {
		c.armKeepalive()
	}
}

// sendCell seals one cell of type typ for p and launches it towards
// the first mix. It reports false when p cannot carry it: the seal
// failed or the first hop went cold.
func (w *WCL) sendCell(p *circPath, typ uint8, body []byte) bool {
	start := time.Now()
	sealed, err := crypt.SealCell(w.cpu, p.keys, encodeCellPayload(typ, body))
	sealDur := time.Since(start)
	if err != nil {
		return false
	}
	via, ok := w.node.RouteTo(p.first)
	if !ok {
		return false
	}
	w.met.cellsSent.Inc()
	w.Trace.Emit(obs.KindCellSend, w.rt.Now(), sealDur, len(sealed), p.id)
	msg := circDataMsg{CircID: p.id, Cell: sealed}
	w.node.SendAppVia(p.first, via, msg.encode())
	p.c.lastSent = w.rt.Now()
	return true
}

// breakPath tears down a path that evidently cannot carry traffic: its
// active messages fall back to one-shot sends and, when multi-fragment
// messages still wait behind them, a replacement path starts
// establishing.
func (w *WCL) breakPath(p *circPath) {
	c := p.c
	w.closePath(p, false)
	if !c.closed && c.cur == nil && c.opening == nil && len(c.streamQ) > 0 {
		w.openPath(c)
	}
}

// closePath tears one path down. sendClose announces the teardown
// forward so relays drop their entries early (skipped for broken paths
// — the entries expire on their own). Idempotent.
func (w *WCL) closePath(p *circPath, sendClose bool) {
	if p.closed {
		return
	}
	p.closed = true
	if w.circByID[p.id] == p {
		delete(w.circByID, p.id)
	}
	if p.timer != nil {
		p.timer.Cancel()
		p.timer = nil
	}
	// Active messages fall back in activation order, which for
	// one-fragment messages is the order the application sent them.
	active := p.active
	p.active = nil
	for _, s := range active {
		w.streamFallback(s)
	}
	if p.established {
		w.met.circuitsOpen.Add(-1)
		w.met.circuitsClosed.Inc()
		if sendClose {
			if via, ok := w.node.RouteTo(p.first); ok {
				w.node.SendAppVia(p.first, via, encodeCircClose(p.id))
			}
		}
	}
	c := p.c
	if c.cur == p {
		c.cur = nil
	}
	if c.old == p {
		c.old = nil
	}
	if c.opening == p {
		c.opening = nil
	}
}

// dropCircuit forgets the circuit handle entirely.
func (w *WCL) dropCircuit(c *Circuit) {
	if c.closed {
		return
	}
	c.closed = true
	if c.keep != nil {
		c.keep.Cancel()
		c.keep = nil
	}
	if w.circuits[c.dest.ID] == c {
		delete(w.circuits, c.dest.ID)
	}
}

// armKeepalive schedules the circuit's periodic self-check: tear down
// when idle, ping when quiet, otherwise just stay armed.
func (c *Circuit) armKeepalive() {
	w := c.w
	c.keep = w.rt.After(w.cfg.CircuitKeepalive, func() {
		c.keep = nil
		if c.closed {
			return
		}
		now := w.rt.Now()
		if now-c.lastUsed >= w.cfg.CircuitIdle {
			c.Close()
			return
		}
		// A ping is never acknowledged: relays refresh their entries
		// as it passes and the exit drops it. A broken path is found by
		// the retransmit rounds of the next message it carries.
		if p := c.cur; p != nil && now-c.lastSent >= w.cfg.CircuitKeepalive {
			w.met.keepalives.Inc()
			if !w.sendCell(p, cellPing, nil) {
				w.breakPath(p)
			}
		}
		c.armKeepalive()
	})
}

// ─── Message handlers (source and relay roles share the node) ───

// handleCircAck completes establishment at the source, or relays the
// acknowledgement backward along the stored reverse routing.
func (w *WCL) handleCircAck(circID uint64) {
	if p := w.circByID[circID]; p != nil {
		w.establish(p)
		return
	}
	if e := w.relayCirc.get(circID, w.rt.Now()); e != nil {
		w.sendCircBack(e, encodeCircAck(circID))
	}
}

// handleCircSetup installs a relay (or exit) circuit entry from a
// setup onion and passes the rest of the onion along.
func (w *WCL) handleCircSetup(src transport.Endpoint, m *circSetupMsg) {
	if m.CircID == 0 {
		return
	}
	// An entry already installed under this ID means a duplicate (or
	// replay): the exit re-acknowledges — its ack may have been lost —
	// everyone else stays silent rather than re-forwarding setup state.
	if e := w.relayCirc.get(m.CircID, w.rt.Now()); e != nil {
		w.met.dupForwards.Inc()
		if e.exit {
			w.sendCircBack(e, encodeCircAck(m.CircID))
		}
		return
	}
	if w.seenForwards.Add(m.CircID ^ fnvSum(m.Onion)) {
		w.met.dupForwards.Inc()
		return
	}
	start := time.Now()
	key, next, inner, exit, err := crypt.PeelCircuit(w.cpu, w.node.Identity().Key, m.Onion)
	peelTime := time.Since(start)
	w.met.peelMS.ObserveDuration(peelTime)
	w.Trace.Emit(obs.KindPeel, w.rt.Now(), peelTime, len(m.Onion), m.CircID)
	if err != nil {
		w.met.peelErrors.Inc()
		return
	}
	w.met.forwardsPeeled.Inc()
	e := &relayCircuit{
		id:         m.CircID,
		key:        key,
		prevFrom:   m.From,
		prevVia:    reverseIDs(m.ViaPath),
		prevDirect: src,
		exit:       exit,
	}
	if exit {
		w.relayCirc.put(e, w.rt.Now())
		w.sendCircBack(e, encodeCircAck(m.CircID))
		return
	}
	addr, err := decodeHopAddr(next)
	if err != nil {
		w.met.peelErrors.Inc()
		return
	}
	fwd := circSetupMsg{CircID: m.CircID, From: w.node.ID(), Onion: inner}
	switch addr.kind {
	case addrByEndpoint:
		e.nextKind = addrByEndpoint
		e.nextEp = addr.ep
		w.relayCirc.put(e, w.rt.Now())
		w.node.SendAppDirect(addr.ep, fwd.encode())
		w.Trace.Emit(obs.KindForward, w.rt.Now(), 0, len(inner), m.CircID)
	case addrByID:
		d, via, ok := w.routeToID(addr.id)
		if !ok {
			w.met.dropNoContact.Inc()
			return
		}
		e.nextKind = addrByID
		e.nextID = addr.id
		w.relayCirc.put(e, w.rt.Now())
		fwd.ViaPath = via
		w.node.SendAppVia(d, via, fwd.encode())
		w.Trace.Emit(obs.KindForward, w.rt.Now(), 0, len(inner), m.CircID)
	}
}

// sendCircBack routes a backward circuit message (setup ack, stream
// ack) along the reverse routing captured at setup.
func (w *WCL) sendCircBack(e *relayCircuit, payload []byte) {
	w.Trace.Emit(obs.KindAck, w.rt.Now(), 0, 0, e.id)
	if len(e.prevVia) == 0 {
		w.node.SendAppDirect(e.prevDirect, payload)
		return
	}
	w.node.SendAppVia(nylon.Descriptor{ID: e.prevFrom}, e.prevVia, payload)
}

// handleCircData opens one cell layer: relays pass the cell along, the
// exit hands stream fragments to reassembly and drops keepalive pings.
func (w *WCL) handleCircData(m *circDataMsg) {
	e := w.relayCirc.get(m.CircID, w.rt.Now())
	if e == nil {
		w.met.cellDrops.Inc()
		return
	}
	start := time.Now()
	pt, err := crypt.OpenSym(w.cpu, e.key, m.Cell)
	dur := time.Since(start)
	if err != nil {
		w.met.peelErrors.Inc()
		return
	}
	if e.exit {
		typ, body, ok := decodeCellPayload(pt)
		if !ok || (typ != cellStream && typ != cellPing) {
			w.met.peelErrors.Inc()
			return
		}
		if typ == cellPing {
			return
		}
		f, err := decodeStreamFrag(body)
		if err != nil {
			w.met.peelErrors.Inc()
			return
		}
		w.handleStreamFrag(e, f)
		return
	}
	fwd := circDataMsg{CircID: m.CircID, Cell: pt}
	switch e.nextKind {
	case addrByEndpoint:
		w.node.SendAppDirect(e.nextEp, fwd.encode())
	case addrByID:
		d, via, ok := w.routeToID(e.nextID)
		if !ok {
			w.met.dropNoContact.Inc()
			return
		}
		w.node.SendAppVia(d, via, fwd.encode())
	default:
		return
	}
	w.met.cellsForwarded.Inc()
	w.Trace.Emit(obs.KindCellForward, w.rt.Now(), dur, len(pt), m.CircID)
}

// handleCircClose drops the relay entry and passes the teardown
// forward. Unauthenticated like every WCL datagram: a forged close
// only degrades the source to one-shot fallback.
func (w *WCL) handleCircClose(circID uint64) {
	e := w.relayCirc.remove(circID)
	if e == nil {
		return
	}
	if e.exit {
		w.dropStreamRecv(circID)
		return
	}
	switch e.nextKind {
	case addrByEndpoint:
		w.node.SendAppDirect(e.nextEp, encodeCircClose(circID))
	case addrByID:
		if d, via, ok := w.routeToID(e.nextID); ok {
			w.node.SendAppVia(d, via, encodeCircClose(circID))
		}
	}
}

// ─── Relay-side circuit table ───

// relayCircuit is one hop's state for a circuit passing through it.
type relayCircuit struct {
	id  uint64
	key []byte // this hop's cell key

	// backward routing (towards the source), captured at setup
	prevFrom   identity.NodeID
	prevVia    []identity.NodeID
	prevDirect transport.Endpoint

	// forward routing (towards the exit)
	exit     bool
	nextKind uint8
	nextEp   transport.Endpoint
	nextID   identity.NodeID

	lastUsed time.Duration
	elem     *list.Element
}

// circTable is the bounded relay-side circuit table: LRU-evicted past
// cap, TTL-expired past ttl since last use. The gauge tracks its size.
type circTable struct {
	cap   int
	ttl   time.Duration
	ll    *list.List // front = most recently used
	m     map[uint64]*relayCircuit
	gauge *obs.Gauge
}

func newCircTable(cap int, ttl time.Duration, gauge *obs.Gauge) *circTable {
	return &circTable{cap: cap, ttl: ttl, ll: list.New(), m: make(map[uint64]*relayCircuit), gauge: gauge}
}

// get returns the live entry for id, refreshing its recency; expired
// entries are dropped on access.
func (t *circTable) get(id uint64, now time.Duration) *relayCircuit {
	e := t.m[id]
	if e == nil {
		return nil
	}
	if now-e.lastUsed > t.ttl {
		t.drop(e)
		return nil
	}
	e.lastUsed = now
	t.ll.MoveToFront(e.elem)
	return e
}

// put installs an entry, pruning expired tail entries and evicting the
// least recently used one past the bound.
func (t *circTable) put(e *relayCircuit, now time.Duration) {
	if old := t.m[e.id]; old != nil {
		t.drop(old)
	}
	for back := t.ll.Back(); back != nil; back = t.ll.Back() {
		oldest := back.Value.(*relayCircuit)
		if now-oldest.lastUsed <= t.ttl {
			break
		}
		t.drop(oldest)
	}
	e.lastUsed = now
	e.elem = t.ll.PushFront(e)
	t.m[e.id] = e
	if len(t.m) > t.cap {
		t.drop(t.ll.Back().Value.(*relayCircuit))
	}
	t.gauge.Set(int64(len(t.m)))
}

// remove deletes and returns the entry for id, if present.
func (t *circTable) remove(id uint64) *relayCircuit {
	e := t.m[id]
	if e != nil {
		t.drop(e)
	}
	return e
}

func (t *circTable) drop(e *relayCircuit) {
	delete(t.m, e.id)
	t.ll.Remove(e.elem)
	t.gauge.Set(int64(len(t.m)))
}

func (t *circTable) size() int { return len(t.m) }
