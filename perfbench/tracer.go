package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"whisper/internal/netem"
	"whisper/internal/nylon"
	"whisper/internal/obs"
	"whisper/internal/sim"
)

// tracer is the benchmark's tracing state for one traced run: spans
// around the benchmark's own calls into each layer, an obs registry
// the world's instruments register under, per-shard network taps that
// count bytes by message class, and a WCL trace collector. Every
// method is a no-op on a nil tracer, so untraced code paths call them
// unconditionally.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int // handles of the spans currently open, innermost last
	reg    *obs.Registry
	// taps holds one byte counter per shard network; a shard's tap is
	// only touched by the worker running that shard.
	taps [][numClasses]uint64
	wcl  wclEvents
}

// span is one timed call, in wall time since the tracer was created.
// Parent is the index+1 of the enclosing span (0: none).
type span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), reg: obs.NewRegistry()}
}

// begin opens a span inside the innermost open one and returns its
// handle (index+1; 0 on a nil tracer).
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Since(t.origin)})
	t.open = append(t.open, len(t.spans))
	return len(t.spans)
}

// end closes the span with handle h, which must be the innermost open
// one.
func (t *tracer) end(h int) {
	if t == nil || h == 0 {
		return
	}
	t.spans[h-1].End = time.Since(t.origin)
	t.open = t.open[:len(t.open)-1]
}

// scope is the obs scope worlds register under (nil when untraced).
func (t *tracer) scope() *obs.Scope {
	if t == nil {
		return nil
	}
	return t.reg.Scope()
}

// total sums the durations of all spans with the given name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	if t == nil {
		return 0
	}
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return d
}

// summary prints per-name span counts, total and self time (a span's
// duration minus what its children cover).
func (t *tracer) summary(out io.Writer) {
	if t == nil {
		return
	}
	type agg struct {
		n           int
		total, self time.Duration
	}
	by := map[string]*agg{}
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent-1] += s.End - s.Start
		}
	}
	var names []string
	for i, s := range t.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		a.total += s.End - s.Start
		a.self += s.End - s.Start - child[i]
	}
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(out, "span: %-22s count=%-6d total=%.3fs self=%.3fs\n", n, a.n, a.total.Seconds(), a.self.Seconds())
	}
}

// write stores the spans, and the cross-node rollup of the obs registry
// the world's instruments registered under, as JSON files under
// .bench_build/ in the working directory.
func (t *tracer) write(out io.Writer, tag string) error {
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	spans := filepath.Join(dir, "spans-"+tag+".json")
	if err := os.WriteFile(spans, data, 0o644); err != nil {
		return err
	}
	metrics := filepath.Join(dir, "metrics-"+tag+".json")
	if err := t.reg.WriteRollupJSON(metrics, "node"); err != nil {
		return err
	}
	fmt.Fprintf(out, "trace: spans in %s, obs rollup in %s\n", spans, metrics)
	return nil
}

// Message classes the network taps tell apart by the leading tag bytes
// of a datagram (relayed datagrams are classified by what they carry).
// PPSS traffic and stream fragments travel inside sealed onions and
// circuit cells, so on the wire they count under wcl-oneshot and
// circuit; the stream class holds the cleartext stream acknowledgements.
const (
	classNylon = iota
	classKeyss
	classOneshot
	classCircuit
	classStream
	classOther
	numClasses
)

var classNames = [numClasses]string{"nylon", "keyss", "wcl-oneshot", "circuit", "stream", "other"}

// Wire tags, mirrored from the message definitions of the nylon and wcl
// packages (nylon/messages.go, wcl/messages.go).
const (
	tagNylonRelay  = 3
	tagKeyReq      = 9
	tagKeyResp     = 10
	tagWCLAck      = 2
	tagCircSetup   = 3
	tagCircClose   = 7
	tagCircStrmAck = 8
)

// classify returns the class of a datagram payload.
func classify(p []byte) int {
	for len(p) > 0 && p[0] == tagNylonRelay {
		// relay: tag, u8 path length, path, u64 final, u32 length, inner.
		if len(p) < 2 {
			return classOther
		}
		off := 2 + 8*int(p[1]) + 8 + 4
		if len(p) < off {
			return classOther
		}
		p = p[off:]
	}
	switch {
	case len(p) == 0:
		return classOther
	case p[0] == tagKeyReq || p[0] == tagKeyResp:
		return classKeyss
	case p[0] == nylon.MsgApp:
		if len(p) < 2 {
			return classOther
		}
		switch t := p[1]; {
		case t >= 1 && t <= tagWCLAck:
			return classOneshot
		case t >= tagCircSetup && t <= tagCircClose:
			return classCircuit
		case t == tagCircStrmAck:
			return classStream
		}
		return classOther
	case p[0] < nylon.MsgApp:
		return classNylon
	}
	return classOther
}

// tapWorld installs a counting tap on every network of w.
func (t *tracer) tapWorld(w *sim.World) {
	if t == nil {
		return
	}
	nets := []*netem.Network{w.Net}
	if w.Sharded() {
		nets = nets[:0]
		for i := 0; i < w.Opts.Shards; i++ {
			nets = append(nets, w.Fabric().Net(i))
		}
	}
	t.taps = make([][numClasses]uint64, len(nets))
	for i, n := range nets {
		c := &t.taps[i]
		n.SetTap(func(dg netem.Datagram) {
			c[classify(dg.Payload)] += uint64(dg.WireSize())
		})
	}
}

// resetTaps zeroes the tap counters (start of the measured phase).
func (t *tracer) resetTaps() {
	if t == nil {
		return
	}
	for i := range t.taps {
		t.taps[i] = [numClasses]uint64{}
	}
}

func (t *tracer) classBytes(c int) uint64 {
	if t == nil {
		return 0
	}
	var n uint64
	for i := range t.taps {
		n += t.taps[i][c]
	}
	return n
}

// wclEvents is a WCL trace collector counting hop events by kind.
// Single-shard worlds call it from one goroutine.
type wclEvents struct {
	count [16]uint64
}

func (e *wclEvents) Record(_ uint64, ev obs.Event) {
	if int(ev.Kind) < len(e.count) {
		e.count[ev.Kind]++
	}
}

// traceWCL points every node's WCL tracer at the collector.
func (t *tracer) traceWCL(w *sim.World) {
	if t == nil {
		return
	}
	for _, n := range w.Nodes {
		if n.WCL != nil {
			n.WCL.Trace = obs.NewTracer(uint64(n.ID()), &t.wcl)
		}
	}
}

// resetWCL zeroes the collector (start of the measured phase).
func (t *tracer) resetWCL() {
	if t != nil {
		t.wcl = wclEvents{}
	}
}

func (t *tracer) wclCount(k obs.Kind) uint64 {
	if t == nil {
		return 0
	}
	return t.wcl.count[k]
}
