package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"whisper/internal/crypt"
	"whisper/internal/identity"
	"whisper/internal/sim"
)

// rateBlock is the virtual length of the blocks the open-loop part of
// the measured phase is split into for the wall-clock rate metrics,
// which report the median block: a burst of host contention or a GC
// cycle then moves the blocks it lands in, not the figure. It is one
// Nylon gossip cycle, whose load is not spread evenly over the cycle.
const rateBlock = 10 * time.Second

// poolSize is the number of distinct identity keys every workload's
// world deals round-robin (the simulator's default pool size).
const poolSize = 64

// workload describes one benchmark workload.
type workload struct {
	suite crypt.SuiteID
	// setups is how many times an untraced run builds its world; the
	// median set-up time is reported, and the last world is measured.
	setups int
	// newRun returns an unbuilt instance; instances built from the same
	// seed and seconds run identical schedules.
	newRun func(seed int64, seconds int) instance
}

// instance is one world of a workload, built by setup and driven by
// measure. tr is nil on untraced runs.
type instance interface {
	// setup builds and warms the world: everything the measured phase
	// needs except key generation, which happens before it.
	setup(pool *identity.Pool, tr *tracer) error
	// measure runs the workload's fixed measured work.
	measure(tr *tracer) (*phase, error)
}

var workloads = map[string]workload{
	"gossip-50k":   {suite: crypt.SuiteECC, setups: 3, newRun: newGossip},
	"onion-send":   {suite: crypt.SuiteRSA2048, setups: 9, newRun: newOnion},
	"group-stream": {suite: crypt.SuiteECC, setups: 5, newRun: newGroup},
}

// phase is what a workload's measured phase produced.
type phase struct {
	nodes   int
	virtual time.Duration // virtual time simulated in the measured phase

	attempted, succeeded int64
	// lat holds virtual send→completion latencies of small messages.
	lat []time.Duration
	// goodBytes/goodTime: payload bytes of completed messages of the
	// goodput class and their summed virtual send→completion time.
	goodBytes int64
	goodTime  time.Duration
	// wireBytes counts bytes sent by all nodes over the measured phase.
	wireBytes uint64
	// events, sent and dropped are the engine and network counters
	// accumulated over the measured phase.
	events, sent, dropped uint64
	// windows counts sharded-engine windows (0 on single-shard worlds).
	windows uint64
	// maxLate is how far behind its schedule the open-loop generator
	// issued any operation, in virtual time.
	maxLate time.Duration
	// extra lists workload-specific deterministic counts for the
	// fingerprint line.
	extra []string
	// problems lists failed correctness checks.
	problems []string
	// layers holds per-layer metrics (traced runs only).
	layers map[string]metric
	// slices records the wall and CPU time of each RunFor slice; the
	// first loaded of them cover the open-loop schedule (the rest drain
	// outstanding work and are left out of the rate blocks).
	slices []slice
	loaded int

	// Filled in by bench.measure around the workload's measure.
	wall    time.Duration
	before  usage
	after   usage
	heapPer float64
}

// slice is one RunFor call of the measured phase.
type slice struct {
	virtual, wall, cpu time.Duration
}

// run advances w by d of virtual time as one timed slice.
func (p *phase) run(w *sim.World, d time.Duration, tr *tracer) {
	sp := tr.begin("sim.run_slice")
	c0, t0 := processCPU(), time.Now()
	w.RunFor(d)
	p.slices = append(p.slices, slice{virtual: d, wall: time.Since(t0), cpu: processCPU() - c0})
	tr.end(sp)
}

// blockRates splits the loaded slices into consecutive blocks of
// rateBlock virtual time and returns, per block, simulated node-seconds
// per wall second and CPU microseconds per node-second.
func (p *phase) blockRates() (speed, cpu []float64) {
	var v, wall, c time.Duration
	for _, s := range p.slices[:p.loaded] {
		v, wall, c = v+s.virtual, wall+s.wall, c+s.cpu
		if v >= rateBlock {
			ns := float64(p.nodes) * v.Seconds()
			speed = append(speed, ns/wall.Seconds())
			cpu = append(cpu, float64(c.Microseconds())/ns)
			v, wall, c = 0, 0, 0
		}
	}
	return speed, cpu
}

func (p *phase) fail(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// fingerprint renders the deterministic counts of the phase: two runs
// with the same seed and seconds must print the same line.
func (p *phase) fingerprint() string {
	sorted := sortedDurations(p.lat)
	s := fmt.Sprintf("events=%d sent=%d dropped=%d attempted=%d delivered=%d samples=%d p50_ms=%.3f p99_ms=%.3f wire_bytes=%d",
		p.events, p.sent, p.dropped, p.attempted, p.succeeded, len(sorted),
		ms(quantile(sorted, 0.50)), ms(quantile(sorted, 0.99)), p.wireBytes)
	for _, e := range p.extra {
		s += " " + e
	}
	return s
}

// usage is a snapshot of process resource counters.
type usage struct {
	gcCPU      float64 // runtime estimate of GC CPU seconds
	totalCPU   float64 // runtime estimate of all CPU seconds
	allocBytes float64
	allocObjs  float64
	gcCycles   float64
}

var usageSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// processCPU returns the user+sys CPU time of the process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func sampleUsage() usage {
	var u usage
	metrics.Read(usageSamples)
	vals := make([]float64, len(usageSamples))
	for i, s := range usageSamples {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			vals[i] = s.Value.Float64()
		case metrics.KindUint64:
			vals[i] = float64(s.Value.Uint64())
		}
	}
	u.gcCPU, u.totalCPU, u.allocBytes, u.allocObjs, u.gcCycles = vals[0], vals[1], vals[2], vals[3], vals[4]
	return u
}

// settledHeap returns HeapAlloc after a double GC: the first frees
// ordinary garbage, the second what the first only queued.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// bench drives one benchmark process.
type bench struct {
	name    string
	seed    int64
	seconds int
	out     io.Writer
}

// keys builds the workload's identity key pool and generates every key
// before any clock starts, so key generation never runs in set-up or in
// a measured phase.
func (b *bench) keys(wl workload, tr *tracer) (*identity.Pool, time.Duration, int, error) {
	pool, err := identity.NewSuitePool(poolSize, wl.suite, 0)
	if err != nil {
		return nil, 0, 0, err
	}
	sp := tr.begin("identity.prefill")
	t0 := time.Now()
	n := pool.Prefill(0, runtime.NumCPU())
	d := time.Since(t0)
	tr.end(sp)
	return pool, d, n, nil
}

// untraced measures the end-to-end metrics: set-up several times, then
// one measured phase on the last world.
func (b *bench) untraced(wl workload) (report, error) {
	pool, keygen, _, err := b.keys(wl, nil)
	if err != nil {
		return report{}, err
	}
	var setups []float64
	var inst instance
	var base uint64
	for i := 0; i < wl.setups; i++ {
		inst = nil // let the previous world go before measuring the baseline
		base = settledHeap()
		inst = wl.newRun(b.seed, b.seconds)
		t0 := time.Now()
		if err := inst.setup(pool.View(0), nil); err != nil {
			return report{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	p, err := b.measure(inst, pool, nil, base)
	if err != nil {
		return report{}, err
	}
	fmt.Fprintf(b.out, "keygen: %.3fs for %d keys (off the clock)\n", keygen.Seconds(), pool.Generated())
	fmt.Fprintf(b.out, "setup: %s\n", formatSeconds(setups))
	rep := b.finish(p)
	if rep.Correct {
		rep.Metrics = endToEnd(p, median(setups))
	}
	return rep, nil
}

// traced runs the workload twice: once untraced, once with the obs
// registry, a WCL tracer, network taps and spans on. Per-layer metrics
// come from the traced run; the two phases must agree on every
// deterministic count, because observing must not change behaviour.
func (b *bench) traced(wl workload) (report, error) {
	tr := newTracer()
	pool, keygen, keys, err := b.keys(wl, tr)
	if err != nil {
		return report{}, err
	}

	plain := wl.newRun(b.seed, b.seconds)
	if err := plain.setup(pool.View(0), nil); err != nil {
		return report{}, err
	}
	p0, err := b.measure(plain, pool, nil, 0)
	if err != nil {
		return report{}, err
	}
	plain = nil

	inst := wl.newRun(b.seed, b.seconds)
	if err := inst.setup(pool.View(0), tr); err != nil {
		return report{}, err
	}
	p, err := b.measure(inst, pool, tr, 0)
	if err != nil {
		return report{}, err
	}
	if a, b := p0.fingerprint(), p.fingerprint(); a != b {
		p.fail("tracing changed behaviour:\n  untraced %s\n  traced   %s", a, b)
	}
	p.problems = append(p.problems, p0.problems...)

	fmt.Fprintf(b.out, "keygen: %.3fs for %d keys (off the clock)\n", keygen.Seconds(), keys)
	rep := b.finish(p)
	if rep.Correct {
		m := layerMetrics(p, tr)
		m["identity.keygen_s"] = metric{keygen.Seconds(), layerUnit("identity.keygen_s")}
		m["identity.keys_generated"] = metric{float64(keys), layerUnit("identity.keys_generated")}
		m["trace.overhead_ratio"] = metric{ratio(p.wall.Seconds(), p0.wall.Seconds()), layerUnit("trace.overhead_ratio")}
		speed, cpu := p0.speed()
		m["sim.node_s_per_s"] = metric{speed, layerUnit("sim.node_s_per_s")}
		m["runtime.cpu_us_per_node_s"] = metric{cpu, layerUnit("runtime.cpu_us_per_node_s")}
		rep.Metrics = m
	}
	tr.summary(b.out)
	if err := tr.write(b.out, fmt.Sprintf("%s-%d", b.name, b.seed)); err != nil {
		fmt.Fprintln(b.out, "trace: not written:", err)
	}
	return rep, nil
}

// measure runs inst's measured phase between resource snapshots, then
// settles the heap to charge the live world per node. base is the
// settled heap before the world was built (0: skip the heap figure).
// The phase fails if any identity key is generated inside it.
func (b *bench) measure(inst instance, pool *identity.Pool, tr *tracer, base uint64) (*phase, error) {
	runtime.GC()
	keys := pool.Generated()
	before := sampleUsage()
	t0 := time.Now()
	p, err := inst.measure(tr)
	wall := time.Since(t0)
	after := sampleUsage()
	if err != nil {
		return nil, err
	}
	if n := pool.Generated() - keys; n != 0 {
		p.fail("%d identity keys generated inside the measured phase", n)
	}
	p.wall, p.before, p.after = wall, before, after
	if base > 0 {
		if h := settledHeap(); h > base {
			p.heapPer = float64(h-base) / float64(p.nodes)
		}
	}
	runtime.KeepAlive(inst)
	return p, nil
}

// finish prints the fingerprint, the generator note and any failed
// checks, and fills the operation counts of the report.
func (b *bench) finish(p *phase) report {
	fmt.Fprintf(b.out, "fingerprint: %s\n", p.fingerprint())
	fmt.Fprintf(b.out, "generator: open loop in virtual time, %d operations, latest issue %.3f ms behind schedule\n",
		p.attempted, ms(p.maxLate))
	fmt.Fprintf(b.out, "measured: %.3fs wall for %.1fs virtual on %d nodes\n", p.wall.Seconds(), p.virtual.Seconds(), p.nodes)
	speeds, cpus := p.blockRates()
	speed, cpu := p.speed()
	fmt.Fprintf(b.out, "speed: node_s_per_s=%.6g cpu_us_per_node_s=%.6g (median of blocks: %s, %s)\n",
		speed, cpu, formatFloats(speeds), formatFloats(cpus))
	for _, pr := range p.problems {
		fmt.Fprintln(b.out, "check failed:", pr)
	}
	return report{
		Correct:   len(p.problems) == 0,
		Attempted: p.attempted,
		Failed:    p.attempted - p.succeeded,
		Metrics:   map[string]metric{},
	}
}

// nodeSeconds is the simulated node-time of the phase.
func (p *phase) nodeSeconds() float64 { return float64(p.nodes) * p.virtual.Seconds() }

// endToEnd computes the gated metrics of an untraced phase.
func endToEnd(p *phase, setup float64) map[string]metric {
	sorted := sortedDurations(p.lat)
	ns := p.nodeSeconds()
	return map[string]metric{
		"setup_s":               {setup, "s"},
		"heap_bytes_per_node":   {p.heapPer, "B"},
		"wire_bytes_per_node_s": {float64(p.wireBytes) / ns, "B/s"},
		"delivered_ratio":       {ratio(float64(p.succeeded), float64(p.attempted)), "1"},
		"latency_p50_ms":        {ms(quantile(sorted, 0.50)), "ms"},
		"latency_p99_ms":        {ms(quantile(sorted, 0.99)), "ms"},
		"goodput_kb_per_s":      {ratio(float64(p.goodBytes)/1024, p.goodTime.Seconds()), "KB/s"},
	}
}

// speed returns the wall-clock rates of a phase: the median block's
// simulated node-seconds per wall second and CPU microseconds per
// node-second.
func (p *phase) speed() (nodeSPerS, cpuUSPerNodeS float64) {
	s, c := p.blockRates()
	return median(s), median(c)
}

// layerMetrics adds the runtime, engine and network metrics every
// workload shares to the workload's own per-layer metrics; a layer the
// workload never exercised reports 0.
func layerMetrics(p *phase, tr *tracer) map[string]metric {
	m := map[string]metric{}
	for _, name := range layerNames {
		m[name] = metric{0, layerUnit(name)}
	}
	set := func(name string, v float64) { m[name] = metric{v, layerUnit(name)} }
	for k, v := range p.layers {
		set(k, v.Value)
	}
	ns := p.nodeSeconds()
	du := func(f func(u usage) float64) float64 { return f(p.after) - f(p.before) }
	set("runtime.gc_cpu_share", ratio(du(func(u usage) float64 { return u.gcCPU }), du(func(u usage) float64 { return u.totalCPU })))
	set("runtime.alloc_bytes_per_node_s", du(func(u usage) float64 { return u.allocBytes })/ns)
	set("runtime.allocs_per_node_s", du(func(u usage) float64 { return u.allocObjs })/ns)
	set("runtime.gc_cycles", du(func(u usage) float64 { return u.gcCycles }))
	set("simnet.events", float64(p.events))
	set("simnet.events_per_s", float64(p.events)/p.wall.Seconds())
	set("simnet.windows", float64(p.windows))
	set("simnet.events_per_window", ratio(float64(p.events), float64(p.windows)))
	set("netem.datagrams_per_node_s", float64(p.sent)/ns)
	set("netem.drop_ratio", ratio(float64(p.dropped), float64(p.sent)))
	for c, name := range classNames {
		set("netem.bytes."+name, float64(tr.classBytes(c)))
	}
	set("sim.build_s", tr.total("sim.build").Seconds())
	set("sim.warmup_s", tr.total("sim.warmup").Seconds())
	return m
}

func sortedDurations(ds []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func formatFloats(xs []float64) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4g", x)
	}
	return s + "]"
}

func formatSeconds(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.3fs", x)
	}
	return s + fmt.Sprintf(" (median %.3fs)", median(xs))
}

// msgPayload is a message's payload: its id followed by filler derived
// from the id, so a receiver can check the bytes without shared state.
func msgPayload(id uint64, size int) []byte {
	p := make([]byte, size)
	binary.BigEndian.PutUint64(p, id)
	fill(p[8:], id)
	return p
}

// checkMsg returns the id of a payload built by msgPayload and whether
// its bytes are exactly the ones sent.
func checkMsg(p []byte, size int) (uint64, bool) {
	if len(p) != size {
		return 0, false
	}
	id := binary.BigEndian.Uint64(p)
	want := make([]byte, size-8)
	fill(want, id)
	return id, string(want) == string(p[8:])
}

// fill writes bytes derived from x (splitmix64).
func fill(p []byte, x uint64) {
	var b [8]byte
	for i := 0; i < len(p); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		binary.LittleEndian.PutUint64(b[:], z)
		copy(p[i:], b[:])
	}
}
