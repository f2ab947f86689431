// Package exp reproduces every table and figure of the paper's
// evaluation (§V). Each experiment has a Config with the paper's
// parameters as defaults and a function returning a result that prints
// the rows/series the paper reports, checks the paper's shape and
// carries the wire digest of its runs (see Report). The Experiments
// table drives them from whisper-exp at paper scale; bench_test.go runs
// them at reduced scale.
package exp

import (
	"fmt"
	"io"
	"time"

	"whisper/internal/identity"
	"whisper/internal/netem"
	"whisper/internal/obs"
	"whisper/internal/ppss"
	"whisper/internal/sim"
	"whisper/internal/stats"
)

// Env selects the emulated testbed of §V-A.
type Env int

const (
	// Cluster is the 1 Gbps switched LAN testbed.
	Cluster Env = iota
	// PlanetLab is the global-scale, loaded testbed.
	PlanetLab
)

func (e Env) String() string {
	if e == PlanetLab {
		return "planetlab"
	}
	return "cluster"
}

// Model returns the latency model for the environment.
func (e Env) Model() netem.LatencyModel {
	if e == PlanetLab {
		return netem.DefaultPlanetLab()
	}
	return netem.Cluster{}
}

// keyPool caches a process-wide pool so repeated experiments do not pay
// RSA key generation each time.
var keyPool = identity.TestPool(64)

// ObsRoot, when non-nil, parents the metric instruments of every
// experiment world under a "run" label naming the run; whisper-exp
// points it at a registry scope when -metrics-out is set. The registry
// is concurrency-safe, so parallel runs share it. Nil (the default)
// runs experiments unobserved, which the fig5 golden test pins as
// byte-identical.
var ObsRoot *obs.Scope

// runPool returns the key pool for run i of an experiment executing
// with the given worker count. The sequential path keeps the shared
// pool and its historical cursor (so -parallel 1 output is
// byte-identical to the sequential harness); concurrent runs each take
// an independent view whose draws depend only on the run index, never
// on sibling runs or scheduling. Key assignment does not influence
// protocol behavior — the pool deals shared moduli round-robin either
// way — so per-run results are identical across worker counts.
func runPool(workers, i int) *identity.Pool {
	if workers <= 1 {
		return keyPool
	}
	return keyPool.View(i)
}

// groupSet tracks the private groups of an experiment world.
type groupSet struct {
	w       *sim.World
	names   []string
	leaders []*ppss.Instance
	members map[ppss.GroupID][]*sim.Node
}

// ppssConfig fills c's zero fields with the group experiments' setup:
// keyBlob-byte key blobs, the given number of helper P-nodes per
// destination, and a one-minute cycle (the PPSS default, spelled out
// because experiments read it).
func ppssConfig(c ppss.Config, keyBlob, helpers int) *ppss.Config {
	if c.KeyBlobSize == 0 {
		c.KeyBlobSize = keyBlob
	}
	if c.MinHelpers == 0 {
		c.MinHelpers = helpers
	}
	if c.Cycle == 0 {
		c.Cycle = time.Minute
	}
	return &c
}

// formGroups lets the public underlay settle for four minutes, creates
// count groups led by distinct nodes (preferring P-nodes, like the
// paper's Fig 8 setup), subscribes each remaining node to
// groupsPerNode random groups and runs on to warmup. Joins are
// retried, as a user re-requesting an invitation would.
func (r *run) formGroups(count, groupsPerNode int, warmup time.Duration) *groupSet {
	defer r.RunUntil(warmup)
	r.RunUntil(4 * time.Minute)
	w := r.World
	gs := &groupSet{w: w, members: make(map[ppss.GroupID][]*sim.Node)}
	leaders := w.LivePublics()
	if len(leaders) < count {
		leaders = w.Live()
	}
	for i := 0; i < count; i++ {
		name := fmt.Sprintf("group-%d", i)
		inst, err := leaders[i%len(leaders)].PPSS.CreateGroup(name)
		if err != nil {
			continue
		}
		gs.names = append(gs.names, name)
		gs.leaders = append(gs.leaders, inst)
		gs.members[inst.Group()] = append(gs.members[inst.Group()], leaders[i%len(leaders)])
	}
	if len(gs.names) == 0 {
		return gs // zero groups requested (tiny -scale runs)
	}
	rng := w.Sim.Rand()
	for _, n := range w.Live() {
		if n.PPSS == nil || len(n.PPSS.Instances()) > 0 {
			continue // leaders already belong to their group
		}
		for g := 0; g < groupsPerNode; g++ {
			gi := rng.Intn(len(gs.names))
			gs.join(n, gi, 1)
			w.Sim.RunFor(time.Second)
		}
	}
	return gs
}

// join subscribes node to group gi with retries.
func (gs *groupSet) join(node *sim.Node, gi, attempt int) {
	leader := gs.leaders[gi]
	name := gs.names[gi]
	accr, entry, err := leader.Invite(node.ID())
	if err != nil {
		return
	}
	node.PPSS.Join(name, accr, entry, func(inst *ppss.Instance, err error) {
		if err != nil {
			if attempt < 3 && !node.Nylon.Stopped() {
				gs.join(node, gi, attempt+1)
			}
			return
		}
		g := inst.Group()
		gs.members[g] = append(gs.members[g], node)
	})
}

// JoinRandom subscribes a (churn-arrived) node to one random group.
func (gs *groupSet) JoinRandom(node *sim.Node) {
	if len(gs.names) == 0 {
		return
	}
	gs.join(node, gs.w.Sim.Rand().Intn(len(gs.names)), 1)
}

// routeStats counts WCL route outcomes, and duplicate forwards or
// deliveries suppressed, summed over live nodes.
type routeStats struct{ first, alt, failed, dups uint64 }

func (s routeStats) routes() float64 { return float64(s.first + s.alt + s.failed) }

// measureWCL runs the world for d and returns the route statistics
// accumulated meanwhile.
func (r *run) measureWCL(d time.Duration) routeStats {
	total := func() (s routeStats) {
		for _, n := range r.Live() {
			if n.WCL != nil {
				st := n.WCL.Stats()
				s.first += st.FirstTrySuccess
				s.alt += st.AltSuccess
				s.failed += st.Failed
				s.dups += st.DupForwards + st.DupDeliveries
			}
		}
		return s
	}
	before := total()
	r.RunFor(d)
	after := total()
	return routeStats{after.first - before.first, after.alt - before.alt,
		after.failed - before.failed, after.dups - before.dups}
}

// printCDF emits a sampled CDF as "value fraction" rows.
func printCDF(w io.Writer, label string, cdf []stats.CDFPoint, points int, format string) {
	fmt.Fprintf(w, "# CDF: %s\n", label)
	for _, p := range stats.SampleCDF(cdf, points) {
		fmt.Fprintf(w, format+" %.4f\n", p.Value, p.Fraction)
	}
}

// durationsToSeconds converts a duration sample to float seconds.
func durationsToSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
