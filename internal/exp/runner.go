package exp

import (
	"fmt"
	"io"
	"os"
	"time"

	"whisper/internal/identity"
	"whisper/internal/parallel"
	"whisper/internal/sim"
	"whisper/internal/wcl"
)

// Report is one experiment's result: it prints the paper's rows
// (ending with the fingerprint line), lists its shape violations
// (empty = the paper's qualitative findings hold) and carries its wire
// digest.
type Report interface {
	Print(out io.Writer)
	ShapeCheck() []string
	digest() uint64
}

// Params sizes one whisper-exp invocation. Scale shrinks every paper
// dimension proportionally (1.0 = paper scale); Shards, Nodes and
// Virtual size the scale experiment only.
type Params struct {
	Seed     int64
	Scale    float64
	Parallel int // concurrent runs per experiment (1 = sequential)
	Shards   int
	Nodes    int           // scale population override (0 = 100k × Scale)
	Virtual  time.Duration // scale virtual runtime override (0 = 2m × Scale, floor 30s)
}

// n scales a paper node count, floored at 40 nodes.
func (p Params) n(paper int) int {
	return max(int(float64(paper)*p.Scale), 40)
}

// dur scales a paper duration, floored at 4 minutes.
func (p Params) dur(paper time.Duration) time.Duration {
	return max(time.Duration(float64(paper)*p.Scale), 4*time.Minute)
}

// Experiment is one entry of the experiment table.
type Experiment struct {
	Name string
	Run  func(Params) (Report, error)
	// Solo experiments run only by name, never under "all".
	Solo bool
}

// report adapts an experiment's typed result to a Report.
func report[R Report](r R, err error) (Report, error) { return r, err }

// Experiments is the table whisper-exp runs, in "all" order: the
// paper's figures and tables (§V) at paper scale × Params.Scale, then
// the middleware extensions.
var Experiments = []Experiment{
	{Name: "fig5", Run: func(p Params) (Report, error) {
		return report(Fig5(Fig5Config{Seed: p.Seed, N: p.n(1000), Runtime: p.dur(10 * time.Minute), Parallel: p.Parallel}))
	}},
	{Name: "fig6", Run: func(p Params) (Report, error) {
		return report(Fig6(Fig6Config{Seed: p.Seed, N: p.n(1000), Warmup: p.dur(5 * time.Minute),
			Measure: p.dur(5 * time.Minute), Parallel: p.Parallel}))
	}},
	{Name: "table1", Run: func(p Params) (Report, error) {
		return report(Table1(Table1Config{Seed: p.Seed, N: p.n(1000), Groups: p.n(1000) / 50,
			Warmup: p.dur(10 * time.Minute), Window: p.dur(15 * time.Minute), Parallel: p.Parallel}))
	}},
	{Name: "fig7", Run: func(p Params) (Report, error) {
		planetLab := Fig7Config{Seed: p.Seed, N: p.n(400), Env: PlanetLab, Exchanges: int(1500 * p.Scale),
			Warmup: p.dur(10 * time.Minute), MaxRun: p.dur(30 * time.Minute), Parallel: p.Parallel}
		cluster := planetLab
		cluster.N, cluster.Env = p.n(1000), Cluster
		return report(Fig7(planetLab, cluster))
	}},
	{Name: "table2", Run: func(p Params) (Report, error) {
		return report(Table2(Table2Config{Seed: p.Seed, N: p.n(1000), Warmup: p.dur(10 * time.Minute)}))
	}},
	{Name: "fig8", Run: func(p Params) (Report, error) {
		groups := []int{1, 2, 4, 8, 16, 32}
		if p.Scale < 0.5 {
			groups = groups[:4]
		}
		return report(Fig8(Fig8Config{Seed: p.Seed, N: p.n(400), Groups: p.n(120), GroupsPerNode: groups,
			Warmup: p.dur(10 * time.Minute), Measure: p.dur(10 * time.Minute), Parallel: p.Parallel}))
	}},
	{Name: "fig9", Run: func(p Params) (Report, error) {
		return report(Fig9(Fig9Config{Seed: p.Seed, N: p.n(400), GroupSize: p.n(60), Queries: int(350 * p.Scale),
			Warmup: p.dur(12 * time.Minute), RingTime: p.dur(10 * time.Minute)}))
	}},
	{Name: "circuit", Run: func(p Params) (Report, error) {
		return report(Circuit(CircuitConfig{Seed: p.Seed, N: p.n(300)}))
	}},
	{Name: "suites", Run: func(p Params) (Report, error) {
		return report(Suites(SuitesConfig{Seed: p.Seed, N: p.n(300)}))
	}},
	{Name: "transfer", Run: func(p Params) (Report, error) {
		return report(Transfer(TransferConfig{Seed: p.Seed, N: p.n(300)}))
	}},
	{Name: "pubsub", Run: func(p Params) (Report, error) {
		return report(PubSub(PubSubConfig{Seed: p.Seed, N: p.n(160)}))
	}},
	{Name: "ablate", Solo: true, Run: func(p Params) (Report, error) {
		return report(Ablations(AblateConfig{Seed: p.Seed, N: p.n(300), Warmup: p.dur(10 * time.Minute),
			Measure: p.dur(8 * time.Minute), Parallel: p.Parallel}))
	}},
	{Name: "scale", Solo: true, Run: func(p Params) (Report, error) {
		// The scale run sizes off its own 100k-node baseline and skips
		// the 4-minute floor: small scales keep the CI smoke cheap.
		// Nodes and Virtual pin either dimension directly.
		n, rt := p.Nodes, p.Virtual
		if n == 0 {
			n = p.n(100_000)
		}
		if rt == 0 {
			rt = max(time.Duration(float64(2*time.Minute)*p.Scale), 30*time.Second)
		}
		defer fmt.Fprintln(os.Stderr)
		return report(Scale(ScaleConfig{Seed: p.Seed, N: n, Shards: p.Shards, Runtime: rt, Env: PlanetLab,
			Rollup: func(ru ScaleRollup) {
				fmt.Fprintf(os.Stderr, "\rscale: %v / %v virtual, %d events in %d windows",
					ru.Now.Round(time.Second), ru.Total, ru.Events, ru.Windows)
			}}))
	}},
}

// Run executes the named experiment ("all": every non-Solo one, each
// followed by a blank line) and writes each report to out, then — when
// check is set — its shape verdict. It returns the number of shape
// violations.
func Run(name string, p Params, out io.Writer, check bool) (int, error) {
	violations := 0
	found := false
	for _, e := range Experiments {
		if e.Name != name && (name != "all" || e.Solo) {
			continue
		}
		found = true
		rep, err := e.Run(p)
		if err != nil {
			return violations, err
		}
		rep.Print(out)
		if check {
			bad := rep.ShapeCheck()
			for _, v := range bad {
				fmt.Fprintln(out, "SHAPE VIOLATION:", v)
			}
			if len(bad) == 0 {
				fmt.Fprintln(out, "shape check: OK (matches the paper's qualitative findings)")
			}
			violations += len(bad)
		}
		if name == "all" {
			fmt.Fprintln(out)
		}
	}
	if !found {
		return 0, fmt.Errorf("unknown experiment %q", name)
	}
	return violations, nil
}

// run is one simulation run of an experiment: its world plus the
// bookkeeping every run ends with.
type run struct {
	*sim.World
	name  string
	start time.Time
	wire  wireDigest
}

// newRun builds the world of one named run on env's latency model,
// taps it for the wire digest, scopes its metrics under the run name
// and starts every node. Zero fields of o take the paper's setup: 70%
// NATted nodes, the shared key pool, and with a PPSS a WCL of Π = 3
// P-node mixes.
func newRun(name string, env Env, o sim.Options) (*run, error) {
	start := time.Now()
	o.Model = env.Model()
	if o.NATRatio == 0 {
		o.NATRatio = 0.7
	}
	if o.KeyPool == nil {
		o.KeyPool = keyPool
	}
	if o.PPSS != nil && o.WCL == nil {
		o.WCL = &wcl.Config{MinPublic: 3}
	}
	o.Obs = ObsRoot.With("run", name)
	w, err := sim.NewWorld(o)
	if err != nil {
		return nil, err
	}
	r := &run{World: w, name: name, start: start, wire: tapWire(w)}
	w.StartAll()
	return r, nil
}

// runAll executes n independent runs on the worker pool (parallelism
// <= 0: one worker per CPU; 1: sequential) and returns their rows in
// index order plus their folded wire digest. Run i draws its keys from
// runPool(workers, i).
func runAll[T any](parallelism, n int, run func(i int, pool *identity.Pool) (T, uint64, error)) ([]T, Digest, error) {
	type out struct {
		row  T
		wire uint64
	}
	workers := parallel.Workers(parallelism)
	outs, err := parallel.Map(workers, n, func(i int) (out, error) {
		row, wire, err := run(i, runPool(workers, i))
		return out{row, wire}, err
	})
	if err != nil {
		return nil, Digest{}, err
	}
	rows := make([]T, n)
	wires := make([]uint64, n)
	for i, o := range outs {
		rows[i], wires[i] = o.row, o.wire
	}
	return rows, Digest{foldDigests(wires...)}, nil
}
