// Command whisper-exp regenerates every table and figure of the
// paper's evaluation (§V) on the emulated substrate.
//
// Usage:
//
//	whisper-exp [flags] <experiment>
//
// Experiments are the entries of exp.Experiments: fig5, fig6, table1,
// fig7, table2, fig8, fig9, circuit, suites, transfer, pubsub, ablate
// and scale. "all" runs every one of them except ablate and scale.
//
// The default parameters match the paper (1,000-node cluster runs,
// 400-node PlanetLab runs, 70% of nodes behind NATs, Π = 3, 1 KB keys).
// Use -scale to shrink every dimension proportionally for quick runs on
// modest hardware, e.g. -scale 0.25.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"whisper/internal/exp"
	"whisper/internal/obs"
)

func main() {
	var (
		seed     = flag.Int64("seed", 2011, "random seed for all experiments")
		scale    = flag.Float64("scale", 1.0, "scale factor for node counts and windows (1.0 = paper scale)")
		outRaw   = flag.String("out", "", "also write results to this file")
		check    = flag.Bool("check", true, "run shape checks against the paper's qualitative findings")
		par      = flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent simulation runs per experiment (1 = sequential, matching the pre-harness output byte for byte)")
		benchOut = flag.String("benchjson", "", "write machine-readable per-run timings to this JSON file")
		metrics  = flag.String("metrics-out", "", "write the metrics registry as JSON to this file after the run")
		shards   = flag.Int("shards", 8, "event shards for the scale experiment (1 = classic single-heap engine)")
		nodes    = flag.Int("nodes", 0, "scale experiment population override (0 = 100k x -scale)")
		virtual  = flag.Duration("virtual", 0, "scale experiment virtual runtime override (0 = 2m x -scale, floor 30s)")
	)
	flag.Usage = func() {
		var names []string
		for _, e := range exp.Experiments {
			names = append(names, e.Name)
		}
		fmt.Fprintf(os.Stderr, "usage: whisper-exp [flags] <%s|all>\n", strings.Join(names, "|"))
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	var out io.Writer = os.Stdout
	if *outRaw != "" {
		f, err := os.Create(*outRaw)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}
	p := exp.Params{Seed: *seed, Scale: *scale, Parallel: *par, Shards: *shards, Nodes: *nodes, Virtual: *virtual}
	name := flag.Arg(0)
	if *benchOut != "" {
		exp.BenchSink = &exp.BenchLog{}
		exp.BenchSink.SetMeta(exp.BenchMeta{
			Experiment: name,
			Seed:       *seed,
			Scale:      *scale,
			Parallel:   *par,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		})
	}
	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.NewRegistry()
		exp.ObsRoot = reg.Scope()
	}
	start := time.Now()
	violations, err := exp.Run(name, p, out, *check)
	if err != nil {
		fmt.Fprintln(os.Stderr, "whisper-exp:", err)
		os.Exit(1)
	}
	fmt.Fprintf(out, "\n[%s completed in %v]\n", name, time.Since(start).Round(time.Second))
	if exp.BenchSink != nil {
		exp.BenchSink.Record(exp.RunStat{
			Name:   "total/" + name,
			WallMS: float64(time.Since(start).Microseconds()) / 1000,
		})
		if err := exp.BenchSink.WriteJSON(*benchOut); err != nil {
			fmt.Fprintln(os.Stderr, "whisper-exp: writing bench json:", err)
			os.Exit(1)
		}
	}
	if reg != nil {
		if err := reg.WriteJSON(*metrics); err != nil {
			fmt.Fprintln(os.Stderr, "whisper-exp: writing metrics json:", err)
			os.Exit(1)
		}
	}
	if violations > 0 {
		fmt.Fprintf(out, "%d shape violation(s) — see above\n", violations)
		os.Exit(3)
	}
}
