// Command perfbench is the WHISPER benchmark: three workloads that
// drive the simulated middleware through the public APIs of its layers
// and report end-to-end and per-layer metrics. See README.md.
//
// One run:
//
//	bash perfbench/run.sh --workload onion-send --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones from a separate
// traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// benchProcs is the GOMAXPROCS of a workload run. On a small shared
// host, a process spread over every core is exposed to every
// neighbour's load and, on the sharded engine, waits at each window
// barrier for its slowest worker: at GOMAXPROCS=2 on a 2-core host the
// wall metrics of gossip-50k spread by 13–21% between runs, at 1 by
// under 8%. The sharded engine's results do not depend on the worker
// count, so only speed is traded.
const benchProcs = 1

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 10, "length of the measured phase; sizes its fixed virtual-time work")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from a traced run")
		steady  = flag.Int("steady", 0, "steadiness report: run the workload this many times in fresh processes")
		micro   = flag.Bool("micro", false, "run the layer microbenchmarks instead of a workload")
	)
	flag.Parse()
	runtime.GOMAXPROCS(benchProcs)

	if *micro {
		fmt.Println(hostLine(0))
		if err := runMicro(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if *steady > 0 {
		if err := runSteady(os.Stdout, *name, *seed, *seconds, *trace, *steady); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Println(hostLine(*seed))
	b := &bench{name: *name, seed: *seed, seconds: *seconds, out: os.Stdout}
	var rep report
	var err error
	if *trace == 1 {
		rep, err = b.traced(wl)
	} else {
		rep, err = b.untraced(wl)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// hostLine describes the machine and the Go runtime the figures came
// from. Load comes from this one process, whose threads are bounded by
// GOMAXPROCS (the sharded engine's workers never exceed it).
func hostLine(seed int64) string {
	return fmt.Sprintf("host: nproc=%d gomaxprocs=%d go=%s cpu=%q seed=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), seed)
}

// cpuModel reads the processor name from /proc/cpuinfo (Linux); other
// systems report the architecture.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// quantile returns the q-quantile (0..1) of sorted durations by the
// nearest-rank method.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartile returns the k-th quartile (1 or 3) of xs, interpolating
// between ranks as Python's statistics.quantiles(xs, n=4) does.
func quartile(xs []float64, k int) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return s[0]
	}
	pos := float64(k) * float64(n+1) / 4
	j := int(pos)
	switch {
	case j < 1:
		return s[0]
	case j >= n:
		return s[n-1]
	}
	return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
