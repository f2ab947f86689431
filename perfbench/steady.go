package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runSteady runs the workload k times, one fresh process after the
// other, with the same arguments, and prints each metric's median,
// quartiles and extremes. The fingerprint line of every run must be
// identical: if a deterministic count differs between runs, the
// schedule is not deterministic and the wall metrics of the runs cannot
// be compared, so that is reported as an error.
func runSteady(out io.Writer, name string, seed int64, seconds, trace, k int) error {
	fmt.Fprintln(out, hostLine(seed))
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	vals := map[string][]float64{}
	units := map[string]string{}
	var fps []string
	for i := 0; i < k; i++ {
		var stdout bytes.Buffer
		cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("run %d: %w\n%s", i+1, err, stdout.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			return fmt.Errorf("run %d: result line: %w", i+1, err)
		}
		if !rep.Correct {
			return fmt.Errorf("run %d failed its checks:\n%s", i+1, stdout.String())
		}
		for _, l := range lines {
			if strings.HasPrefix(l, "fingerprint: ") {
				fps = append(fps, l)
			}
		}
		for m, v := range rep.Metrics {
			vals[m] = append(vals[m], v.Value)
			units[m] = v.Unit
		}
		fmt.Fprintf(out, "run %d/%d done\n", i+1, k)
	}

	names := make([]string, 0, len(vals))
	for m := range vals {
		names = append(names, m)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%-32s %-9s %14s %14s %14s %14s %14s %8s\n", "metric", "unit", "median", "q1", "q3", "min", "max", "iqr/med")
	for _, m := range names {
		v := vals[m]
		s := append([]float64(nil), v...)
		sort.Float64s(s)
		med, q1, q3 := median(v), quartile(v, 1), quartile(v, 3)
		fmt.Fprintf(out, "%-32s %-9s %14.6g %14.6g %14.6g %14.6g %14.6g %8.4f\n",
			m, units[m], med, q1, q3, s[0], s[len(s)-1], ratio(q3-q1, med))
	}

	differ := false
	for _, fp := range fps[1:] {
		if fp != fps[0] {
			differ = true
		}
	}
	if differ {
		for i, fp := range fps {
			fmt.Fprintf(out, "run %d %s\n", i+1, fp)
		}
		return fmt.Errorf("deterministic counts differ between runs of the same seed: the schedule is not deterministic, so the wall metrics are not comparable")
	}
	fmt.Fprintf(out, "deterministic counts identical across %d runs: %s\n", k, fps[0])
	return nil
}
